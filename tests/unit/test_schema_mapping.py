"""Unit tests for SchemaMapping: construction, semantics, chase wrappers."""

import pytest

from repro.instance import Instance
from repro.mappings.schema_mapping import SchemaMapping
from repro.schema import Schema


class TestConstruction:
    def test_from_text_infers_schemas(self):
        m = SchemaMapping.from_text("P(x, y, z) -> Q(x, y) & R(y, z)")
        assert m.source.arity("P") == 3
        assert set(m.target.names) == {"Q", "R"}

    def test_explicit_schemas_validated(self):
        with pytest.raises(ValueError):
            SchemaMapping.from_text("P(x) -> Q(x)", source=Schema([("Z", 1)]))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SchemaMapping.from_text("P(x) -> Q(x)\nP(x, y) -> Q(x)")

    def test_wider_explicit_schema_ok(self):
        source = Schema([("P", 1), ("Unused", 2)])
        m = SchemaMapping.from_text("P(x) -> Q(x)", source=source)
        assert "Unused" in m.source

    def test_equality_and_hash(self):
        a = SchemaMapping.from_text("P(x) -> Q(x)")
        b = SchemaMapping.from_text("P(x) -> Q(x)")
        assert a == b
        assert hash(a) == hash(b)

    def test_repr_contains_dependency(self):
        m = SchemaMapping.from_text("P(x) -> Q(x)")
        assert "P(x) -> Q(x)" in repr(m)


class TestClassification:
    def test_plain_tgds(self):
        assert SchemaMapping.from_text("P(x) -> EXISTS z . Q(x, z)").is_plain_tgds()

    def test_guards_not_plain(self):
        m = SchemaMapping.from_text("P(x, y) & x != y -> Q(x)")
        assert not m.is_plain_tgds()
        assert m.uses_inequality()

    def test_constant_guard(self):
        m = SchemaMapping.from_text("P(x) & Constant(x) -> Q(x)")
        assert m.uses_constant_guard()

    def test_full(self):
        assert SchemaMapping.from_text("P(x, y) -> Q(x)").is_full()
        assert not SchemaMapping.from_text("P(x) -> Q(x, z)").is_full()

    def test_disjunctive(self):
        assert SchemaMapping.from_text("R(x) -> P(x) | Q(x)").is_disjunctive()
        assert not SchemaMapping.from_text("R(x) -> P(x)").is_disjunctive()


class TestSatisfaction:
    def test_satisfied(self):
        m = SchemaMapping.from_text("P(x, y) -> Q(y)")
        assert m.satisfies(Instance.parse("P(a, b)"), Instance.parse("Q(b)"))

    def test_violated(self):
        m = SchemaMapping.from_text("P(x, y) -> Q(y)")
        assert not m.satisfies(Instance.parse("P(a, b)"), Instance.parse("Q(a)"))

    def test_existential_witnessed_by_anything(self):
        m = SchemaMapping.from_text("P(x) -> EXISTS z . Q(x, z)")
        assert m.satisfies(Instance.parse("P(a)"), Instance.parse("Q(a, X)"))
        assert m.satisfies(Instance.parse("P(a)"), Instance.parse("Q(a, q)"))
        assert not m.satisfies(Instance.parse("P(a)"), Instance.parse("Q(b, q)"))

    def test_empty_source_vacuous(self):
        m = SchemaMapping.from_text("P(x) -> Q(x)")
        assert m.satisfies(Instance(), Instance())

    def test_disjunction_either_side(self):
        m = SchemaMapping.from_text("R(x) -> P(x) | Q(x)")
        assert m.satisfies(Instance.parse("R(a)"), Instance.parse("P(a)"))
        assert m.satisfies(Instance.parse("R(a)"), Instance.parse("Q(a)"))
        assert not m.satisfies(Instance.parse("R(a)"), Instance())

    def test_guard_limits_obligations(self):
        m = SchemaMapping.from_text("R(x, y) & Constant(x) -> P(x)")
        assert m.satisfies(Instance.parse("R(X, b)"), Instance())
        assert not m.satisfies(Instance.parse("R(a, b)"), Instance())

    def test_example_3_3(self):
        """U is not a solution for V, per the paper."""
        m = SchemaMapping.from_text("P(x, y, z) -> Q(x, y) & R(y, z)")
        v = Instance.parse("P(a, b, Z), P(X, b, c)")
        u = Instance.parse("Q(a, b), R(b, c)")
        assert not m.satisfies(v, u)
        u_prime = Instance.parse("Q(a, b), Q(X, b), R(b, c), R(b, Z)")
        assert m.satisfies(v, u_prime)


class TestChaseWrappers:
    def test_chase_restricts_to_target(self):
        m = SchemaMapping.from_text("P(x) -> Q(x)")
        out = m.chase(Instance.parse("P(a)"))
        assert out == Instance.parse("Q(a)")
        assert not out.tuples("P")

    def test_chase_result_counts(self):
        m = SchemaMapping.from_text("P(x) -> Q(x)")
        res = m.exchange(Instance.parse("P(a), P(b)"))
        assert res.steps == 2

    def test_chase_output_is_solution(self):
        m = SchemaMapping.from_text("P(x, y) -> EXISTS z . Q(x, z) & Q(z, y)")
        inst = Instance.parse("P(a, b), P(b, c)")
        assert m.satisfies(inst, m.chase(inst))

    def test_reverse_chase_restricts(self):
        rev = SchemaMapping.from_text("R(x) -> P(x) | Q(x)")
        branches = rev.reverse_chase(Instance.parse("R(a)"))
        for b in branches:
            assert not b.tuples("R")
