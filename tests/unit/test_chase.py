"""Unit tests for the standard and disjunctive chase."""

import pytest

from repro.chase.disjunctive import (
    disjunctive_chase,
    minimize_branches,
    reverse_disjunctive_chase,
)
from repro.chase.standard import (
    ChaseNonTermination,
    chase,
    chase_atoms_canonical,
)
from repro.homs.search import is_hom_equivalent, is_homomorphic
from repro.instance import Instance
from repro.limits import Limits
from repro.logic.atoms import atom
from repro.parsing.parser import parse_dependencies, parse_dependency


class TestStandardChase:
    def test_full_tgd(self):
        deps = parse_dependencies("P(x, y) -> Q(y, x)")
        result = chase(Instance.parse("P(a, b)"), deps)
        assert Instance.parse("Q(b, a)") <= result.instance

    def test_existential_creates_fresh_null(self):
        deps = parse_dependencies("P(x) -> EXISTS z . Q(x, z)")
        result = chase(Instance.parse("P(a)"), deps)
        generated = [f for f in result.generated]
        assert len(generated) == 1
        assert list(generated[0].nulls())

    def test_fresh_nulls_avoid_input_nulls(self):
        deps = parse_dependencies("P(x) -> EXISTS z . Q(x, z)")
        inst = Instance.parse("P(N0)")  # input null named like the default prefix
        result = chase(inst, deps)
        q_fact = next(f for f in result.generated if f.relation == "Q")
        fresh = q_fact.values[1]
        assert fresh.is_null and fresh.name != "N0"

    def test_source_nulls_are_matched_like_values(self):
        # Proposition 3.11 territory: chasing a null-containing source works.
        deps = parse_dependencies("P(x, y) -> EXISTS z . Q(x, z) & Q(z, y)")
        result = chase(Instance.parse("P(W, Z)"), deps)
        assert len([f for f in result.generated if f.relation == "Q"]) == 2

    def test_restricted_does_not_refire_satisfied(self):
        deps = parse_dependencies("P(x) -> EXISTS z . Q(x, z)")
        inst = Instance.parse("P(a), Q(a, b)")
        result = chase(inst, deps, variant="restricted")
        assert result.generated == frozenset()

    def test_oblivious_fires_anyway(self):
        deps = parse_dependencies("P(x) -> EXISTS z . Q(x, z)")
        inst = Instance.parse("P(a), Q(a, b)")
        result = chase(inst, deps, variant="oblivious")
        assert len(result.generated) == 1

    def test_variants_hom_equivalent(self):
        deps = parse_dependencies(
            "P(x, y) -> EXISTS z . Q(x, z) & Q(z, y)\nP(x, y) -> R(x)"
        )
        inst = Instance.parse("P(a, b), P(b, c), Q(a, k)")
        restricted = chase(inst, deps, variant="restricted").instance
        oblivious = chase(inst, deps, variant="oblivious").instance
        assert is_hom_equivalent(restricted, oblivious)

    def test_example_1_1_shape(self):
        deps = parse_dependencies("P(x, y, z) -> Q(x, y) & R(y, z)")
        result = chase(Instance.parse("P(a, b, c)"), deps)
        target = result.restricted_to(["Q", "R"])
        assert target == Instance.parse("Q(a, b), R(b, c)")

    def test_multiple_rounds_for_recursive_deps(self):
        # Conclusion feeds the next premise: needs > 1 round, terminates.
        deps = parse_dependencies("A(x) -> B(x)\nB(x) -> C(x)")
        result = chase(Instance.parse("A(a)"), deps)
        assert Instance.parse("B(a), C(a)") <= result.instance
        assert result.rounds >= 2

    def test_nontermination_guard(self):
        deps = parse_dependencies("A(x) -> EXISTS y . A(y)")
        with pytest.raises(ChaseNonTermination):
            chase(
                Instance.parse("A(a)"),
                deps,
                variant="oblivious",
                limits=Limits(max_rounds=3, on_exhausted="raise"),
            )

    def test_guarded_tgd_constant(self):
        deps = parse_dependencies("R(x, y) & Constant(x) -> P(x)")
        result = chase(Instance.parse("R(a, b), R(X, c)"), deps)
        assert result.restricted_to(["P"]) == Instance.parse("P(a)")

    def test_guarded_tgd_inequality(self):
        deps = parse_dependencies("R(x, y) & x != y -> P(x, y)")
        result = chase(Instance.parse("R(a, a), R(a, b)"), deps)
        assert result.restricted_to(["P"]) == Instance.parse("P(a, b)")

    def test_rejects_disjunctive(self):
        dep = parse_dependency("R(x) -> P(x) | Q(x)")
        with pytest.raises(TypeError):
            chase(Instance.parse("R(a)"), [dep])

    def test_unknown_variant(self):
        deps = parse_dependencies("P(x) -> Q(x)")
        with pytest.raises(ValueError):
            chase(Instance(), deps, variant="eager")

    def test_steps_counted(self):
        deps = parse_dependencies("P(x) -> Q(x)")
        result = chase(Instance.parse("P(a), P(b)"), deps)
        assert result.steps == 2

    def test_canonical_premise_instance(self):
        inst = chase_atoms_canonical([atom("P", "x", "y"), atom("Q", "y")])
        assert len(inst) == 2
        assert len(inst.nulls) == 2


class TestDisjunctiveChase:
    def test_branches_per_disjunct(self):
        deps = [parse_dependency("R(x) -> P(x) | Q(x)")]
        branches = disjunctive_chase(Instance.parse("R(a)"), deps)
        projected = {b.restrict(["P", "Q"]) for b in branches}
        assert projected == {Instance.parse("P(a)"), Instance.parse("Q(a)")}

    def test_two_facts_four_branches(self):
        deps = [parse_dependency("R(x) -> P(x) | Q(x)")]
        branches = disjunctive_chase(Instance.parse("R(a), R(b)"), deps)
        assert len(branches) == 4

    def test_satisfied_trigger_does_not_branch(self):
        deps = [parse_dependency("R(x) -> P(x) | Q(x)")]
        branches = disjunctive_chase(Instance.parse("R(a), P(a)"), deps)
        assert len(branches) == 1

    def test_plain_tgd_accepted(self):
        deps = [parse_dependency("R(x) -> P(x)")]
        branches = disjunctive_chase(Instance.parse("R(a)"), deps)
        assert len(branches) == 1
        assert Instance.parse("P(a)") <= branches[0]

    def test_inequality_guard_respected(self):
        deps = [parse_dependency("R(x, y) & x != y -> P(x, y)")]
        branches = disjunctive_chase(Instance.parse("R(a, a)"), deps)
        assert branches == [Instance.parse("R(a, a)")]

    def test_existentials_in_disjuncts(self):
        deps = [parse_dependency("R(x) -> (EXISTS z . P(x, z)) | Q(x)")]
        branches = disjunctive_chase(Instance.parse("R(a)"), deps)
        withp = [b for b in branches if b.tuples("P")]
        assert withp and list(withp[0].nulls)

    def test_branch_cap(self):
        deps = [parse_dependency("R(x) -> P(x) | Q(x)")]
        inst = Instance.parse(", ".join(f"R({chr(ord('a') + i)})" for i in range(12)))
        with pytest.raises(RuntimeError):
            disjunctive_chase(
                inst, deps, limits=Limits(max_branches=100, on_exhausted="raise")
            )


class TestMinimizeBranches:
    def test_drops_dominated(self):
        small = Instance.parse("P(X, Y)")
        big = Instance.parse("P(a, a)")
        kept = minimize_branches([small, big])
        assert kept == [small]

    def test_keeps_incomparable(self):
        left = Instance.parse("P(a)")
        right = Instance.parse("Q(b)")
        assert set(minimize_branches([left, right])) == {left, right}

    def test_collapses_hom_equivalent(self):
        left = Instance.parse("P(a, X)")
        right = Instance.parse("P(a, Y), P(a, Z)")
        assert len(minimize_branches([left, right])) == 1

    def test_empty(self):
        assert minimize_branches([]) == []


class TestReverseDisjunctiveChase:
    def test_theorem_5_2_branches(self, self_join_reverse):
        branches = reverse_disjunctive_chase(
            Instance.parse("P'(N1, N2)"),
            self_join_reverse.dependencies,
            result_relations=["P", "T"],
        )
        # The null-merge worlds must surface a T-branch and a P-branch.
        as_str = {str(b) for b in branches}
        assert any("T(" in s for s in as_str)
        assert any("P(" in s for s in as_str)

    def test_ground_target_no_quotient_blowup(self, self_join_reverse):
        branches = reverse_disjunctive_chase(
            Instance.parse("P'(a, b)"),
            self_join_reverse.dependencies,
            result_relations=["P", "T"],
        )
        assert branches == [Instance.parse("P(a, b)")]

    def test_diagonal_ground_target_branches(self, self_join_reverse):
        branches = reverse_disjunctive_chase(
            Instance.parse("P'(a, a)"),
            self_join_reverse.dependencies,
            result_relations=["P", "T"],
        )
        assert set(branches) == {Instance.parse("P(a, a)"), Instance.parse("T(a)")}

    def test_unminimized_superset(self, self_join_reverse):
        minimized = reverse_disjunctive_chase(
            Instance.parse("P'(N1, N2)"),
            self_join_reverse.dependencies,
            result_relations=["P", "T"],
        )
        raw = reverse_disjunctive_chase(
            Instance.parse("P'(N1, N2)"),
            self_join_reverse.dependencies,
            result_relations=["P", "T"],
            minimize=False,
        )
        assert len(raw) >= len(minimized)
        for kept in minimized:
            assert any(is_homomorphic(kept, branch) for branch in raw)
