"""Unit tests for the semi-naive chase machinery.

Covers :class:`repro.logic.delta.TriggerIndex` (incremental index
maintenance, round/live views, delta rotation, branch forks),
:func:`repro.logic.delta.match_atoms_delta` (order-preserving delta
enumeration), and the redesigned matching API (the MatchSource
contract, the ``instance=`` shim, guard deferral semantics).
"""

import pytest

from repro.instance import Instance
from repro.logic import MatchSource, TriggerIndex, match_atoms, match_atoms_delta
from repro.logic.atoms import atom
from repro.logic.delta import binding_sort_key, _Prefix
from repro.logic.guards import ConstantGuard, Inequality
from repro.logic.matching import has_match
from repro.facts import fact
from repro.terms import Const, Null, Var


def _rows(seq):
    return [f.values for f in seq]


class TestTriggerIndexBuilder:
    def test_seeded_from_instance(self):
        inst = Instance.parse("P(a, b), P(b, c), Q(a)")
        index = TriggerIndex(inst)
        assert len(index) == 3
        assert fact("P", "a", "b") in index
        assert index.snapshot() == inst

    def test_add_dedups_and_counts(self):
        index = TriggerIndex()
        assert index.add(fact("P", "a", "b")) is True
        assert index.add(fact("P", "a", "b")) is False
        assert index.add_all([fact("P", "a", "b"), fact("P", "b", "c")]) == 1
        assert len(index) == 2

    def test_matches_memory_instance_reference(self):
        """Incremental maintenance agrees with rebuilding from scratch."""
        index = TriggerIndex(Instance.parse("P(a, b)"))
        added = [fact("P", "b", "c"), fact("Q", "c"), fact("P", "a", "b")]
        for f in added:
            index.add(f)
        reference = Instance.parse("P(a, b), P(b, c), Q(c)")
        assert index.snapshot() == reference
        for rel in ("P", "Q"):
            assert set(index.tuples(rel)) == set(reference.tuples(rel))

    def test_tuples_at_buckets_track_adds(self):
        index = TriggerIndex(Instance.parse("P(a, b)"))
        b = Const("b")
        assert _rows([fact("P", "a", "b")])[0] in index.tuples_at("P", 1, b)
        index.add(fact("P", "c", "b"))
        bucket = list(index.tuples_at("P", 1, b))
        assert len(bucket) == 2
        assert bucket[1] == fact("P", "c", "b").values
        assert list(index.tuples_at("P", 0, b)) == []
        assert list(index.tuples_at("R", 0, b)) == []

    def test_canonical_seed_order(self):
        """Seeding sorts rows content-wise — no hash-order dependence."""
        one = TriggerIndex(Instance.parse("P(c, d), P(a, b), P(b, c)"))
        two = TriggerIndex(Instance.parse("P(a, b), P(b, c), P(c, d)"))
        assert list(one.tuples("P")) == list(two.tuples("P"))


class TestRoundRotation:
    def test_first_delta_is_everything(self):
        inst = Instance.parse("P(a, b), Q(a)")
        index = TriggerIndex(inst)
        delta = index.begin_round()
        assert set(delta) == {"P", "Q"}
        assert delta["P"] == {fact("P", "a", "b").values}

    def test_delta_is_only_new_rows(self):
        index = TriggerIndex(Instance.parse("P(a, b)"))
        index.begin_round()
        index.add(fact("P", "b", "c"))
        index.add(fact("Q", "c"))
        delta = index.begin_round()
        assert delta == {
            "P": frozenset({fact("P", "b", "c").values}),
            "Q": frozenset({fact("Q", "c").values}),
        }
        assert index.begin_round() == {}

    def test_round_view_hides_unrotated_rows(self):
        index = TriggerIndex(Instance.parse("P(a, b)"))
        index.begin_round()
        view = index.round_view()
        index.add(fact("P", "b", "c"))
        # Live view sees the add; the round view does not until rotation.
        assert len(index.tuples("P")) == 2
        assert list(view.tuples("P")) == [fact("P", "a", "b").values]
        assert list(view.tuples_at("P", 0, Const("b"))) == []
        index.begin_round()
        assert len(view.tuples("P")) == 2
        assert list(view.tuples_at("P", 0, Const("b"))) == [
            fact("P", "b", "c").values
        ]

    def test_view_iteration_survives_concurrent_adds(self):
        """Appending mid-iteration never disturbs a bounded prefix."""
        index = TriggerIndex(Instance.parse("P(a, b), P(b, c)"))
        index.begin_round()
        view = index.round_view()
        seen = []
        for row in view.tuples("P"):
            seen.append(row)
            index.add(fact("P", row[1].value, f"x{len(seen)}"))
        assert len(seen) == 2

    def test_prefix_sequence_protocol(self):
        rows = [(1,), (2,), (3,)]
        prefix = _Prefix(rows, 2)
        assert len(prefix) == 2 and bool(prefix)
        assert list(prefix) == [(1,), (2,)]
        assert prefix[0] == (1,) and prefix[-1] == (2,)
        assert prefix[0:2] == [(1,), (2,)]
        with pytest.raises(IndexError):
            prefix[2]
        assert not _Prefix(rows, 0)


class TestFork:
    def test_fork_isolates_adds_and_rotation(self):
        parent = TriggerIndex(Instance.parse("P(a, b)"))
        parent.begin_round()
        child = parent.fork()
        child.add(fact("P", "b", "c"))
        assert len(child) == 2 and len(parent) == 1
        assert fact("P", "b", "c") not in parent
        # Child's rotation surfaces only its own add; the parent's next
        # rotation stays empty.
        assert child.begin_round() == {
            "P": frozenset({fact("P", "b", "c").values})
        }
        assert parent.begin_round() == {}
        parent.add(fact("Q", "z"))
        assert fact("Q", "z") not in child

    def test_fork_preserves_visibility_boundary(self):
        parent = TriggerIndex(Instance.parse("P(a, b)"))
        parent.begin_round()
        parent.add(fact("P", "b", "c"))
        child = parent.fork()
        # The un-rotated row is still pending delta in the fork.
        assert child.begin_round() == {
            "P": frozenset({fact("P", "b", "c").values})
        }


class TestMatchAtomsDelta:
    PREMISE = (atom("P", "x", "y"), atom("E", "y", "z"))

    def _index(self, text):
        index = TriggerIndex(Instance.parse(text))
        index.begin_round()
        return index

    def test_empty_delta_yields_nothing(self):
        index = self._index("P(a, b), E(b, c)")
        view = index.round_view()
        assert list(match_atoms_delta(self.PREMISE, view, {})) == []

    def test_full_delta_equals_match_atoms(self):
        index = TriggerIndex(Instance.parse("P(a, b), P(b, c), E(b, c), E(c, d)"))
        delta = index.begin_round()
        view = index.round_view()
        assert list(match_atoms_delta(self.PREMISE, view, delta)) == list(
            match_atoms(self.PREMISE, view)
        )

    def test_delta_subset_in_naive_order(self):
        """Yields = the delta-touching subset of naive order, order intact."""
        index = self._index("P(a, b), P(b, c), E(b, c), E(c, d)")
        index.add(fact("E", "b", "e"))
        index.add(fact("P", "d", "b"))
        delta = index.begin_round()
        view = index.round_view()
        naive = list(match_atoms(self.PREMISE, view))
        delta_rows = {rel: set(rows) for rel, rows in delta.items()}

        def touches(binding):
            for a in self.PREMISE:
                values = tuple(binding[t] for t in a.terms)
                if values in delta_rows.get(a.relation, ()):
                    return True
            return False

        expected = [b for b in naive if touches(b)]
        assert list(match_atoms_delta(self.PREMISE, view, delta)) == expected
        assert expected  # the scenario exercises the pruned path

    def test_guards_respected(self):
        x, y = Var("x"), Var("y")
        premise = (atom("P", "x", "y"),)
        guard = Inequality(x, y)
        index = TriggerIndex(Instance.parse("P(a, a), P(a, b)"))
        delta = index.begin_round()
        view = index.round_view()
        got = list(match_atoms_delta(premise, view, delta, (guard,)))
        assert got == [{x: Const("a"), y: Const("b")}]


class TestMatchingApi:
    def test_trigger_index_is_match_source(self):
        assert isinstance(TriggerIndex(), MatchSource)
        assert isinstance(Instance.parse("P(a)"), MatchSource)
        index = TriggerIndex(Instance.parse("P(a)"))
        assert isinstance(index.round_view(), MatchSource)

    def test_match_atoms_accepts_any_source(self):
        premise = (atom("P", "x"),)
        inst = Instance.parse("P(a)")
        index = TriggerIndex(inst)
        assert list(match_atoms(premise, inst)) == list(match_atoms(premise, index))
        assert has_match(premise, index)

    def test_missing_source_raises(self):
        with pytest.raises(TypeError, match="source"):
            next(match_atoms((atom("P", "x"),)))

    def test_guard_defers_only_while_unbound(self):
        """A guard over bound variables evaluates; real errors propagate."""

        class Boom:
            def variables(self):
                return frozenset((Var("x"),))

            def holds(self, binding):
                raise KeyError("buggy guard")

        premise = (atom("P", "x"),)
        inst = Instance.parse("P(a)")
        with pytest.raises(KeyError, match="buggy guard"):
            list(match_atoms(premise, inst, guards=(Boom(),)))

    def test_guard_variables_declared(self):
        x, y = Var("x"), Var("y")
        assert Inequality(x, y).variables() == frozenset((x, y))
        assert Inequality(x, Const("a")).variables() == frozenset((x,))
        assert ConstantGuard(x).variables() == frozenset((x,))
        assert ConstantGuard(Const("b")).variables() == frozenset()

    def test_binding_sort_key_total_and_content_based(self):
        x, y = Var("x"), Var("y")
        one = {x: Const("a"), y: Null("N1")}
        two = {y: Null("N1"), x: Const("a")}
        assert binding_sort_key(one) == binding_sort_key(two)
        other = {x: Const("b"), y: Null("N1")}
        assert binding_sort_key(one) < binding_sort_key(other)
