"""Resource governance: ``Limits``, ``Budget``, and partial chase results.

Covers the config algebra (merge/replace/resolve), the cooperative
budget (rounds, gauges, deadline, cancellation, ambient scope), and the
partial-result contract of both chases: on exhaustion the run stops at a
sound sub-instance tagged with an ``Exhausted`` diagnosis instead of
raising — unless ``on_exhausted="raise"`` asks for the legacy errors.
"""

from __future__ import annotations

import pytest

from repro import (
    Budget,
    BudgetExhausted,
    CancelToken,
    Cancelled,
    ChaseNonTermination,
    Instance,
    Limits,
    SchemaMapping,
    budget_scope,
    chase,
    disjunctive_chase,
    parse_dependencies,
    parse_dependency,
)
from repro.chase.disjunctive import Branches
from repro.homs.search import find_homomorphism
from repro.limits import Exhausted, resolve_limits
from repro.obs import Tracer

RECURSIVE = parse_dependency("P(x, y) -> EXISTS z . P(y, z)")
PAB = Instance.parse("P(a, b)")


class TestLimitsConfig:
    def test_unlimited_by_default(self):
        assert Limits().unlimited
        assert not Limits(max_rounds=5).unlimited
        assert not Limits(deadline=1.0).unlimited

    def test_raises_property(self):
        assert Limits(on_exhausted="raise").raises
        assert not Limits().raises

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            Limits(on_exhausted="explode")

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            Limits(max_rounds=-1)
        with pytest.raises(ValueError):
            Limits(deadline=-0.5)

    def test_replace_returns_new_object(self):
        base = Limits(max_rounds=5)
        other = base.replace(max_facts=10)
        assert other.max_rounds == 5 and other.max_facts == 10
        assert base.max_facts is None

    def test_merge_override_wins_on_set_fields(self):
        base = Limits(max_rounds=5, max_facts=100, on_exhausted="raise")
        override = Limits(max_rounds=9)
        merged = base.merge(override)
        assert merged.max_rounds == 9
        assert merged.max_facts == 100
        # The override's policy always wins, even when defaulted.
        assert merged.on_exhausted == "partial"

    def test_resolve_limits(self):
        default = Limits(max_rounds=5)
        assert resolve_limits(None, None) is None
        assert resolve_limits(None, default) is default
        got = resolve_limits(Limits(max_facts=3), default)
        assert got.max_rounds == 5 and got.max_facts == 3

    def test_describe_mentions_set_bounds(self):
        text = Limits(max_rounds=4, deadline=0.5).describe()
        assert "max_rounds=4" in text and "deadline" in text


class TestBudget:
    def test_rounds_exhaust_after_limit(self):
        budget = Budget(Limits(max_rounds=2))
        assert budget.start_round("t") is None
        assert budget.start_round("t") is None
        diagnosis = budget.start_round("t")
        assert diagnosis is not None and diagnosis.resource == "rounds"

    def test_fact_gauge(self):
        budget = Budget(Limits(max_facts=10))
        assert budget.charge("t", facts=10) is None
        diagnosis = budget.charge("t", facts=11)
        assert diagnosis is not None and diagnosis.resource == "facts"

    def test_first_mark_wins(self):
        budget = Budget(Limits(max_facts=1, max_nulls=1))
        first = budget.charge("t", facts=2)
        second = budget.charge("t", nulls=2)
        assert first.resource == "facts"
        assert second.resource == "facts"  # sticky diagnosis

    def test_deadline(self):
        budget = Budget(Limits(deadline=0.0))
        diagnosis = budget.checkpoint("t")
        assert diagnosis is not None and diagnosis.resource == "deadline"

    def test_cancellation(self):
        token = CancelToken()
        budget = Budget(Limits(), token=token)
        assert budget.checkpoint("t") is None
        token.cancel()
        diagnosis = budget.checkpoint("t")
        assert diagnosis is not None and diagnosis.resource == "cancelled"
        with pytest.raises(Cancelled):
            budget.raise_exhausted()

    def test_remaining_time(self):
        assert Budget(Limits()).remaining_time() is None
        assert Budget(Limits(deadline=60.0)).remaining_time() > 0

    def test_raise_exhausted_maps_rounds_to_nontermination(self):
        budget = Budget(Limits(max_rounds=1))
        budget.start_round("chase")
        budget.start_round("chase")
        with pytest.raises(ChaseNonTermination, match="did not terminate"):
            budget.raise_exhausted()


class TestChasePartialResults:
    def test_partial_result_instead_of_raise(self):
        result = chase(PAB, [RECURSIVE], limits=Limits(max_rounds=3))
        assert result.exhausted is not None
        assert result.exhausted.resource == "rounds"
        assert not result.completed
        assert result.rounds == 3

    def test_partial_is_prefix_of_full_run(self):
        partial = chase(PAB, [RECURSIVE], limits=Limits(max_rounds=3))
        fuller = chase(PAB, [RECURSIVE], limits=Limits(max_rounds=6))
        assert set(partial.instance.facts) <= set(fuller.instance.facts)
        assert partial.generated <= fuller.generated

    def test_completed_run_has_no_diagnosis(self):
        deps = parse_dependencies("P(x, y) -> Q(x, y)")
        result = chase(PAB, deps, limits=Limits(max_rounds=50))
        assert result.completed and result.exhausted is None

    def test_max_facts_limit(self):
        result = chase(PAB, [RECURSIVE], limits=Limits(max_facts=4))
        assert result.exhausted is not None
        assert result.exhausted.resource == "facts"

    def test_max_nulls_limit(self):
        result = chase(PAB, [RECURSIVE], limits=Limits(max_nulls=3))
        assert result.exhausted is not None
        assert result.exhausted.resource == "nulls"

    def test_deadline_limit(self):
        result = chase(PAB, [RECURSIVE], limits=Limits(deadline=0.0))
        assert result.exhausted is not None
        assert result.exhausted.resource == "deadline"

    def test_raise_mode_keeps_legacy_error(self):
        with pytest.raises(ChaseNonTermination, match="did not terminate"):
            chase(PAB, [RECURSIVE], limits=Limits(max_rounds=3, on_exhausted="raise"))

    def test_exhaustion_event_on_tracer(self):
        tracer = Tracer()
        chase(PAB, [RECURSIVE], limits=Limits(max_rounds=3), tracer=tracer)
        events = [e for e in tracer.events if e.kind == "resource_exhausted"]
        assert len(events) == 1 and events[0].resource == "rounds"
        assert tracer.metrics.counter("budget.exhausted.rounds") == 1
        assert tracer.metrics.counter("chase.nontermination") == 1

    def test_explicit_budget_shared_across_calls(self):
        budget = Budget(Limits(max_rounds=4))
        first = chase(PAB, [RECURSIVE], budget=budget)
        assert first.exhausted is not None
        # The budget is spent: a second call exhausts immediately.
        second = chase(PAB, [RECURSIVE], budget=budget)
        assert second.exhausted is not None and second.rounds == 0

    def test_ambient_budget_scope(self):
        with budget_scope(Limits(max_rounds=3)) as budget:
            result = chase(PAB, [RECURSIVE])
            assert result.exhausted is not None
            assert result.rounds == 3
            assert budget.exhausted is not None
        # Outside the scope the legacy default guard applies again.
        with pytest.raises(ChaseNonTermination):
            chase(PAB, [RECURSIVE])


class TestDisjunctivePartialResults:
    DEPS = parse_dependencies("P(x, y) -> EXISTS z . P(y, z)")

    def test_partial_branches_tagged(self):
        branches = disjunctive_chase(PAB, self.DEPS, limits=Limits(max_rounds=3))
        assert isinstance(branches, Branches)
        assert branches.exhausted is not None
        assert not branches.completed
        assert all(isinstance(b, Instance) for b in branches)

    def test_branches_is_still_a_list(self):
        deps = parse_dependencies("P'(x, x) -> T(x) | P(x, x)")
        branches = disjunctive_chase(Instance.parse("P'(a, a)"), deps)
        assert isinstance(branches, list) and len(branches) == 2
        assert branches.completed

    def test_branch_cap_partial(self):
        deps = parse_dependencies(
            "S(x) -> A(x) | B(x); S(x) -> C(x) | D(x); S(x) -> E(x) | F(x)"
        )
        branches = disjunctive_chase(
            Instance.parse("S(a)"), deps, limits=Limits(max_branches=3)
        )
        assert branches.exhausted is not None
        assert branches.exhausted.resource == "branches"

    def test_branch_cap_raise_mode_message(self):
        deps = parse_dependencies(
            "S(x) -> A(x) | B(x); S(x) -> C(x) | D(x); S(x) -> E(x) | F(x)"
        )
        with pytest.raises(BudgetExhausted, match="max_branches=3"):
            disjunctive_chase(
                Instance.parse("S(a)"),
                deps,
                limits=Limits(max_branches=3, on_exhausted="raise"),
            )

    def test_exhausted_branch_closed_in_trace(self):
        tracer = Tracer()
        disjunctive_chase(
            PAB, self.DEPS, limits=Limits(max_rounds=3), tracer=tracer
        )
        closed = [e for e in tracer.events if e.kind == "branch_closed"]
        assert any(e.reason in ("nonterminating", "exhausted") for e in closed)


class TestHomSearchGovernance:
    def test_budget_cuts_off_hom_search(self):
        # A 3-cycle has no homomorphism into a long path, so the search
        # backtracks across well over the checkpoint interval of probes.
        source = Instance.parse("E(X, Y), E(Y, Z), E(Z, X)")
        target = Instance.parse(
            ", ".join(f"E(a{i}, a{i + 1})" for i in range(400))
        )
        with budget_scope(Limits(deadline=0.0)):
            with pytest.raises(BudgetExhausted):
                find_homomorphism(source, target)

    def test_unlimited_search_unaffected(self):
        source = Instance.parse("E(X, Y)")
        target = Instance.parse("E(a, b)")
        assert find_homomorphism(source, target) is not None


class TestEngineLimits:
    def test_engine_exchange_partial_not_cached(self):
        from repro import ExchangeEngine

        engine = ExchangeEngine()
        mapping = SchemaMapping.from_text("P(x, y) -> EXISTS z . P(y, z)")
        partial = engine.exchange(mapping, PAB, limits=Limits(max_rounds=3))
        assert partial.exhausted is not None
        # A later unlimited-enough call must NOT see the partial result.
        full = engine.exchange(mapping, PAB, limits=Limits(max_rounds=6))
        assert not full.cached
        assert set(partial.instance.facts) <= set(full.instance.facts)

    def test_completed_results_cache_across_limits(self):
        from repro import ExchangeEngine

        engine = ExchangeEngine()
        mapping = SchemaMapping.from_text("P(x, y) -> Q(x, y)")
        first = engine.exchange(mapping, PAB, limits=Limits(max_rounds=50))
        second = engine.exchange(mapping, PAB, limits=Limits(max_rounds=99))
        assert first.completed and second.cached

    def test_facade_limits_passthrough(self):
        mapping = SchemaMapping.from_text("P(x, y) -> EXISTS z . P(y, z)")
        result = mapping.exchange(PAB, limits=Limits(max_rounds=3))
        assert result.exhausted is not None
        instance = mapping.chase(PAB, limits=Limits(max_rounds=3))
        assert isinstance(instance, Instance)
