"""SB-3 — reverse disjunctive chase: branch growth with nulls.

Also the D2 ablation (quotient branching vs. none).  Expected shape:
the branch count before minimization grows with the quotient count —
Bell-like in the number of target nulls — while the minimized antichain
stays small; ground targets pay almost nothing.
"""

import pytest

from repro.chase.disjunctive import reverse_disjunctive_chase
from repro.homs.quotient import count_quotients
from repro.instance import Fact, Instance
from repro.limits import Limits
from repro.terms import Const, Null
from repro.workloads.scenarios import get_scenario

from .conftest import record_metric


REVERSE = get_scenario("self_join_target").reverse


def target_with_nulls(null_count: int, ground_count: int = 2) -> Instance:
    facts = [
        Fact("P'", (Const(i), Const(i + 100))) for i in range(ground_count)
    ]
    facts += [
        Fact("P'", (Null(f"A{i}"), Null(f"B{i}"))) for i in range(null_count // 2)
    ]
    if null_count % 2:
        facts.append(Fact("P'", (Null("LONE"), Const(999))))
    return Instance(facts)


@pytest.mark.parametrize("null_count", [0, 1, 2, 3, 4])
def test_reverse_chase_branching(benchmark, null_count):
    target = target_with_nulls(null_count)
    branches = benchmark(
        reverse_disjunctive_chase,
        target,
        REVERSE.dependencies,
        result_relations=["P", "T"],
    )
    record_metric(
        benchmark,
        null_count=null_count,
        quotients=count_quotients(len(target.nulls), len(target.constants)),
        minimized_branches=len(branches),
    )


@pytest.mark.parametrize("null_count", [2, 4])
def test_reverse_chase_unminimized_ablation(benchmark, null_count):
    """D2 companion: the raw (unminimized) branch set."""
    target = target_with_nulls(null_count)
    branches = benchmark(
        reverse_disjunctive_chase,
        target,
        REVERSE.dependencies,
        result_relations=["P", "T"],
        minimize=False,
    )
    record_metric(benchmark, null_count=null_count, raw_branches=len(branches))


@pytest.mark.parametrize("ground_facts", [2, 8, 12])
def test_reverse_chase_ground_scaling(benchmark, ground_facts):
    """Ground targets: branch growth is 2^(diagonal facts) — kept small."""
    facts = [Fact("P'", (Const(i), Const(i))) for i in range(ground_facts // 2)]
    facts += [
        Fact("P'", (Const(i + 500), Const(i + 600)))
        for i in range(ground_facts - ground_facts // 2)
    ]
    target = Instance(facts)
    branches = benchmark(
        reverse_disjunctive_chase,
        target,
        REVERSE.dependencies,
        result_relations=["P", "T"],
        limits=Limits(max_rounds=32, max_branches=100_000, on_exhausted="raise"),
    )
    record_metric(benchmark, ground_facts=ground_facts, branches=len(branches))


@pytest.mark.parametrize("tgd_style", ["tgd", "disjunctive"])
def test_reverse_chase_language_cost(benchmark, tgd_style):
    """Plain-tgd reverses avoid branching entirely; disjunction pays."""
    from repro.mappings.schema_mapping import SchemaMapping

    if tgd_style == "tgd":
        reverse = SchemaMapping.from_text("P'(x, y) -> P(x, y)")
    else:
        reverse = SchemaMapping.from_text("P'(x, y) -> P(x, y) | T(x)")
    target = Instance(
        [Fact("P'", (Const(i), Const(i + 100))) for i in range(6)]
    )
    branches = benchmark(
        reverse_disjunctive_chase,
        target,
        reverse.dependencies,
        result_relations=["P", "T"],
    )
    record_metric(benchmark, style=tgd_style, branches=len(branches))
