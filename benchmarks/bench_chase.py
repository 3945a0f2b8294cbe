"""SB-1 — chase throughput vs. instance size × mapping family.

Also the D1 ablation (restricted vs. oblivious chase) and the
**semi-naive acceptance lane**: on the recursive path-closure family
(``E(x,y) -> P(x,y)``; ``P(x,y) & E(y,z) -> P(x,z)``) the delta-driven
loop must beat naive re-matching by at least :data:`MIN_SPEEDUP` while
producing a byte-identical instance digest, step count, and round
count.  Expected shape: naive triggers grow ~cubically in the chain
length (every round rejoins all accumulated paths), delta triggers
quadratically (each path is enumerated exactly once).

The same acceptance now runs **set-at-a-time**: the semi-naive SQL
chase (delta-join unions over rowid watermarks) must consider at least
:data:`MIN_SQL_TRIGGER_RATIO` times fewer premise-join rows than the
naive SQL oracle on the same workload, with byte-identical store
digest, step count, and round count — the SQL mirror of the tuple-side
gate.

Runs two ways: under pytest-benchmark like every other SB module, and
as a plain script (``python benchmarks/bench_chase.py``) for the CI
smoke run, where it prints the comparisons, records the measurements in
the run registry (``$REPRO_RUNS_DB``), and exits nonzero if any digest
check, the speedup floor, or the SQL trigger-ratio floor fails.
"""

import os
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - script mode without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.chase.standard import chase
from repro.obs.registry import RunRegistry
from repro.obs.sinks import OpRecord
from repro.workloads.generators import (
    chain_decomposition_mapping,
    chain_graph_instance,
    path_closure_mapping,
    random_instance,
)
from repro.workloads.scenarios import get_scenario

try:
    from .conftest import record_metric
except ImportError:  # script mode
    def record_metric(benchmark, **metrics):
        for key, value in metrics.items():
            benchmark.extra_info[key] = value


SIZES = [10, 50, 200]
FAMILIES = ["copy", "decomposition", "path2"]

#: Semi-naive acceptance: chain length and required speedup over naive.
CLOSURE_CHAIN = 48
MIN_SPEEDUP = 3.0

#: SQL-chase acceptance: the delta-join rewriting must consider at
#: least this many times fewer premise-join rows than the naive SQL
#: oracle on the path-closure workload (measured ratio is ~33x).
MIN_SQL_TRIGGER_RATIO = 3.0


def _mapping(family):
    return get_scenario(family).mapping


def _sql_closure_run(mapping, source, evaluation, jobs=1):
    """Run the SQL chase on a fresh in-memory store; return the result."""
    from repro.store import SqliteStore, sql_chase

    store = SqliteStore(":memory:")
    store.add_all(source.facts)
    result = sql_chase(
        store, mapping.dependencies, evaluation=evaluation, jobs=jobs
    )
    return result


def _source(family, size, null_ratio=0.0):
    mapping = _mapping(family)
    return random_instance(
        mapping.source, size, seed=size, null_ratio=null_ratio, value_pool=size
    )


try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None


if pytest is not None:

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("size", SIZES)
    def test_chase_restricted(benchmark, family, size):
        mapping, source = _mapping(family), _source(family, size)
        result = benchmark(mapping.exchange, source)
        record_metric(
            benchmark, family=family, size=size, steps=result.steps,
            generated=len(result.generated),
        )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("size", [10, 50])
    def test_chase_oblivious_ablation(benchmark, family, size):
        """D1: the oblivious chase on the same inputs."""
        mapping, source = _mapping(family), _source(family, size)
        result = benchmark(mapping.exchange, source, variant="oblivious")
        record_metric(benchmark, family=family, size=size, steps=result.steps)

    @pytest.mark.parametrize("size", SIZES)
    def test_chase_with_null_sources(benchmark, size):
        """Sources with 30% nulls — the paper's setting — cost the same."""
        mapping = _mapping("path2")
        source = _source("path2", size, null_ratio=0.3)
        result = benchmark(mapping.exchange, source)
        record_metric(benchmark, size=size, nulls_in=len(source.nulls))

    @pytest.mark.parametrize("length", [1, 2, 4, 8])
    def test_chase_chain_fanout(benchmark, length):
        """Per-fact fan-out scaling: one premise, `length` conclusion atoms."""
        mapping = chain_decomposition_mapping(length)
        source = random_instance(mapping.source, 50, seed=7, value_pool=100)
        result = benchmark(mapping.exchange, source)
        record_metric(benchmark, length=length, generated=len(result.generated))

    @pytest.mark.parametrize("evaluation", ["delta", "naive"])
    def test_chase_path_closure(benchmark, evaluation):
        """Semi-naive vs. naive on the multi-round recursive closure."""
        mapping = path_closure_mapping()
        source = chain_graph_instance(CLOSURE_CHAIN)
        result = benchmark(
            chase, source, mapping.dependencies, evaluation=evaluation
        )
        record_metric(
            benchmark, evaluation=evaluation, steps=result.steps,
            rounds=result.rounds, triggers=result.triggers_considered,
        )

    @pytest.mark.parametrize("evaluation", ["delta", "naive"])
    def test_sql_chase_path_closure(benchmark, evaluation):
        """Set-at-a-time mirror: semi-naive vs. naive SQL evaluation."""
        mapping = path_closure_mapping()
        source = chain_graph_instance(CLOSURE_CHAIN)
        result = benchmark(
            _sql_closure_run, mapping, source, evaluation
        )
        record_metric(
            benchmark, evaluation=evaluation, steps=result.steps,
            rounds=result.rounds, triggers=result.triggers_considered,
        )


# ----------------------------------------------------------------------
# Script mode (CI smoke run)
# ----------------------------------------------------------------------


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _registry(path=None):
    path = path or os.environ.get("REPRO_RUNS_DB")
    return RunRegistry(path) if path else RunRegistry()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--registry", metavar="DB", default=None,
        help="run-registry database to record results in "
        "(default: $REPRO_RUNS_DB or the user registry)",
    )
    parser.add_argument(
        "--chain", type=int, default=CLOSURE_CHAIN, metavar="N",
        help=f"path-closure chain length (default: {CLOSURE_CHAIN})",
    )
    opts = parser.parse_args(argv)

    mapping = path_closure_mapping()
    source = chain_graph_instance(opts.chain)

    delta_t, delta = _timed(
        lambda: chase(source, mapping.dependencies, evaluation="delta")
    )
    naive_t, naive = _timed(
        lambda: chase(source, mapping.dependencies, evaluation="naive")
    )

    identical = (
        delta.instance.digest() == naive.instance.digest()
        and delta.steps == naive.steps
        and delta.rounds == naive.rounds
    )
    speedup = naive_t / delta_t if delta_t > 0 else float("inf")
    fast_enough = speedup >= MIN_SPEEDUP

    print(
        f"path-closure n={opts.chain}: "
        f"delta {delta_t * 1e3:8.1f} ms  "
        f"triggers {delta.triggers_considered:7d}  "
        f"rounds {delta.rounds}"
    )
    print(
        f"path-closure n={opts.chain}: "
        f"naive {naive_t * 1e3:8.1f} ms  "
        f"triggers {naive.triggers_considered:7d}  "
        f"rounds {naive.rounds}"
    )
    print(
        f"identical={identical} speedup={speedup:.2f}x "
        f"(floor {MIN_SPEEDUP:.1f}x)"
    )

    # Set-at-a-time mirror: semi-naive SQL vs. the naive SQL oracle on
    # the same workload.  The floor is on triggers considered (join
    # rows enumerated), not wall time — SQLite's optimiser makes raw
    # timings noisy at this scale, the join-row count is exact.
    sql_delta_t, sql_delta = _timed(
        lambda: _sql_closure_run(mapping, source, "delta")
    )
    sql_naive_t, sql_naive = _timed(
        lambda: _sql_closure_run(mapping, source, "naive")
    )

    sql_identical = (
        sql_delta.store.digest() == sql_naive.store.digest()
        and sql_delta.steps == sql_naive.steps
        and sql_delta.rounds == sql_naive.rounds
    )
    sql_ratio = (
        sql_naive.triggers_considered / sql_delta.triggers_considered
        if sql_delta.triggers_considered > 0
        else float("inf")
    )
    sql_sparse_enough = sql_ratio >= MIN_SQL_TRIGGER_RATIO
    ok = identical and fast_enough and sql_identical and sql_sparse_enough

    print(
        f"sql-closure  n={opts.chain}: "
        f"delta {sql_delta_t * 1e3:8.1f} ms  "
        f"triggers {sql_delta.triggers_considered:7d}  "
        f"rounds {sql_delta.rounds}"
    )
    print(
        f"sql-closure  n={opts.chain}: "
        f"naive {sql_naive_t * 1e3:8.1f} ms  "
        f"triggers {sql_naive.triggers_considered:7d}  "
        f"rounds {sql_naive.rounds}"
    )
    print(
        f"sql identical={sql_identical} trigger ratio={sql_ratio:.2f}x "
        f"(floor {MIN_SQL_TRIGGER_RATIO:.1f}x)"
    )

    registry = _registry(opts.registry)
    registry.record(
        OpRecord(
            op="bench_chase",
            mapping_digest=mapping.digest(),
            instance_digest=source.digest(),
            wall_time=delta_t,
            rounds=delta.rounds,
            steps=delta.steps,
            facts=len(delta.instance),
        ),
        metrics={
            "chain": opts.chain,
            "delta_wall_time": delta_t,
            "naive_wall_time": naive_t,
            "delta_triggers": delta.triggers_considered,
            "naive_triggers": naive.triggers_considered,
            "speedup": speedup,
            "identical": identical,
        },
    )
    registry.record(
        OpRecord(
            op="bench_chase_sql",
            mapping_digest=mapping.digest(),
            instance_digest=source.digest(),
            wall_time=sql_delta_t,
            rounds=sql_delta.rounds,
            steps=sql_delta.steps,
            facts=len(sql_delta.store),
        ),
        metrics={
            "chain": opts.chain,
            "delta_wall_time": sql_delta_t,
            "naive_wall_time": sql_naive_t,
            "delta_triggers": sql_delta.triggers_considered,
            "naive_triggers": sql_naive.triggers_considered,
            "trigger_ratio": sql_ratio,
            "identical": sql_identical,
        },
    )
    registry.close()
    print(
        f"acceptance: semi-naive >= {MIN_SPEEDUP:.0f}x on path closure "
        f"and SQL delta >= {MIN_SQL_TRIGGER_RATIO:.0f}x sparser than the "
        f"naive oracle, identical output — {ok}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
