"""Per-item telemetry of ``chase_many`` / ``reverse_many``.

Pins what each batch item reports — its :class:`repro.obs.OpRecord`
fields, the ``engine.stats()`` counters it moves, and the
:class:`repro.errors.BatchItemError` a failed item resolves to — for
both batch operations through the same scenarios: an in-batch
duplicate, a crash a retry recovers, a crash skipped without retry,
and a warm batch answered from the cache.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest

from repro import (
    BatchItemError,
    ExchangeEngine,
    FaultInjected,
    FaultPlan,
    Instance,
    SchemaMapping,
)


class ListSink:
    """A telemetry sink that keeps every record in memory."""

    def __init__(self):
        self.records = []

    def record(self, record):
        self.records.append(record)

    def close(self):
        pass


class Case(NamedTuple):
    op: str
    method: str
    mapping: SchemaMapping
    item: str
    #: Branches one computed item adds to ``engine.stats()``.
    branches: int


CASES = [
    Case(
        "chase",
        "chase_many",
        SchemaMapping.from_text("P(x, y, z) -> Q(x, y) & R(y, z)"),
        "P(a{i}, b{i}, c{i})",
        0,
    ),
    # The union scenario's disjunctive reverse: two minimal branches.
    Case(
        "reverse",
        "reverse_many",
        SchemaMapping.from_text("R(x) -> P(x) | Q(x)"),
        "R(a{i})",
        2,
    ),
]


@pytest.fixture(params=CASES, ids=[case.op for case in CASES])
def case(request):
    return request.param


def _items(case, *indices):
    return [Instance.parse(case.item.format(i=i)) for i in indices]


def _run(engine, case, items, **kwargs):
    return getattr(engine, case.method)(case.mapping, items, **kwargs)


def _fields(sink):
    return [
        (r.op, r.batch_index, r.attempts, r.kills, r.error, r.exhausted, r.cache_hit)
        for r in sink.records
    ]


def _counters(engine, op):
    row = engine.stats()[op]
    return row["calls"], row["errors"], row["branches"]


def test_cold_batches(case):
    sink = ListSink()
    engine = ExchangeEngine(sink=sink)
    op = case.op

    # Item 2 duplicates item 0 and folds into it; item 1 crashes once
    # and its retry recovers.
    results = _run(
        engine,
        case,
        _items(case, 0, 1, 0, 2),
        faults=FaultPlan.crashes(1),
        retries=1,
        on_error="skip",
    )
    assert not any(isinstance(r, BatchItemError) for r in results)
    assert _fields(sink) == [
        (op, 0, 1, 0, None, None, False),
        (op, 1, 2, 0, None, None, False),
        (op, 3, 1, 0, None, None, False),
    ]
    assert _counters(engine, op) == (3, 0, 3 * case.branches)

    # A crash with no retry left resolves to a BatchItemError.
    sink.records.clear()
    results = _run(
        engine,
        case,
        _items(case, 3, 4),
        faults=FaultPlan.crashes(1),
        retries=0,
        on_error="skip",
    )
    assert _fields(sink) == [
        (op, 0, 1, 0, None, None, False),
        (op, 1, 1, 0, "FaultInjected", None, False),
    ]
    assert _counters(engine, op) == (5, 1, 4 * case.branches)
    assert not isinstance(results[0], BatchItemError)
    error = results[1]
    assert isinstance(error, BatchItemError)
    assert isinstance(error.error, FaultInjected)
    assert (error.index, error.op, error.attempts, error.kind, error.diagnosis) == (
        1,
        op,
        1,
        "FaultInjected",
        None,
    )
    assert error.elapsed >= 0.0


def test_warm_batch_emits_cache_hits(case):
    sink = ListSink()
    engine = ExchangeEngine(sink=sink)
    op = case.op
    cold = _run(engine, case, _items(case, 0, 1))
    sink.records.clear()

    warm = _run(engine, case, _items(case, 0, 1, 0))
    # One record per cache-hit item; the in-batch duplicate stays
    # folded into its first occurrence.
    assert _fields(sink) == [
        (op, 0, 1, 0, None, None, True),
        (op, 1, 1, 0, None, None, True),
    ]
    assert all(r.cached for r in warm)
    assert [r.candidates if op == "reverse" else r.instance for r in warm] == [
        r.candidates if op == "reverse" else r.instance for r in cold + cold[:1]
    ]
    assert _counters(engine, op) == (4, 0, 2 * case.branches)
