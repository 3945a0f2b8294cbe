"""Batch dispatch policy, the serial batch loop, and task functions.

``chase_many``/``reverse_many`` fan unique work items out.  The policy,
per the engine design (:func:`pool_size`):

* **serial** when there is one job, one item, or one CPU, or when the
  largest instance has fewer than ``process_threshold`` facts — no pool
  beats the plain loop there, and the batch path still wins through
  content-addressed dedup;
* **processes** for batches with large instances (``process_threshold``
  facts or more) — the chase is CPU-bound, instances and mappings are
  picklable, and fork-based workers amortize the serialization cost.
  Every multi-process batch runs on the supervised
  :class:`repro.engine.supervisor.WorkerPool`, which kills hung workers
  only when ``Limits.grace`` arms it.

Each side of the threshold wins somewhere.  On a 2-core x86 host, with
16 unique instances per ``chase_many`` batch and the cache off,
processes lose at 20 facts (path2: 74 ms against 34 ms serial) and win
at 150 facts (decomposition: 285 ms against 373 ms).  There is no
thread-pool lane: the chase holds the GIL, and on the same host threads
never reliably beat the serial loop (path2, decomposition and hr_split
at 20 to 199 facts: medians within ±11% of serial, at most 5 wins in 7
paired runs).

Batch execution is **fault isolated**: one item crashing (a task
exception, a dead worker, an injected fault) never takes the whole
batch down.  :func:`run_batch_isolated` (serial) and
:func:`repro.engine.supervisor.run_batch_supervised` (processes) return
one :class:`ItemOutcome` per payload — either a value or the exception
that ended the item — retry *transient* failures up to a retry budget,
and enforce a batch deadline.

Task functions live at module scope so they pickle by reference, and
return ``(value, TraceState | None)``.  Every payload ends with
``(..., limits, fault, attempt)``: ``limits`` is the per-item
:class:`repro.limits.Limits` (or ``None`` for legacy behavior),
``fault`` the per-item :class:`repro.limits.Fault` from a
test/CI fault plan (or ``None``), and ``attempt`` the 1-based attempt
number — the retry loop resubmits the same payload with only the last
element bumped.  The element *before* the trailing triple is ``ctx``,
the caller's serialized :class:`repro.obs.context.TraceContext` (a
plain dict, or ``None`` outside a request): task functions restore it
as the worker's ambient context so spans and records produced in the
worker carry the originating request's ids.  The element before
``ctx`` is ``traced``: whether the task records into a private tracer
and ships its state back."""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..chase.disjunctive import Branches, reverse_disjunctive_chase
from ..chase.standard import ChaseResult, chase
from ..errors import BudgetExhausted, FaultInjected, WorkerKilled
from ..instance import Instance
from ..limits import Exhausted, Fault, Limits, trip
from ..mappings.schema_mapping import SchemaMapping
from ..obs.context import TraceContext, context_scope
from ..obs.tracer import Tracer, TraceState

#: Failures worth retrying: injected crash faults (deterministically
#: transient by construction), hard-killed workers (a retry gets a fresh
#: worker and the remaining deadline) and infrastructure-level breakage
#: such as a worker process dying.  A :class:`BudgetExhausted` is *not*
#: transient — retrying an exhausted budget would just exhaust it again.
_TRANSIENT = (FaultInjected, WorkerKilled, OSError)


def is_transient(error: BaseException) -> bool:
    """True when a retry of *error* would plausibly succeed."""
    return isinstance(error, _TRANSIENT) and not isinstance(error, BudgetExhausted)


@dataclass
class ItemOutcome:
    """One batch item's fate: a value or the exception that ended it.

    ``elapsed`` is the item's wall time across *all* its attempts
    (first submission to final resolution), so failed items get their
    cost attributed in ``engine.stats()`` just like successful ones.
    ``kills`` counts hard terminations the item's workers needed — it
    stays 0 on the serial loop and in a worker pool without ``grace``,
    which never kills (:mod:`repro.engine.supervisor`).
    """

    value: Any = None
    error: Optional[BaseException] = None
    attempts: int = 1
    elapsed: float = 0.0
    kills: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def _deadline_error() -> BudgetExhausted:
    """The error recorded for items not started by the batch deadline."""
    return BudgetExhausted(
        diagnosis=Exhausted(
            resource="deadline", where="engine.batch", used="batch deadline passed"
        )
    )


def _rebudgeted(payload: tuple, elapsed: float) -> tuple:
    """Carry an item's spent time into its retry payload.

    A retried item continues the *same* per-item budget rather than
    restarting its deadline from zero: ``limits`` sits at
    ``payload[-3]`` (the payload-shape contract above), and the retry
    ships a replacement whose deadline is the original minus the wall
    time already burned, floored at zero so a hopeless retry still
    resolves promptly as deadline-exhausted instead of running another
    full deadline's worth of work.
    """
    limits = payload[-3] if len(payload) >= 3 else None
    if not isinstance(limits, Limits) or limits.deadline is None:
        return payload
    remaining = max(0.0, limits.deadline - elapsed)
    return payload[:-3] + (limits.replace(deadline=remaining),) + payload[-2:]


def _scope(ctx: Optional[dict]):
    """The worker-side ambient-context scope for a payload's ``ctx``."""
    if ctx:
        return context_scope(TraceContext.from_dict(ctx))
    return nullcontext()


def chase_task(
    payload: Tuple[
        SchemaMapping, Instance, str, bool, Optional[dict], Optional[Limits], Optional[Fault], int
    ]
) -> Tuple[ChaseResult, Optional[TraceState]]:
    """Chase one instance (runs inside a worker; must stay picklable).

    With ``traced`` set the chase records into a private tracer whose
    picklable :class:`TraceState` ships back with the result: worker
    processes cannot share the parent's tracer, so the engine absorbs
    the states on join.  The serial loop runs the same shape.
    """
    mapping, instance, variant, traced, ctx, limits, fault, attempt = payload
    trip(fault, attempt)
    local = Tracer() if traced else None
    with _scope(ctx):
        result = chase(
            instance, mapping.dependencies, variant=variant, tracer=local, limits=limits
        )
    return result, local.export_state() if local is not None else None


def reverse_task(
    payload: Tuple[
        SchemaMapping, Instance, int, bool, bool, Optional[dict], Optional[Limits], Optional[Fault], int
    ]
) -> Tuple[Branches, Optional[TraceState]]:
    """Reverse-chase one target with a disjunctive mapping inside a worker.

    Plain-tgd mappings never get here: ``reverse_many`` routes them
    through ``chase_many``.  ``traced`` works as in :func:`chase_task`.
    """
    mapping, target, max_nulls, minimize, traced, ctx, limits, fault, attempt = payload
    trip(fault, attempt)
    local = Tracer() if traced else None
    with _scope(ctx):
        branches = reverse_disjunctive_chase(
            target,
            mapping.dependencies,
            result_relations=mapping.target.names,
            max_nulls=max_nulls,
            minimize=minimize,
            limits=limits,
            tracer=local,
        )
    return branches, local.export_state() if local is not None else None


def pool_size(jobs: int, items: int, largest: int, process_threshold: int) -> int:
    """Worker processes for a batch, or ``0`` for the serial loop."""
    workers = min(jobs, items)
    if workers <= 1 or (os.cpu_count() or 1) <= 1 or largest < process_threshold:
        return 0
    return workers


def run_batch_isolated(
    payloads: Sequence[tuple],
    fn,
    retries: int = 0,
    deadline: Optional[float] = None,
) -> List[ItemOutcome]:
    """Run *fn* over *payloads* in this process, with per-item isolation.

    Returns one :class:`ItemOutcome` per payload, in payload order; no
    item's failure affects any other item.  Transient failures (see
    :func:`is_transient`) are retried up to *retries* extra attempts,
    resubmitting the payload with its trailing attempt counter bumped.
    *deadline* is a wall-clock duration (seconds) for the whole batch:
    items not started when it passes are reported as deadline-exhausted
    outcomes (a running item stops cooperatively via the deadline in its
    own ``Limits``).
    """
    deadline_at = None if deadline is None else time.monotonic() + deadline

    def expired() -> bool:
        return deadline_at is not None and time.monotonic() >= deadline_at

    outcomes: List[ItemOutcome] = [ItemOutcome(attempts=0) for _ in payloads]
    for index, payload in enumerate(payloads):
        attempt = 1
        started = time.monotonic()
        while True:
            if expired():
                outcomes[index] = ItemOutcome(
                    error=_deadline_error(),
                    attempts=attempt - 1,
                    elapsed=time.monotonic() - started,
                )
                break
            try:
                value = fn(payload)
                outcomes[index] = ItemOutcome(
                    value=value, attempts=attempt, elapsed=time.monotonic() - started
                )
                break
            except Exception as error:
                if is_transient(error) and attempt <= retries and not expired():
                    attempt += 1
                    payload = _rebudgeted(payload, time.monotonic() - started)
                    payload = payload[:-1] + (attempt,)
                    continue
                outcomes[index] = ItemOutcome(
                    error=error, attempts=attempt, elapsed=time.monotonic() - started
                )
                break
    return outcomes
