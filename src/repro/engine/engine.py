"""The :class:`ExchangeEngine` — a cached, parallel exchange session.

Every free-function entry point in the library recomputes from scratch;
the engine is the stateful counterpart that amortizes work across
calls.  It holds content-addressed caches — keyed by ``(mapping digest,
instance digest, options)`` — for chase results, disjunctive-chase
branch sets, homomorphism-existence verdicts, cores, audits, and
reverse certain answers, with size-bounded LRU eviction; and it fans
batch operations out over ``concurrent.futures`` (processes for large
instances, a serial loop below the size threshold).

Because the chase, the disjunctive chase, and ``core`` are
deterministic, caching is semantically transparent: a cache hit returns
exactly the instance the computation would have produced, down to null
names.  The caches are therefore safe to leave on everywhere, and the
module-level default engine (:func:`repro.engine.get_default_engine`)
is wired behind ``SchemaMapping.chase``/``reverse_chase`` so existing
call sites gain caching without changing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as dc_replace
from threading import Lock
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..chase.disjunctive import reverse_disjunctive_chase
from ..chase.standard import ChaseResult, chase
from ..errors import BatchItemError, WorkerKilled
from ..instance import Instance
from ..limits import (
    Exhausted,
    FaultPlan,
    Limits,
    current_fault_plan,
    resolve_limits,
)
from ..logic.dependencies import Tgd
from ..mappings.schema_mapping import SchemaMapping
from ..obs.context import current_context
from ..obs.events import CacheHit, CacheMiss
from ..obs.events import WorkerKilled as WorkerKilledEvent
from ..obs.profile import ChaseProfile, ChaseProfiler
from ..obs.registry import RunRegistry
from ..obs.sinks import OpRecord, OpenMetricsSink, TelemetrySink
from ..obs.tracer import Tracer, current_tracer, maybe_span
from ..store import open_store
from .cache import LRUCache, TieredCache
from .parallel import (
    ItemOutcome,
    chase_task,
    pool_size,
    reverse_task,
    run_batch_isolated,
)
from .supervisor import run_batch_supervised
from .results import (
    AuditReport,
    CacheProvenance,
    ExchangeResult,
    OperationStats,
    ReverseResult,
)

_OPS = ("chase", "reverse", "hom", "core", "audit", "answer")

_ON_ERROR = ("raise", "skip")

#: The disjunctive reverse chase's historical guards, as a ``Limits``
#: base layer (per-call/engine limits are merged on top of it).
_LEGACY_REVERSE = Limits(max_rounds=32, max_branches=10_000, on_exhausted="raise")


@dataclass
class _OpCounters:
    """Per-operation work accounting (compute time only, not hits).

    ``error_wall_time`` attributes the wall clock burned by *failed*
    items (all their attempts) separately from ``wall_time``, so a
    batch where half the items crashed still shows where the time went.
    ``kills`` counts hung pool workers the supervisor had to terminate
    (see :mod:`repro.engine.supervisor`) — including kills on attempts
    that later retried successfully.  ``triggers`` accumulates the
    premise bindings the chase loop enumerated
    (:attr:`~repro.chase.standard.ChaseResult.triggers_considered`) —
    with semi-naive evaluation it grows much slower than naive
    re-matching would.
    """

    calls: int = 0
    wall_time: float = 0.0
    steps: int = 0
    rounds: int = 0
    triggers: int = 0
    branches: int = 0
    errors: int = 0
    error_wall_time: float = 0.0
    kills: int = 0


def _exhausted_tag(exhausted: Optional[Exhausted]) -> Optional[str]:
    """The registry/sink vocabulary for a diagnosis: its resource name."""
    return None if exhausted is None else exhausted.resource


#: The :class:`OpRecord` work fields that ``engine.stats()`` also sums.
_COUNTED = ("steps", "rounds", "triggers", "branches")


def _chase_fields(entry: Tuple[ChaseResult, Instance], sized: bool) -> dict:
    """A chase cache entry's work, as :class:`OpRecord` fields.

    ``facts``/``nulls`` only when *sized*: counting the nulls scans a
    store-backed instance, so only an emitted record pays for it."""
    result = entry[0]
    fields = {
        "rounds": result.rounds,
        "steps": result.steps,
        "triggers": result.triggers_considered,
    }
    if sized:
        fields.update(facts=len(result.instance), nulls=len(result.instance.nulls))
    return fields


def _reverse_fields(candidates: Tuple[Instance, ...], sized: bool) -> dict:
    """A reverse cache entry's work, as :class:`OpRecord` fields."""
    return {"branches": len(candidates)}


class ExchangeEngine:
    """A session object for exchange operations with caching and fan-out.

    Parameters
    ----------
    cache_size:
        Max entries *per operation cache* (LRU eviction past it).
    enable_cache:
        ``False`` degrades every cache to always-miss (``--no-cache``).
    jobs:
        Default worker count for ``chase_many``/``reverse_many`` when
        the call does not pass its own.
    process_threshold:
        Batches whose largest instance has at least this many facts use
        the worker pool; smaller batches run in the serial loop, where
        process start-up and pickling cost more than they save.  There
        is no thread pool: the chase holds the GIL, and threads did not
        reliably beat the serial loop (see :mod:`repro.engine.parallel`).
    tracer:
        An :class:`repro.obs.Tracer` to receive cache hit/miss events,
        spans, and chase provenance.  When ``None`` (the default) the
        ambient tracer (:func:`repro.obs.current_tracer`) is consulted
        per call, so ``with tracing(): engine.chase(...)`` also works.
        Batch operations run each worker under a private tracer and
        merge the per-worker traces on join.
    limits:
        Engine-level default :class:`repro.limits.Limits`; per-call
        ``limits`` merge on top of it (:func:`repro.limits.resolve_limits`).
        ``None`` (the default) keeps the historical unlimited/raise
        behavior.  Results truncated by a budget are tagged
        (``result.exhausted``) and never cached — the caches hold only
        completed, limit-independent results.
    retries:
        Default retry budget for batch items that fail *transiently*
        (injected crash faults, broken pools, OS-level errors).  Budget
        exhaustion is never retried.
    on_error:
        Default per-item failure policy for ``chase_many`` /
        ``reverse_many``: ``"raise"`` (historical — the first failure
        propagates) or ``"skip"`` (each failed item resolves to a
        :class:`repro.errors.BatchItemError` in its input position and
        the rest of the batch completes).
    sink:
        A :class:`repro.obs.TelemetrySink` (JSONL, OpenMetrics, or a
        :class:`repro.obs.MultiSink` fan-out) that receives one
        :class:`repro.obs.OpRecord` per operation — including per-item
        records for batch operations, and error records for failed
        compute.  ``None`` (the default) keeps the telemetry path at a
        pair of attribute reads per op.
    registry:
        A :class:`repro.obs.RunRegistry` — the persistent SQLite run
        history — that receives the same per-op records.  Sink and
        registry are independent: either, both, or neither.
    store:
        Backend spec for the SQL-chase working store (the CLI's
        ``--store`` values): ``"memory"`` (default; the SQL chase, when
        enabled, still runs in an in-memory SQLite database),
        ``"sqlite"`` / ``"sqlite:<path>"``, or ``"duckdb"`` /
        ``"duckdb:<path>"`` (optional dependency) to spill the chase to
        disk.  A path-based store is scratch space: it is recreated
        (``fresh=True``) for every operation that uses it.
    sql_chase:
        ``True`` switches :meth:`exchange` to the set-at-a-time SQL
        plan compiler (:func:`repro.store.sql_chase`) whenever the
        mapping is non-disjunctive and the variant is ``restricted``;
        dependencies outside the compilable fragment fall back to
        tuple-at-a-time per round.  Results are hom-equivalent to the
        in-memory chase (identical for full tgds), so SQL-chased
        results are cached under a distinct key tag.
    sql_jobs:
        Shard count for SQL-chase rounds (default 1, serial).  Values
        above 1 partition each round's trigger queries by
        ``rowid % sql_jobs`` and evaluate the shards on a thread pool
        over per-shard reader connections; output is fact-for-fact
        identical to serial, so results share the same cache entries.
    disk_cache:
        A persistent backing cache layered **under** every in-memory
        LRU: a :class:`repro.service.DiskCache` (or any object with
        its ``get``/``put`` surface), or a directory path to open one
        at.  Reads fall through memory to disk and promote on hit;
        writes go to both tiers; partial (exhausted) results are still
        never cached.  Because every cache key is a content digest,
        entries persist correctly across processes and restarts — this
        is what lets ``repro serve`` answer from disk on its first
        request after a restart.  Ignored when ``enable_cache`` is
        ``False``.
    profile:
        ``True`` attaches a :class:`repro.obs.ChaseProfiler` to every
        single-item chase and reverse chase, collecting per-dependency
        × per-round attribution (self time, triggers considered/fired,
        facts, nulls).  The resulting :class:`repro.obs.ChaseProfile`
        is exposed as :attr:`last_profile` after each computed
        operation (``None`` after cache hits) and persisted as a JSON
        summary in the registry row's ``metrics`` payload.  Profiling
        never changes chase output — the profiled instance is
        byte-identical to the unprofiled one.
    """

    def __init__(
        self,
        cache_size: int = 512,
        enable_cache: bool = True,
        jobs: Optional[int] = None,
        process_threshold: int = 200,
        tracer: Optional[Tracer] = None,
        limits: Optional[Limits] = None,
        retries: int = 0,
        on_error: str = "raise",
        sink: Optional[TelemetrySink] = None,
        registry: Optional[RunRegistry] = None,
        store: str = "memory",
        sql_chase: bool = False,
        sql_jobs: int = 1,
        disk_cache=None,
        profile: bool = False,
    ) -> None:
        if on_error not in _ON_ERROR:
            raise ValueError(
                f"on_error must be one of {_ON_ERROR}, got {on_error!r}"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries!r}")
        if store != "memory" and not store.startswith(("sqlite", "duckdb")):
            raise ValueError(
                f"unknown store spec {store!r}; expected 'memory', "
                "'sqlite[:<path>]', or 'duckdb[:<path>]'"
            )
        if sql_jobs < 1:
            raise ValueError(f"sql_jobs must be >= 1, got {sql_jobs!r}")
        size = cache_size if enable_cache else 0
        self.disk_cache = None
        if disk_cache is not None and enable_cache:
            if isinstance(disk_cache, str):
                from ..service.diskcache import DiskCache

                disk_cache = DiskCache(disk_cache)
            self.disk_cache = disk_cache
        if self.disk_cache is not None:
            self._caches: Dict[str, LRUCache] = {
                op: TieredCache(LRUCache(size), self.disk_cache, op)
                for op in _OPS
            }
        else:
            self._caches = {op: LRUCache(size) for op in _OPS}
        self._ops: Dict[str, _OpCounters] = {op: _OpCounters() for op in _OPS}
        self._ops_lock = Lock()
        self.jobs = jobs
        self.process_threshold = process_threshold
        self.tracer = tracer
        self.limits = limits
        self.retries = retries
        self.on_error = on_error
        self.sink = sink
        self.registry = registry
        self.store_spec = store
        self.sql_chase = sql_chase
        self.sql_jobs = sql_jobs
        self.profile = profile
        self.last_profile: Optional[ChaseProfile] = None
        self._clock = time.perf_counter

    def _tracer(self) -> Optional[Tracer]:
        """The effective tracer for this call (own, else ambient)."""
        if self.tracer is not None:
            return self.tracer if self.tracer.enabled else None
        return current_tracer()

    @staticmethod
    def _cache_event(
        tracer: Optional[Tracer], op: str, key: tuple, hit: bool
    ) -> None:
        if tracer is not None:
            key_id = ExchangeEngine._key_id(key)
            tracer.emit(
                CacheHit(op=op, key=key_id) if hit else CacheMiss(op=op, key=key_id)
            )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _record(
        self,
        op: str,
        wall_time: float = 0.0,
        steps: int = 0,
        rounds: int = 0,
        triggers: int = 0,
        branches: int = 0,
        calls: int = 1,
        errors: int = 0,
        error_wall_time: float = 0.0,
        kills: int = 0,
    ) -> None:
        with self._ops_lock:
            counters = self._ops[op]
            counters.calls += calls
            counters.wall_time += wall_time
            counters.steps += steps
            counters.rounds += rounds
            counters.triggers += triggers
            counters.branches += branches
            counters.errors += errors
            counters.error_wall_time += error_wall_time
            counters.kills += kills

    def _count(self, op: str, hit: bool, wall_time: float = 0.0, **work) -> None:
        """Count one completed operation: a cache hit adds only its call,
        a computed one also its wall time and the counted *work* fields."""
        if hit:
            self._record(op, calls=1)
        else:
            self._record(
                op,
                wall_time=wall_time,
                **{name: work[name] for name in _COUNTED if name in work},
            )

    def _failed(
        self, op: str, key: tuple, error: BaseException, wall_time: float, **batch
    ) -> None:
        """Count one failed computation and emit its error record."""
        self._record(op, calls=1, errors=1, error_wall_time=wall_time)
        self._emit_op(op, key, wall_time, error=error, **batch)

    def _emit_op(
        self,
        op: str,
        key: tuple,
        wall_time: float,
        exhausted: Optional[Exhausted] = None,
        error: Optional[BaseException] = None,
        profile: Optional[ChaseProfile] = None,
        **fields,
    ) -> None:
        """Emit the :class:`OpRecord` of one chase or reverse operation.

        Single and batch operations, computed, cached and failed, all
        build their record here; a failure takes its budget diagnosis,
        if any, from the exception, and a *profile* rides along in the
        registry row.  A no-op without telemetry.
        """
        if not self._telemetry:
            return
        if error is not None:
            exhausted = getattr(error, "diagnosis", None)
        metrics = None if profile is None else {"profile": profile.to_summary()}
        self._emit(
            OpRecord(
                op=op,
                mapping_digest=key[1],
                instance_digest=key[2],
                wall_time=wall_time,
                exhausted=_exhausted_tag(exhausted),
                error=None if error is None else type(error).__name__,
                **fields,
            ),
            metrics=metrics,
        )

    @property
    def _telemetry(self) -> bool:
        """Is any sink or registry configured?  (The off-path guard.)"""
        return self.sink is not None or self.registry is not None

    def _emit(
        self, record: OpRecord, metrics: Optional[dict] = None
    ) -> None:
        """Flush one operation record to the sink and the registry.

        Records that do not already carry a trace/request id are
        stamped with the ambient :class:`repro.obs.context.TraceContext`
        here — the one choke point every operation's telemetry flows
        through — so CLI- and service-originated records correlate to
        their request without each call site repeating the lookup.
        *metrics* (the profile summary, stitched spans, …) rides only
        the registry row's JSON payload, never the sink stream.
        """
        if not record.trace_id:
            context = current_context()
            if context is not None:
                record = dc_replace(
                    record,
                    trace_id=context.trace_id,
                    request_id=context.request_id,
                )
        if self.sink is not None:
            self.sink.record(record)
        if self.registry is not None:
            self.registry.record(record, metrics=metrics)

    def close_telemetry(self) -> None:
        """Flush and close the configured sink and registry (idempotent).

        An :class:`repro.obs.OpenMetricsSink` absorbs the effective
        tracer's metrics registry first, so span-duration histograms
        and event counters land in the same exposition file as the
        per-op counters.
        """
        tracer = self._tracer()
        if tracer is not None and isinstance(self.sink, OpenMetricsSink):
            self.sink.extra = tracer.metrics
        if self.sink is not None:
            self.sink.close()
        if self.registry is not None:
            self.registry.close()

    @staticmethod
    def _key_id(key: tuple) -> str:
        """A compact human-readable rendering of a cache key."""
        return ":".join(
            part[:12] if isinstance(part, str) and len(part) > 12 else str(part)
            for part in key
        )

    # ------------------------------------------------------------------
    # Forward exchange
    # ------------------------------------------------------------------

    def exchange(
        self,
        mapping: SchemaMapping,
        source: Instance,
        variant: str = "restricted",
        limits: Optional[Limits] = None,
    ) -> ExchangeResult:
        """``chase_M(I)`` as a normalized :class:`ExchangeResult`.

        *limits* merges over the engine's default limits.  The cache key
        deliberately excludes limits: a chase that *completes* under a
        budget is identical to the unlimited chase (determinism), so a
        cached completed result is correct for every budget; partial
        (exhausted) results are returned tagged but never cached.

        With ``sql_chase=True`` on the engine, non-disjunctive
        restricted chases compile to SQL plans executed in a SQLite
        store (see :mod:`repro.store.sqlplan`); null *names* may then
        differ from the tuple-at-a-time result, so those entries cache
        under a ``"sql"``-tagged key and never alias tuple-chase
        results.
        """
        effective = resolve_limits(limits, self.limits)
        use_sql = (
            self.sql_chase
            and variant == "restricted"
            and all(isinstance(dep, Tgd) for dep in mapping.dependencies)
        )
        key = ("chase", mapping.digest(), source.digest(), variant)
        if use_sql:
            key = key + ("sql",)
        tracer = self._tracer()
        hit, entry = self._caches["chase"].get(key)
        self._cache_event(tracer, "chase", key, hit)
        elapsed = 0.0
        self.last_profile = None
        profiler = (
            ChaseProfiler() if self.profile and not use_sql and not hit else None
        )
        if not hit:
            start = self._clock()
            try:
                with maybe_span(tracer, "engine.chase", key=self._key_id(key)):
                    if use_sql:
                        result = self._sql_chase_result(
                            mapping, source, tracer, effective
                        )
                    else:
                        result = chase(
                            source,
                            mapping.dependencies,
                            variant=variant,
                            tracer=tracer,
                            limits=effective,
                            profiler=profiler,
                        )
            except Exception as error:
                self._failed("chase", key, error, self._clock() - start)
                raise
            restricted = result.restricted_to(mapping.target.names)
            elapsed = self._clock() - start
            entry = (result, restricted)
            if result.exhausted is None:
                self._caches["chase"].put(key, entry)
            if profiler is not None:
                self.last_profile = profiler.profile(total_time=elapsed)
        exhausted = entry[0].exhausted
        fields = _chase_fields(entry, self._telemetry)
        self._count("chase", hit, elapsed, **fields)
        self._emit_op(
            "chase",
            key,
            elapsed,
            exhausted=exhausted,
            profile=self.last_profile,
            cache_hit=hit,
            **fields,
        )
        return self._exchange_result(key, entry, hit, exhausted, elapsed)

    def _exchange_result(
        self,
        key: tuple,
        entry: Tuple[ChaseResult, Instance],
        hit: bool,
        exhausted: Optional[Exhausted],
        elapsed: float = 0.0,
    ) -> ExchangeResult:
        """A chase cache entry as the caller-facing :class:`ExchangeResult`."""
        result, restricted = entry
        return ExchangeResult(
            instance=restricted,
            full=result.instance,
            generated=frozenset(result.generated),
            stats=OperationStats(
                elapsed,
                result.steps,
                result.rounds,
                triggers_considered=result.triggers_considered,
                delta_sizes=result.delta_sizes,
            ),
            provenance=CacheProvenance(self._key_id(key), hit),
            exhausted=exhausted,
        )

    def _sql_chase_result(
        self,
        mapping: SchemaMapping,
        source: Instance,
        tracer: Optional[Tracer],
        effective: Limits,
    ) -> ChaseResult:
        """Run the set-at-a-time SQL chase and adapt it to a ChaseResult.

        The working store is scratch state: a ``memory`` engine spec
        still chases inside an in-memory SQLite database (the compiler
        needs SQL), and path-based specs get a ``.chase`` scratch
        suffix recreated fresh per operation — the input instances may
        live at the spec path itself, and ``fresh=True`` drops tables.
        """
        from ..store.sqlplan import sql_chase

        spec = self.store_spec
        backend, _, path = spec.partition(":")
        if backend == "memory":
            backend = "sqlite"
        if path:
            store = open_store(f"{backend}:{path}.chase", fresh=True)
        else:
            store = open_store(backend)
        store.add_all(source.facts)
        sqlres = sql_chase(
            store,
            mapping.dependencies,
            tracer=tracer,
            limits=effective,
            jobs=self.sql_jobs,
        )
        full = sqlres.instance
        return ChaseResult(
            instance=full,
            generated=frozenset(full.facts - source.facts),
            steps=sqlres.steps,
            rounds=sqlres.rounds,
            exhausted=sqlres.exhausted,
            delta_sizes=sqlres.delta_sizes,
            triggers_considered=sqlres.triggers_considered,
        )

    def chase(
        self,
        mapping: SchemaMapping,
        source: Instance,
        variant: str = "restricted",
        limits: Optional[Limits] = None,
    ) -> Instance:
        """The target restriction of the chased instance (facade shape)."""
        return self.exchange(mapping, source, variant=variant, limits=limits).instance

    def _run_batch(
        self,
        payloads: Sequence[tuple],
        fn,
        workers: int,
        largest: int,
        retries: int,
        effective: Optional[Limits],
    ) -> List[ItemOutcome]:
        """Dispatch one batch of payloads to the right runner.

        A batch runs on the serial loop (:func:`run_batch_isolated`) or
        on the supervised worker pool
        (:func:`repro.engine.supervisor.run_batch_supervised`).  When
        the effective limits arm supervision — both ``grace`` and
        ``deadline`` set — the batch always uses the pool, even one the
        size policy would keep on the serial loop, since only a separate
        process can be killed: a worker whose heartbeat goes silent past
        the grace period is terminated and its slot respawned.
        Otherwise :func:`pool_size` picks, and the pool never kills.

        The supervised batch deadline is ``deadline + (1 + retries) *
        grace``: the extra grace periods are the supervisor's own
        escalation overhead (detecting the stall, terminating the
        worker, giving each permitted retry its turn), not time the
        items get to spend.  Without the headroom a kill — which by
        construction lands *after* the cooperative deadline — would
        always find the batch already stopped and the documented
        retry-with-remaining-deadline path could never run.
        """
        deadline = effective.deadline if effective is not None else None
        grace = effective.grace if effective is not None else None
        if grace is not None and deadline is not None:
            workers = max(1, workers)
            deadline += (1 + retries) * grace
        else:
            grace = None
            workers = pool_size(
                workers, len(payloads), largest, self.process_threshold
            )
        if workers:
            return run_batch_supervised(
                payloads, fn, workers, retries, deadline=deadline, grace=grace
            )
        return run_batch_isolated(payloads, fn, retries=retries, deadline=deadline)

    def _note_kills(
        self, tracer: Optional[Tracer], op: str, outcome: ItemOutcome, index: int
    ) -> None:
        """Account one batch item's worker kills (stats + trace event)."""
        if not outcome.kills:
            return
        self._record(op, calls=0, kills=outcome.kills)
        if tracer is not None:
            context = current_context()
            tracer.emit(
                WorkerKilledEvent(
                    op=op,
                    batch_index=index,
                    kills=outcome.kills,
                    pid=getattr(outcome.error, "pid", None),
                    final=not outcome.ok,
                    trace_id=context.trace_id if context is not None else "",
                    request_id=context.request_id if context is not None else "",
                )
            )

    def chase_many(
        self,
        mapping: SchemaMapping,
        instances: Iterable[Instance],
        jobs: Optional[int] = None,
        variant: str = "restricted",
        limits: Optional[Limits] = None,
        on_error: Optional[str] = None,
        retries: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
    ) -> List[object]:
        """Chase a batch of source instances, deduplicated and fanned out.

        Content-addressed dedup runs first — structurally identical
        instances (and anything already cached) are chased once — then
        the remaining unique work goes to a process pool or the serial
        loop per the size policy.  Results come back in input order and
        are fact-for-fact identical to the serial path.

        Items are **fault isolated**: one item failing does not abandon
        the batch.  Under ``on_error="skip"`` each failed item resolves
        to a :class:`repro.errors.BatchItemError` in its input position
        (so the list mixes :class:`ExchangeResult` and error objects);
        under ``"raise"`` (the historical default) the remaining items
        still complete and cache, then the first failure propagates.
        Transient failures retry up to *retries* extra attempts.  A
        deadline in *limits* bounds the whole batch: unfinished items
        come back as deadline-exhausted errors, finished ones survive.
        *faults* (default: the ambient :func:`repro.limits.inject_faults`
        plan) injects deterministic failures by batch index for tests —
        deduplicated items take the fault of their first occurrence.
        """
        mapping_digest = mapping.digest()
        names = mapping.target.names

        def settle(result: ChaseResult):
            return (result, result.restricted_to(names)), result.exhausted

        return self._batch(
            "chase",
            instances,
            key=lambda inst: ("chase", mapping_digest, inst.digest(), variant),
            head=lambda inst: (mapping, inst, variant),
            task=chase_task,
            limits=resolve_limits(limits, self.limits),
            settle=settle,
            fields=_chase_fields,
            build=self._exchange_result,
            jobs=jobs,
            on_error=on_error,
            retries=retries,
            faults=faults,
        )

    def _batch(
        self,
        op: str,
        items: Iterable[Instance],
        key: Callable[[Instance], tuple],
        head: Callable[[Instance], tuple],
        task: Callable[[tuple], tuple],
        limits: Optional[Limits],
        settle: Callable[[object], Tuple[object, Optional[Exhausted]]],
        fields: Callable[[object, bool], dict],
        build: Callable[[tuple, object, bool, Optional[Exhausted]], object],
        jobs: Optional[int],
        on_error: Optional[str],
        retries: Optional[int],
        faults: Optional[FaultPlan],
    ) -> List[object]:
        """Dedup, cache probe, fan-out and reassembly for one batch op.

        The sequence behind :meth:`chase_many` and :meth:`reverse_many`.
        Each caller supplies what differs between its operations: an
        item's cache *key*; the *head* of its task payload (the routine
        appends ``(traced, ctx, limits, fault, attempt)``); how *settle*
        turns a task value into a cache entry and its budget diagnosis;
        an entry's :class:`OpRecord` work *fields* (sized only when a
        record is emitted); and how *build* turns ``(key, entry, hit,
        exhausted)`` into the item's result.

        Every unique item emits one record — cache hit, computed or
        failed — stamped with the batch index of its first occurrence;
        in-batch duplicates fold into that occurrence.
        """
        policy = on_error if on_error is not None else self.on_error
        if policy not in _ON_ERROR:
            raise ValueError(f"on_error must be one of {_ON_ERROR}, got {policy!r}")
        retry_budget = retries if retries is not None else self.retries
        plan = faults if faults is not None else current_fault_plan()
        workers = jobs if jobs is not None else (self.jobs or 1)
        items = list(items)
        tracer = self._tracer()
        cache = self._caches[op]
        keys = [key(item) for item in items]
        resolved: Dict[tuple, Tuple[object, bool, Optional[Exhausted]]] = {}
        failed: Dict[tuple, ItemOutcome] = {}
        pending: Dict[tuple, Tuple[Instance, int]] = {}
        for index, (item_key, item) in enumerate(zip(keys, items)):
            if item_key in resolved or item_key in pending:
                continue
            hit, entry = cache.get(item_key)
            self._cache_event(tracer, op, item_key, hit)
            if hit:
                resolved[item_key] = (entry, True, None)
                work = fields(entry, self._telemetry)
                self._count(op, True, **work)
                self._emit_op(
                    op, item_key, 0.0, cache_hit=True, batch_index=index, **work
                )
            else:
                pending[item_key] = (item, index)
        if pending:
            context = current_context()
            ctx = context.to_dict() if context is not None else None
            payloads = [
                head(item)
                + (
                    tracer is not None,
                    ctx,
                    limits,
                    plan.for_item(first) if plan else None,
                    1,
                )
                for item, first in pending.values()
            ]
            start = self._clock()
            with maybe_span(
                tracer, f"engine.{op}_many", items=len(pending)
            ) as batch_span:
                outcomes = self._run_batch(
                    payloads,
                    task,
                    workers,
                    max(len(item) for item, _ in pending.values()),
                    retry_budget,
                    limits,
                )
            elapsed = self._clock() - start
            for (item_key, (_item, first)), outcome in zip(pending.items(), outcomes):
                self._note_kills(tracer, op, outcome, first)
                batch = {
                    "batch_index": first,
                    "attempts": max(outcome.attempts, 1),
                    "kills": outcome.kills,
                }
                if not outcome.ok:
                    failed[item_key] = outcome
                    self._failed(op, item_key, outcome.error, outcome.elapsed, **batch)
                    continue
                value, state = outcome.value
                if state is not None:
                    tracer.absorb(
                        state,
                        parent_id=(
                            batch_span.span_id if batch_span is not None else None
                        ),
                    )
                entry, exhausted = settle(value)
                if exhausted is None:
                    cache.put(item_key, entry)
                resolved[item_key] = (entry, False, exhausted)
                work = fields(entry, self._telemetry)
                self._count(op, False, **work)
                self._emit_op(
                    op, item_key, outcome.elapsed, exhausted=exhausted, **work, **batch
                )
            self._record(op, wall_time=elapsed, calls=0)
            if failed and policy == "raise":
                raise next(iter(failed.values())).error
        out: List[object] = []
        for index, item_key in enumerate(keys):
            outcome = failed.get(item_key)
            if outcome is None:
                out.append(build(item_key, *resolved[item_key]))
                continue
            out.append(
                BatchItemError(
                    index=index,
                    op=op,
                    error=outcome.error,
                    attempts=max(outcome.attempts, 1),
                    elapsed=outcome.elapsed,
                    kind="killed" if isinstance(outcome.error, WorkerKilled) else None,
                )
            )
        return out

    # ------------------------------------------------------------------
    # Reverse exchange
    # ------------------------------------------------------------------

    def _reverse_limits(self, limits: Optional[Limits]) -> Limits:
        """The disjunctive reverse chase's effective limits: the legacy
        guards (32 rounds/branch, 10,000 worlds, raise) as the base,
        engine-level and per-call limits layered on top."""
        return _LEGACY_REVERSE.merge(resolve_limits(limits, self.limits))

    def _reverse_branches(
        self,
        mapping: SchemaMapping,
        target: Instance,
        max_nulls: int,
        minimize: bool,
        limits: Optional[Limits] = None,
    ) -> Tuple[bool, tuple, Tuple[Instance, ...], Optional[Exhausted]]:
        """The cached disjunctive-chase branch set of one target."""
        key = ("reverse", mapping.digest(), target.digest(), max_nulls, minimize)
        tracer = self._tracer()
        hit, candidates = self._caches["reverse"].get(key)
        self._cache_event(tracer, "reverse", key, hit)
        exhausted: Optional[Exhausted] = None
        elapsed = 0.0
        self.last_profile = None
        profiler = ChaseProfiler() if self.profile and not hit else None
        if not hit:
            start = self._clock()
            try:
                with maybe_span(tracer, "engine.reverse", key=self._key_id(key)):
                    branches = reverse_disjunctive_chase(
                        target,
                        mapping.dependencies,
                        result_relations=mapping.target.names,
                        max_nulls=max_nulls,
                        minimize=minimize,
                        limits=self._reverse_limits(limits),
                        tracer=tracer,
                        profiler=profiler,
                    )
            except Exception as error:
                self._failed("reverse", key, error, self._clock() - start)
                raise
            candidates = tuple(branches)
            exhausted = branches.exhausted
            elapsed = self._clock() - start
            if exhausted is None:
                self._caches["reverse"].put(key, candidates)
            if profiler is not None:
                self.last_profile = profiler.profile(total_time=elapsed)
        fields = _reverse_fields(candidates, self._telemetry)
        if self.last_profile is not None:
            fields["triggers"] = self.last_profile.triggers_considered
        self._count("reverse", hit, elapsed, **fields)
        self._emit_op(
            "reverse",
            key,
            elapsed,
            exhausted=exhausted,
            profile=self.last_profile,
            cache_hit=hit,
            **fields,
        )
        return hit, key, candidates, exhausted

    def reverse(
        self,
        reverse_mapping: SchemaMapping,
        target: Instance,
        max_nulls: int = 8,
        minimize: bool = True,
        take_core: bool = False,
        limits: Optional[Limits] = None,
    ) -> ReverseResult:
        """Materialize candidate source instances from a target instance.

        Plain-tgd reverse mappings use the (cached) standard chase — one
        candidate; disjunctive ones use the (cached) quotient-branching
        reverse chase.  With *take_core* every candidate is folded to
        its core through the core cache.  *limits* governs the run as in
        :meth:`exchange`; a truncated branch enumeration comes back
        tagged (``result.exhausted``) and uncached.
        """
        if reverse_mapping.is_disjunctive() or reverse_mapping.uses_inequality():
            hit, key, candidates, exhausted = self._reverse_branches(
                reverse_mapping, target, max_nulls, minimize, limits
            )
            provenance = CacheProvenance(self._key_id(key), hit)
        else:
            forward = self.exchange(reverse_mapping, target, limits=limits)
            candidates = (forward.instance,)
            provenance, exhausted = forward.provenance, forward.exhausted
        return self._reverse_result(candidates, provenance, exhausted, take_core)

    def _reverse_result(
        self,
        candidates: Tuple[Instance, ...],
        provenance: CacheProvenance,
        exhausted: Optional[Exhausted],
        take_core: bool,
    ) -> ReverseResult:
        """Candidate sources as the caller-facing :class:`ReverseResult`.

        An empty branch set reads as the empty instance; *take_core*
        folds every candidate to its core through the core cache."""
        if not candidates:
            candidates = (Instance(),)
        if take_core:
            candidates = tuple(self.core(candidate) for candidate in candidates)
        return ReverseResult(
            candidates=candidates,
            canonical=candidates[0],
            stats=OperationStats(branches=len(candidates)),
            provenance=provenance,
            exhausted=exhausted,
        )

    def reverse_chase(
        self,
        mapping: SchemaMapping,
        target: Instance,
        max_nulls: int = 8,
        minimize: bool = True,
        limits: Optional[Limits] = None,
    ) -> List[Instance]:
        """The raw branch list of the quotient-branching reverse chase.

        Unlike :meth:`reverse`, it branches even for plain-tgd mappings
        and returns the candidates with no result wrapper, which the
        faithfulness and information-loss checks rely on."""
        _, _, candidates, _ = self._reverse_branches(
            mapping, target, max_nulls, minimize, limits
        )
        return list(candidates)

    def reverse_many(
        self,
        reverse_mapping: SchemaMapping,
        targets: Iterable[Instance],
        jobs: Optional[int] = None,
        max_nulls: int = 8,
        minimize: bool = True,
        take_core: bool = False,
        limits: Optional[Limits] = None,
        on_error: Optional[str] = None,
        retries: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
    ) -> List[object]:
        """Reverse a batch of target instances (dedup + fan-out).

        Plain-tgd reverse mappings route through :meth:`chase_many`, so
        the chase cache stays coherent with the serial path; disjunctive
        ones dedupe on the reverse cache and fan the quotient-branching
        chase out per unique target.  Fault isolation, retries, the
        batch deadline, and fault injection behave exactly as in
        :meth:`chase_many` (under ``on_error="skip"`` failed items
        resolve to :class:`repro.errors.BatchItemError`, ``op="reverse"``).
        """
        if not (reverse_mapping.is_disjunctive() or reverse_mapping.uses_inequality()):
            forward = self.chase_many(
                reverse_mapping,
                targets,
                jobs=jobs,
                limits=limits,
                on_error=on_error,
                retries=retries,
                faults=faults,
            )
            return [
                BatchItemError(
                    index=item.index,
                    op="reverse",
                    error=item.error,
                    attempts=item.attempts,
                    diagnosis=item.diagnosis,
                    elapsed=item.elapsed,
                    kind=item.kind,
                )
                if isinstance(item, BatchItemError)
                else self._reverse_result(
                    (item.instance,), item.provenance, item.exhausted, take_core
                )
                for item in forward
            ]
        mapping_digest = reverse_mapping.digest()

        def build(key, candidates, hit, exhausted):
            provenance = CacheProvenance(self._key_id(key), hit)
            return self._reverse_result(candidates, provenance, exhausted, take_core)

        return self._batch(
            "reverse",
            targets,
            key=lambda target: (
                "reverse",
                mapping_digest,
                target.digest(),
                max_nulls,
                minimize,
            ),
            head=lambda target: (reverse_mapping, target, max_nulls, minimize),
            task=reverse_task,
            limits=self._reverse_limits(limits),
            settle=lambda branches: (tuple(branches), branches.exhausted),
            fields=_reverse_fields,
            build=build,
            jobs=jobs,
            on_error=on_error,
            retries=retries,
            faults=faults,
        )

    # ------------------------------------------------------------------
    # Homomorphisms and cores
    # ------------------------------------------------------------------

    def is_homomorphic(self, left: Instance, right: Instance) -> bool:
        """Cached homomorphism-existence verdict ``left → right``."""
        key = (left.digest(), right.digest())
        tracer = self._tracer()
        hit, verdict = self._caches["hom"].get(key)
        self._cache_event(tracer, "hom", key, hit)
        elapsed = 0.0
        if not hit:
            from ..homs.search import is_homomorphic

            start = self._clock()
            with maybe_span(tracer, "engine.hom"):
                verdict = is_homomorphic(left, right)
            elapsed = self._clock() - start
            self._caches["hom"].put(key, verdict)
        self._count("hom", hit, elapsed)
        if self._telemetry:
            self._emit(
                OpRecord(
                    op="hom",
                    instance_digest=key[0],
                    wall_time=elapsed,
                    cache_hit=hit,
                )
            )
        return verdict

    def is_hom_equivalent(self, left: Instance, right: Instance) -> bool:
        """Cached homomorphic equivalence (both directions)."""
        return self.is_homomorphic(left, right) and self.is_homomorphic(right, left)

    def core(self, instance: Instance) -> Instance:
        """The cached core of *instance*."""
        key = (instance.digest(),)
        tracer = self._tracer()
        hit, folded = self._caches["core"].get(key)
        self._cache_event(tracer, "core", key, hit)
        elapsed = 0.0
        if not hit:
            from ..homs.core import core

            start = self._clock()
            with maybe_span(tracer, "engine.core"):
                folded = core(instance)
            elapsed = self._clock() - start
            self._caches["core"].put(key, folded)
        self._count("core", hit, elapsed)
        if self._telemetry:
            self._emit(
                OpRecord(
                    op="core",
                    instance_digest=key[0],
                    wall_time=elapsed,
                    cache_hit=hit,
                    facts=len(folded),
                    nulls=len(folded.nulls),
                )
            )
        return folded

    # ------------------------------------------------------------------
    # Audits and reverse query answering
    # ------------------------------------------------------------------

    def audit(
        self, mapping: SchemaMapping, reverse: Optional[SchemaMapping] = None
    ) -> AuditReport:
        """Invertibility audit of a mapping, cached by mapping digest.

        Checks ground invertibility, extended invertibility, and (when
        a candidate is given) the chase-inverse property."""
        key = (
            "audit",
            mapping.digest(),
            reverse.digest() if reverse is not None else "",
        )
        tracer = self._tracer()
        hit, entry = self._caches["audit"].get(key)
        self._cache_event(tracer, "audit", key, hit)
        elapsed = 0.0
        if not hit:
            from ..inverses.extended_inverse import (
                is_chase_inverse,
                is_extended_invertible,
            )
            from ..inverses.ground import is_invertible

            start = self._clock()
            with maybe_span(tracer, "engine.audit"):
                entry = (
                    is_invertible(mapping),
                    is_extended_invertible(mapping),
                    is_chase_inverse(mapping, reverse)
                    if reverse is not None
                    else None,
                )
            elapsed = self._clock() - start
            self._caches["audit"].put(key, entry)
        self._count("audit", hit, elapsed)
        if self._telemetry:
            self._emit(
                OpRecord(
                    op="audit",
                    mapping_digest=key[1],
                    wall_time=elapsed,
                    cache_hit=hit,
                )
            )
        invertible, extended, chase_inverse = entry
        return AuditReport(
            invertible=invertible,
            extended_invertible=extended,
            chase_inverse=chase_inverse,
            provenance=CacheProvenance(self._key_id(key), hit),
        )

    def answer(
        self,
        mapping: SchemaMapping,
        recovery: SchemaMapping,
        query,
        source: Instance,
        max_nulls: int = 8,
    ) -> FrozenSet[Tuple]:
        """Reverse certain answers (Theorem 6.5) through the caches.

        The forward chase and the reverse branch set both come from the
        engine's caches, so repeated queries over the same exchange pay
        only the final intersection; the answer set itself is cached on
        top of that.
        """
        key = (
            "answer",
            mapping.digest(),
            recovery.digest(),
            str(query),
            source.digest(),
            max_nulls,
        )
        tracer = self._tracer()
        hit, answers = self._caches["answer"].get(key)
        self._cache_event(tracer, "answer", key, hit)
        elapsed = 0.0
        if not hit:
            from ..logic.queries import certain_answers_over_set

            start = self._clock()
            with maybe_span(tracer, "engine.answer"):
                target = self.chase(mapping, source)
                branches = self.reverse(
                    recovery, target, max_nulls=max_nulls
                ).candidates
                answers = certain_answers_over_set(query, branches)
            elapsed = self._clock() - start
            self._caches["answer"].put(key, answers)
        self._count("answer", hit, elapsed)
        if self._telemetry:
            self._emit(
                OpRecord(
                    op="answer",
                    mapping_digest=key[1],
                    instance_digest=key[4],
                    wall_time=elapsed,
                    cache_hit=hit,
                )
            )
        return answers

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-operation counters as a nested plain dict.

        Covers cache hits/misses/evictions, live entries, compute wall
        time, and chase work (steps, rounds, triggers, branches), plus
        a ``totals`` roll-up.

        When a tracer is attached (or ambient), its metrics registry is
        merged in under the ``"tracer"`` key — event counts by kind and
        span duration histograms alongside the cache counters."""
        report: Dict[str, Dict[str, float]] = {}
        totals = {
            "calls": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "wall_time": 0.0,
            "steps": 0,
            "rounds": 0,
            "triggers": 0,
            "branches": 0,
            "errors": 0,
            "error_wall_time": 0.0,
            "kills": 0,
        }
        for op in _OPS:
            cache = self._caches[op]
            counters = self._ops[op]
            row = {
                "calls": counters.calls,
                **cache.stats.as_dict(),
                "entries": len(cache),
                "wall_time": round(counters.wall_time, 6),
                "steps": counters.steps,
                "rounds": counters.rounds,
                "triggers": counters.triggers,
                "branches": counters.branches,
                "errors": counters.errors,
                "error_wall_time": round(counters.error_wall_time, 6),
                "kills": counters.kills,
            }
            report[op] = row
            totals["calls"] += counters.calls
            totals["hits"] += cache.stats.hits
            totals["misses"] += cache.stats.misses
            totals["evictions"] += cache.stats.evictions
            totals["wall_time"] = round(totals["wall_time"] + counters.wall_time, 6)
            totals["steps"] += counters.steps
            totals["rounds"] += counters.rounds
            totals["triggers"] += counters.triggers
            totals["branches"] += counters.branches
            totals["errors"] += counters.errors
            totals["error_wall_time"] = round(
                totals["error_wall_time"] + counters.error_wall_time, 6
            )
            totals["kills"] += counters.kills
        report["totals"] = totals
        tracer = self._tracer()
        if tracer is not None:
            report["tracer"] = tracer.metrics.as_dict()
        return report

    @staticmethod
    def _hit_rate(hits: float, calls: float) -> str:
        """Hit percentage as text; ``-`` for ops never called (no 0/0)."""
        if calls <= 0:
            return "-"
        return f"{100.0 * hits / calls:.0f}%"

    @staticmethod
    def _ms_per_call(wall_time: float, misses: float) -> str:
        """Mean compute ms per miss; ``-`` when nothing was computed."""
        if misses <= 0:
            return "-"
        return f"{1000.0 * wall_time / misses:.2f}"

    def render_stats(self) -> str:
        """The stats table as printable text (the CLI's ``--stats``).

        Derived columns (hit rate, mean compute ms per miss) render as
        ``-`` for operations with zero recorded calls rather than
        dividing by zero, and the totals row carries every column so
        the table stays aligned whatever subset of ops actually ran.
        """
        report = self.stats()
        lines = ["engine stats:"]
        header = (
            f"  {'op':<8} {'calls':>6} {'hits':>6} {'misses':>7} {'hit%':>6} "
            f"{'evict':>6} {'entries':>8} {'wall(s)':>10} {'ms/call':>8} "
            f"{'steps':>7} {'triggers':>9} {'branches':>9} {'errors':>7} "
            f"{'kills':>6}"
        )
        lines.append(header)
        for op in (*_OPS, "totals"):
            row = report[op]
            label = "total" if op == "totals" else op
            entries = "" if op == "totals" else f"{row['entries']:>8}"
            lines.append(
                f"  {label:<8} {row['calls']:>6} {row['hits']:>6} "
                f"{row['misses']:>7} "
                f"{self._hit_rate(row['hits'], row['calls']):>6} "
                f"{row['evictions']:>6} {entries:>8} {row['wall_time']:>10.4f} "
                f"{self._ms_per_call(row['wall_time'], row['misses']):>8} "
                f"{row['steps']:>7} {row['triggers']:>9} {row['branches']:>9} "
                f"{row['errors']:>7} {row['kills']:>6}"
            )
        tracer_metrics = report.get("tracer")
        if tracer_metrics and (
            tracer_metrics["counters"] or tracer_metrics["histograms"]
        ):
            lines.append("  tracer:")
            for name, value in tracer_metrics["counters"].items():
                lines.append(f"    {name:<30} {value}")
            for name, hist in tracer_metrics["histograms"].items():
                lines.append(
                    f"    {name:<30} n={hist['count']} "
                    f"mean={hist['mean'] * 1000:.3f}ms"
                )
        return "\n".join(lines)

    def clear(self) -> None:
        """Empty every cache (lifetime counters are kept)."""
        for cache in self._caches.values():
            cache.clear()
