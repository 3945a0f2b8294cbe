"""The supervised worker pool behind multi-process batches and ``repro serve``.

:func:`repro.engine.parallel.run_batch_isolated` contains item failures
and enforces deadlines *cooperatively*: a task that honors its budget
checkpoints stops itself, and a task that raises reports an error.  A
task that does **neither** — a chase wedged inside hom search, a
deadlocked native call — can only be stopped from outside its process.
:class:`WorkerPool` is that outside, and the one process runner in the
repo:

* **N persistent workers.**  Each slot is one long-lived process that
  builds its handler once (``build(config)``) and then serves tasks
  streamed over a duplex pipe: batches hand it the task function
  itself, ``repro serve`` builds a warm engine
  (:mod:`repro.service.pool`).  One manager thread per slot pulls jobs
  from a shared queue, ships each to its worker and waits for the reply.
* **Heartbeats.**  Every worker holds a shared heartbeat cell; the
  ambient progress-reporter hook inside the worker turns each
  cooperative :class:`repro.limits.Budget` checkpoint into a heartbeat
  (live budget gauges), so the manager sees not just *that* the worker
  is alive but *where* it is.
* **Escalation.**  At a job's cooperative deadline (or when its owner
  cancels it) the manager flips a shared lock-free byte, bridged to the
  worker's ambient :class:`repro.limits.CancelToken`.  If the pool has a
  ``grace`` and the heartbeat then stays stale for that long, the worker
  is terminated (``SIGTERM``, escalating to ``SIGKILL``), the **slot is
  respawned in place**, and the job fails as
  :class:`repro.errors.WorkerKilled`.  A pool without ``grace`` never
  kills.  A worker that dies on its own fails its job with an
  ``OSError`` (transient) and is respawned the same way.
* The rest of the pool keeps running throughout: each manager supervises
  only its own slot, and the shared queue keeps feeding the healthy ones.

Heartbeats extend a worker's life: the hard-kill instant for a job is
``max(soft cancel, last heartbeat) + grace``, so a worker that is still
cooperating (checkpointing while it unwinds a partial result) is given
time, while one that has gone silent is killed within ``deadline +
grace`` of its start — the bound the CI smoke test asserts.

:func:`run_batch_supervised` is the batch driver on top of the pool:
ordered :class:`ItemOutcome` results, per-item retry with the remaining
deadline, the batch deadline, and SIGINT.  The ambient cancel token is
polled every tick; on cancellation queued items are withdrawn, every
running worker gets the cooperative cancel immediately, stragglers are
killed after one grace period, finished results are kept, and unfinished
items resolve as ``Cancelled`` — so Ctrl-C during a kill escalation
still produces the partial dump and exit code 130.

One pool serves every process batch, with or without ``grace``, and
``repro serve``: on a 2-vCPU host its batch lane measured within the
quartiles of a ``ProcessPoolExecutor`` lane, which unlike the pool
fails a whole batch when one worker dies (``docs/ARCHITECTURE.md`` §5).
Killed items are never cached (they produce no result) and never poison
telemetry: the engine records one error ``OpRecord`` per killed item
and counts kills in ``stats()``.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import Cancelled, WorkerKilled
from ..limits import Exhausted, Limits
from ..limits.budget import current_cancel_token, set_cancel_token, CancelToken
from ..obs.progress import set_reporter
from .parallel import (
    ItemOutcome,
    _deadline_error,
    _rebudgeted,
    is_transient,
    run_batch_isolated,
)

#: How often a manager wakes to poll its pipe and heartbeat, and the
#: batch driver to poll the ambient cancel token (seconds).  Kills
#: therefore land within one tick of their due time — negligible
#: against any realistic grace.
SUPERVISOR_TICK = 0.05

#: Gauge slots in the shared heartbeat cell, in order.
_GAUGES = ("rounds", "steps", "facts", "nulls", "branches")


class HeartbeatCell:
    """One worker's shared-memory heartbeat: a timestamp plus gauges.

    The worker side writes (monotonic timestamp, rounds, steps, facts,
    nulls, branches) on every budget checkpoint; the supervisor side
    reads them.  The cell is a **lock-free** ``RawArray``, deliberately:
    any cross-process lock here can be orphaned — a worker terminated
    (or exiting) mid-critical-section leaves the lock held forever and
    the supervisor's next read deadlocks.  Aligned 8-byte loads and
    stores are atomic on every platform CPython runs on, so the worst
    a lockless reader can see is a one-tick-stale gauge, never a hang.
    Created from the same multiprocessing context as the worker process
    so it travels by inheritance (fork) or pickling (spawn).
    """

    def __init__(self, ctx) -> None:
        """A fresh cell in *ctx*'s shared memory, beating 'now'."""
        self._cells = ctx.RawArray("d", 1 + len(_GAUGES))
        self._cells[0] = time.monotonic()

    def beat(self, **gauges: int) -> None:
        """Record one heartbeat (worker side).

        Gauges land before the timestamp so a reader that observes a
        fresh beat never pairs it with older gauges.
        """
        for slot, name in enumerate(_GAUGES, start=1):
            value = gauges.get(name)
            if value is not None:
                self._cells[slot] = float(value)
        self._cells[0] = time.monotonic()

    @property
    def last_beat(self) -> float:
        """Monotonic timestamp of the latest heartbeat (supervisor side)."""
        return self._cells[0]

    def gauges(self) -> Dict[str, int]:
        """The latest budget gauges shipped by the worker."""
        return {
            name: int(self._cells[slot])
            for slot, name in enumerate(_GAUGES, start=1)
        }


class _HeartbeatReporter:
    """A progress-reporter shim installed inside the worker process.

    Budgets adopt the ambient reporter at construction
    (:func:`repro.obs.progress.current_reporter`), so every cooperative
    checkpoint the chase/hom kernels already execute pumps the shared
    heartbeat cell — no kernel changes needed for supervision.
    """

    def __init__(self, cell: HeartbeatCell) -> None:
        self._cell = cell

    def heartbeat(
        self,
        where: str,
        rounds: int,
        steps: int,
        facts: Optional[int] = None,
        nulls: Optional[int] = None,
        branches: Optional[int] = None,
    ) -> None:
        """The :class:`repro.obs.ProgressReporter` duck-type hook."""
        self._cell.beat(
            rounds=rounds, steps=steps, facts=facts, nulls=nulls,
            branches=branches,
        )


def _bridge_cancel(flag, token: CancelToken, stop: threading.Event) -> None:
    """Watcher-thread body: mirror the shared cancel *flag* into *token*.

    The cooperative-cancel signal is a lock-free shared byte
    (``RawValue``), not a ``multiprocessing.Event``: an Event's internal
    lock can be orphaned by a worker that exits while its watcher thread
    is inside ``Event.wait`` — after which the manager's ``set()``
    blocks forever.  A raw byte has no lock to orphan; budgets check a
    thread-backed :class:`CancelToken`, and this watcher is the bridge.
    Each task gets a fresh token and watcher, stopped when the task
    ends — otherwise a finished task's watcher could cancel the next
    task off a stale flag read.
    """
    while not stop.is_set() and not token.cancelled:
        if flag.value:
            token.cancel("supervisor")
            return
        time.sleep(0.02)


def _worker_main(conn, cell: HeartbeatCell, cancel_flag, build, config) -> None:
    """One persistent worker process: build the handler once, then serve.

    Protocol: the parent sends one task at a time (``None`` asks the
    worker to exit); the worker replies ``("ok", value)`` or
    ``("error", exception)`` — exactly one reply per task, with an
    unpicklable reply degraded to a picklable error rather than a silent
    hang.  Runs at module scope so it pickles by reference under
    spawn-based contexts.
    """
    handler = build(config)
    set_reporter(_HeartbeatReporter(cell))
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        cell.beat(**dict.fromkeys(_GAUGES, 0))  # no gauges from the last task
        token = CancelToken()
        set_cancel_token(token)
        stop = threading.Event()
        threading.Thread(
            target=_bridge_cancel, args=(cancel_flag, token, stop), daemon=True
        ).start()
        try:
            reply = ("ok", handler(task))
        except BaseException as error:  # ship the failure, whatever it is
            reply = ("error", error)
        finally:
            stop.set()
        try:
            conn.send(reply)
        except Exception:
            try:
                conn.send(
                    ("error", RuntimeError(f"worker result unpicklable: {reply[1]!r}"))
                )
            except Exception:  # pragma: no cover - parent is gone
                break
    conn.close()


def _task_handler(fn):
    """A batch worker's handler is the module-level task function itself."""
    return fn


def _terminate(process, patience: float = 0.5) -> None:
    """SIGTERM the worker, escalating to SIGKILL if it lingers."""
    process.terminate()
    process.join(patience)
    if process.is_alive():  # pragma: no cover - SIGTERM blocked
        process.kill()
        process.join(patience)


class Job:
    """One task submitted to a :class:`WorkerPool`, and its outcome.

    ``deadline`` (seconds from the start, or ``None``) is when the
    worker gets the cooperative cancel; :meth:`cancel` moves that
    instant to now.  ``item`` names the task in a kill diagnosis.  Once
    settled, exactly one of ``value``/``error`` is meaningful, and
    ``killed`` says whether the pool had to terminate the worker.
    """

    def __init__(
        self, task: Any, item: int = -1, deadline: Optional[float] = None
    ) -> None:
        """A queued job for *task*."""
        self.task = task
        self.item = item
        self.deadline = deadline
        self.started: Optional[float] = None
        self.soft_at: Optional[float] = None
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.killed = False
        self._state = "queued"
        self._lock = threading.Lock()
        self._done = threading.Event()

    def _start(self) -> bool:
        """Manager side: claim a queued job; ``False`` if withdrawn."""
        with self._lock:
            if self._state != "queued":
                return False
            self._state = "running"
            self.started = time.monotonic()
            if self.deadline is not None:
                self.soft_at = self.started + self.deadline
            return True

    def withdraw(self) -> bool:
        """Take back a job no worker has started; ``True`` on success."""
        with self._lock:
            if self._state != "queued":
                return False
            self._state = "withdrawn"
            return True

    def cancel(self) -> None:
        """Send a running job the cooperative cancel now.

        In a pool with a ``grace`` this also starts the kill clock.
        """
        now = time.monotonic()
        if self.soft_at is None or now < self.soft_at:
            self.soft_at = now


@dataclass
class _Slot:
    """One worker slot: the live process and its supervision channels."""

    index: int
    process: Any = None
    conn: Any = None
    cell: Optional[HeartbeatCell] = None
    cancel_flag: Any = None
    tasks: int = 0


_SHUTDOWN = object()


class WorkerPool:
    """N persistent supervised workers fed from one shared queue.

    Parameters
    ----------
    workers:
        Worker process count (≥ 1).
    build:
        Module-level function run once in each worker: ``build(config)``
        returns the handler every task of that worker is passed to.
    config:
        The picklable argument of *build*.
    grace:
        Heartbeat staleness past a job's soft cancel that triggers the
        kill; ``None`` means the pool never kills.
    where:
        The component named in kill diagnoses (it shows up in CLI
        output and serve error payloads).
    on_done:
        Called with each settled job, from its manager thread, before
        anyone waiting on the job wakes.
    """

    def __init__(
        self,
        workers: int,
        build: Callable[[Any], Callable[[Any], Any]],
        config: Any,
        grace: Optional[float] = None,
        where: str = "engine.supervisor",
        on_done: Optional[Callable[[Job], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.grace = grace
        self.where = where
        self._build = build
        self._config = config
        self._on_done = on_done
        self._ctx = multiprocessing.get_context()
        self._queue: "queue.Queue" = queue.Queue()
        self._counts: Counter = Counter()
        self._counts_lock = threading.Lock()
        self._closing = False
        self._slots = [_Slot(index=i) for i in range(workers)]
        try:
            for slot in self._slots:
                self._spawn(slot)
        except BaseException:
            for slot in self._slots:
                if slot.process is not None:
                    _terminate(slot.process)
            raise
        self._managers = [
            threading.Thread(
                target=self._manage, args=(slot,), daemon=True,
                name=f"pool-manager-{slot.index}",
            )
            for slot in self._slots
        ]
        for manager in self._managers:
            manager.start()

    # -- worker lifecycle ------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        """Start *slot*'s worker: fresh process, pipe, cell, flag."""
        slot.cell = HeartbeatCell(self._ctx)
        # Lock-free cancel signal — see _bridge_cancel for why not Event.
        slot.cancel_flag = self._ctx.RawValue("b", 0)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, slot.cell, slot.cancel_flag, self._build, self._config),
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot.process, slot.conn = process, parent_conn

    def _respawn(self, slot: _Slot) -> None:
        """Replace the slot's worker in place after a kill or a crash."""
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        _terminate(slot.process)  # reaps a worker that already died
        self._spawn(slot)
        self._bump(respawns=1)

    def _bump(self, **deltas: int) -> None:
        with self._counts_lock:
            self._counts.update(deltas)

    # -- submission and shutdown -----------------------------------------

    def submit(self, job: Job) -> Job:
        """Queue *job* for the next free worker; returns it."""
        self._queue.put(job)
        return job

    def close(self, timeout: Optional[float] = None) -> bool:
        """Finish queued jobs, then exit every worker.

        Returns ``True`` when every manager joined within *timeout*
        (``None`` = wait forever).  Idempotent.
        """
        if not self._closing:
            self._closing = True
            for _ in self._managers:
                self._queue.put(_SHUTDOWN)
        deadline = None if timeout is None else time.monotonic() + timeout
        for manager in self._managers:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            manager.join(remaining)
        return all(not manager.is_alive() for manager in self._managers)

    # -- the slot manager ------------------------------------------------

    def _manage(self, slot: _Slot) -> None:
        """Manager-thread body: feed and supervise one worker slot."""
        while True:
            job = self._queue.get()
            if job is _SHUTDOWN:
                self._exit_worker(slot)
                return
            if not job._start():
                continue  # withdrawn by its owner before it started
            try:
                job.value, job.error = self._run(slot, job)
            except Exception as error:  # pragma: no cover - respawn failed
                job.value, job.error = None, error
            if self._on_done is not None:
                self._on_done(job)
            job._done.set()

    def _run(self, slot: _Slot, job: Job):
        """Ship *job* to the slot's worker; its ``(value, error)``."""
        if not slot.process.is_alive():
            self._respawn(slot)
        slot.cancel_flag.value = 0
        pid = slot.process.pid
        try:
            slot.conn.send(job.task)
        except Exception as error:  # unpicklable task or broken pipe
            self._respawn(slot)
            return None, error
        slot.tasks += 1
        while not slot.conn.poll(SUPERVISOR_TICK):
            soft_at = job.soft_at
            now = time.monotonic()
            if soft_at is None or now < soft_at:
                continue
            slot.cancel_flag.value = 1
            # The worker earns grace by heartbeating: kill only once it
            # has been silent for a full grace period after the soft
            # cancel.
            quiet_since = max(slot.cell.last_beat, soft_at)
            if self.grace is not None and now - quiet_since >= self.grace:
                return None, self._kill(slot, job, now)
        try:
            status, value = slot.conn.recv()
        except (EOFError, OSError):
            # The worker died without a reply (hard crash, OOM kill):
            # infra-level breakage, so transient and retryable.
            self._respawn(slot)
            return None, OSError(f"worker pid {pid} exited without a result")
        except Exception as error:  # the reply would not unpickle
            return None, error
        return (value, None) if status == "ok" else (None, value)

    def _kill(self, slot: _Slot, job: Job, now: float) -> WorkerKilled:
        """Terminate a silent worker, respawn its slot; the job's error."""
        gauges = slot.cell.gauges()
        stale = now - max(slot.cell.last_beat, job.started)
        pid = slot.process.pid
        self._bump(kills=1)
        self._respawn(slot)
        job.killed = True
        diagnosis = Exhausted(
            resource="killed",
            where=self.where,
            limit=self.grace,
            used=f"heartbeat stale {stale:.2f}s past deadline",
            rounds=gauges["rounds"],
            steps=gauges["steps"],
        )
        return WorkerKilled(item=job.item, pid=pid, diagnosis=diagnosis)

    def _exit_worker(self, slot: _Slot) -> None:
        """Politely stop one worker (shutdown path), escalating if ignored."""
        try:
            slot.conn.send(None)
        except (OSError, ValueError):
            pass
        slot.process.join(2.0)
        if slot.process.is_alive():
            _terminate(slot.process)
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _cancelled_error() -> Cancelled:
    """The typed error for items abandoned by a batch-wide cancellation."""
    return Cancelled(
        diagnosis=Exhausted(
            resource="cancelled", where="engine.supervisor", used="SIGINT"
        )
    )


def run_batch_supervised(
    payloads: Sequence[tuple],
    fn: Callable[[tuple], Any],
    workers: int = 1,
    retries: int = 0,
    deadline: Optional[float] = None,
    grace: Optional[float] = None,
) -> List[ItemOutcome]:
    """Run *fn* over *payloads* on a :class:`WorkerPool`.

    The multi-process counterpart of
    :func:`repro.engine.parallel.run_batch_isolated`: same payload
    contract (``(..., limits, fault, attempt)``), same ordered
    :class:`ItemOutcome` list, same transient-retry and batch-deadline
    semantics.  A worker that dies retries its item like any transient
    failure.  With *grace* set, a worker silent for more than *grace*
    seconds past its item's cooperative deadline (or the batch deadline)
    is terminated and its slot respawned; the item retries (with its
    remaining deadline) while attempts remain, then fails as
    :class:`repro.errors.WorkerKilled`.  ``ItemOutcome.kills`` counts
    the terminations each item needed.  Without *grace* nothing is
    killed.  If the pool cannot start, the batch runs on the serial loop.

    Parameters
    ----------
    payloads:
        One task payload per batch item, ending with
        ``(limits, fault, attempt)`` as in :mod:`repro.engine.parallel`.
    fn:
        Module-level task function (must pickle by reference).
    workers:
        Max concurrently running worker processes (≥ 1).
    retries:
        Extra attempts for transiently failing *or killed* items.
    deadline:
        Wall-clock bound for the whole batch, seconds.
    grace:
        Heartbeat staleness past the deadline that triggers the kill.
    """
    if not payloads:
        return []
    finished: "queue.Queue[Job]" = queue.Queue()
    try:
        pool = WorkerPool(
            min(max(1, workers), len(payloads)), _task_handler, fn,
            grace=grace, on_done=finished.put,
        )
    except (OSError, ValueError):  # pragma: no cover - sandboxed hosts
        return run_batch_isolated(payloads, fn, retries=retries, deadline=deadline)
    outcomes: List[ItemOutcome] = [ItemOutcome(attempts=0) for _ in payloads]
    kills = [0] * len(payloads)
    first_started: Dict[int, float] = {}
    live: Dict[int, Job] = {}
    deadline_at = None if deadline is None else time.monotonic() + deadline
    cancelled = stopped = False

    def submit(index: int, payload: tuple) -> None:
        # With grace, each item's own Limits deadline is its soft cancel.
        limits = payload[-3]
        armed = grace is not None and isinstance(limits, Limits)
        job = Job(payload, item=index, deadline=limits.deadline if armed else None)
        live[index] = pool.submit(job)

    def settle(job: Job) -> None:
        index, attempt = job.item, job.task[-1]
        del live[index]
        elapsed = time.monotonic() - first_started.setdefault(index, job.started)
        kills[index] += job.killed
        if job.error is None:
            outcomes[index] = ItemOutcome(
                value=job.value, attempts=attempt, elapsed=elapsed, kills=kills[index]
            )
            return
        error = _cancelled_error() if job.killed and cancelled else job.error
        if is_transient(error) and attempt <= retries and not stopped:
            payload = _rebudgeted(job.task, elapsed)
            submit(index, payload[:-1] + (attempt + 1,))
            return
        outcomes[index] = ItemOutcome(
            error=error, attempts=attempt, elapsed=elapsed, kills=kills[index]
        )

    try:
        for index, payload in enumerate(payloads):
            submit(index, payload)
        while live:
            try:
                settle(finished.get(timeout=SUPERVISOR_TICK))
            except queue.Empty:
                pass
            if cancelled:
                continue
            token = current_cancel_token()
            cancelled = token is not None and token.cancelled
            expired = deadline_at is not None and time.monotonic() >= deadline_at
            if not cancelled and (stopped or not expired):
                continue
            # Batch stopped: fail what never started, and tell running
            # workers to stop (a pool with grace kills stragglers).
            stopped = True
            for index, job in list(live.items()):
                if not job.withdraw():
                    if cancelled or grace is not None:
                        job.cancel()
                    continue
                del live[index]
                outcomes[index] = ItemOutcome(
                    error=_cancelled_error() if cancelled else _deadline_error(),
                    attempts=max(job.task[-1] - 1, 1),
                    elapsed=(
                        time.monotonic() - first_started[index]
                        if index in first_started
                        else 0.0
                    ),
                    kills=kills[index],
                )
    finally:
        for job in live.values():  # pragma: no cover - defense
            job.withdraw()
        pool.close()
    return outcomes


__all__ = [
    "HeartbeatCell",
    "Job",
    "SUPERVISOR_TICK",
    "WorkerPool",
    "run_batch_supervised",
]
