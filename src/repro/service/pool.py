"""The warm worker pool behind ``repro serve``.

:class:`WarmPool` is the engine's supervised
:class:`~repro.engine.supervisor.WorkerPool` — N persistent workers,
heartbeat watched, killed and respawned in place — with a serve handler
and the service's admission control on top:

* Each worker builds one warm :class:`repro.engine.ExchangeEngine`
  (imports done, caches populated, disk tier attached) and runs every
  request it is handed through :func:`repro.service.ops.execute_op`.
* At a request's deadline the worker gets the cooperative cancel; if its
  heartbeat then stays stale for a full grace period, the worker is
  terminated and the slot respawned, so one wedged request costs one
  worker restart, never the pool.  Other requests are unaffected.

Admission control is the caller's (:mod:`repro.service.http`):
:meth:`WarmPool.submit` raises :class:`PoolSaturated` when the pending
backlog is full (HTTP 429) and :class:`PoolDraining` once a drain has
begun (HTTP 503).  :meth:`WarmPool.drain` is the graceful-SIGTERM path:
intake stops, queued and in-flight requests finish, then every worker
receives an exit message and is joined.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, Optional

from ..engine.supervisor import Job, WorkerPool
from ..errors import ReproError
from .ops import error_payload, execute_op


class PoolSaturated(ReproError):
    """The pending backlog is full; the caller should shed load (429)."""


class PoolDraining(ReproError):
    """The pool is draining (SIGTERM); no new work is admitted (503)."""


def _build_worker_engine(config: Dict[str, Any]):
    """Construct the per-worker warm engine from the picklable config."""
    from ..engine import ExchangeEngine
    from .diskcache import DiskCache

    cache_dir = config.get("cache_dir")
    return ExchangeEngine(
        cache_size=config.get("cache_size", 512),
        store=config.get("store", "memory"),
        sql_chase=config.get("sql_chase", False),
        sql_jobs=config.get("sql_jobs", 1),
        disk_cache=DiskCache(cache_dir) if cache_dir else None,
    )


def _serve_handler(config: Dict[str, Any]):
    """A serve worker's handler: one warm engine, every request on it.

    A failing request becomes a structured error response inside the
    worker, so the worker survives it and the reply always pickles.
    ``execute_op`` is looked up in this module's globals per request.
    """
    engine = _build_worker_engine(config)

    def handle(request: Dict[str, Any]) -> Dict[str, Any]:
        try:
            return execute_op(engine, request)
        except BaseException as error:
            return {"ok": False, "error": error_payload(error)}

    return handle


class PoolJob(Job):
    """One submitted request (``task``, numbered by ``item``) and its response."""

    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block for the outcome and return it as a dict.

        Returns the response dict, or ``{"ok": False, "error": ...}``
        with a structured error (``{"type", "message", "kind"}``) on
        failure.

        Raises ``TimeoutError`` only when *timeout* elapses with the job
        still unresolved — worker failures resolve, they don't raise.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"pool job {self.item} unresolved after {timeout}s"
            )
        if self.error is not None:
            return {"ok": False, "error": error_payload(self.error)}
        return self.value


class WarmPool(WorkerPool):
    """N persistent supervised engine workers fed from one shared queue.

    Parameters
    ----------
    workers:
        Worker process count (≥ 1).  Each holds a warm engine.
    engine_config:
        Picklable dict shipped to every worker:
        ``cache_dir``/``cache_size``/``store``/``sql_chase`` (see
        :func:`_build_worker_engine`).
    deadline:
        Per-request cooperative deadline, seconds.  A request's own
        deadline can only shorten it: the pool escalates at the smaller
        of the two, since a request that lies about its budget is
        exactly the one the supervisor exists for.
    grace:
        Heartbeat staleness past the deadline that triggers the kill,
        exactly as in :mod:`repro.engine.supervisor`.
    max_pending:
        Admission bound on queued-plus-running requests; ``None``
        defaults to ``4 × workers``.
    """

    def __init__(
        self,
        workers: int = 2,
        engine_config: Optional[Dict[str, Any]] = None,
        deadline: Optional[float] = 30.0,
        grace: float = 2.0,
        max_pending: Optional[int] = None,
    ) -> None:
        self.engine_config = dict(engine_config or {})
        self.deadline = deadline
        self.max_pending = max_pending if max_pending is not None else 4 * workers
        self._task_ids = itertools.count(1)
        self._pending = 0
        self._pending_lock = threading.Lock()
        self._draining = threading.Event()
        super().__init__(
            workers, _serve_handler, self.engine_config,
            grace=grace, where="service.pool", on_done=self._finish,
        )

    def submit(
        self, request: Dict[str, Any], deadline: Optional[float] = None
    ) -> PoolJob:
        """Queue one normalized request; returns its :class:`PoolJob`.

        *deadline* (the request's own) bounds the pool deadline; it
        never extends it.  Raises :class:`PoolDraining` once
        :meth:`drain` has begun and :class:`PoolSaturated` when
        admitting the request would push the pending count past
        ``max_pending``.
        """
        if self._draining.is_set():
            self._bump(rejected=1)
            raise PoolDraining("pool is draining; not accepting work")
        with self._pending_lock:
            if self._pending >= self.max_pending:
                self._bump(rejected=1)
                raise PoolSaturated(
                    f"{self._pending} requests pending (limit {self.max_pending})"
                )
            self._pending += 1
        bounds = [d for d in (deadline, self.deadline) if d is not None]
        job = PoolJob(
            request, item=next(self._task_ids), deadline=min(bounds, default=None)
        )
        self._bump(submitted=1)
        return super().submit(job)

    def _finish(self, job: PoolJob) -> None:
        """Settle the books for a finished job (before it resolves)."""
        with self._pending_lock:
            self._pending -= 1
        ok = job.error is None and job.value.get("ok", False)
        self._bump(completed=int(ok), failed=int(not ok))

    # -- lifecycle -------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Has a drain begun?  (New submissions are rejected once true.)"""
        return self._draining.is_set()

    def pending(self) -> int:
        """Requests admitted but not yet resolved."""
        with self._pending_lock:
            return self._pending

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown of the pool.

        Stops intake, finishes queued and in-flight work, then exits
        every worker.  Returns ``True`` when every manager joined
        within *timeout* (``None`` = wait forever).
        """
        self._draining.set()
        return self.close(timeout)

    def stats(self) -> Dict[str, Any]:
        """A snapshot of pool health for ``/healthz`` and tests."""
        with self._counts_lock:
            counts = dict(self._counts)
        snapshot = {
            "workers": self.workers,
            "pending": self.pending(),
            "draining": self.draining,
        }
        for name in (
            "submitted", "completed", "failed", "kills", "respawns", "rejected"
        ):
            snapshot[name] = counts.get(name, 0)
        snapshot["worker_pids"] = [slot.process.pid for slot in self._slots]
        snapshot["worker_tasks"] = [slot.tasks for slot in self._slots]
        return snapshot


__all__ = [
    "PoolDraining",
    "PoolJob",
    "PoolSaturated",
    "WarmPool",
]
