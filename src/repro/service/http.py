"""The ``repro serve`` HTTP front end: a long-lived exchange service.

Pure stdlib — :class:`http.server.ThreadingHTTPServer` with a JSON
protocol — because the service's interesting parts live elsewhere: the
warm supervised worker pool (:mod:`repro.service.pool`), the persistent
content-addressed cache (:mod:`repro.service.diskcache`), and the
validation/execution semantics (:mod:`repro.service.ops`).

Endpoints
---------

``POST /v1/chase`` · ``POST /v1/reverse`` · ``POST /v1/audit`` ·
``POST /v1/answer``
    One exchange operation per request, JSON body in, JSON body out.
    Responses carry a ``cache`` object — ``{"hit": true, "layer":
    "memory" | "disk"}`` or ``{"hit": false, "layer": null}`` — naming
    which tier (if any) served them.

``GET /metrics``
    OpenMetrics exposition (the same
    :class:`repro.obs.OpenMetricsSink` format ``--metrics-out``
    writes), service request counters merged in.

``GET /healthz``
    Pool and cache health as JSON; 200 while serving, 503 once a drain
    has begun (load balancers read this).

Admission control and status codes
----------------------------------

The service sheds load instead of queueing unboundedly:

* **400** — request failed validation (server-side parse; a malformed
  mapping never occupies a pool worker);
* **429** — the pool backlog is full (:class:`~repro.service.pool.
  PoolSaturated`); clients should back off and retry;
* **503** — the service is draining after SIGTERM; in-flight requests
  finish, new ones are refused;
* **500** — the operation itself failed; the body carries the
  structured ``{"type", "message", "kind"}`` error, where ``kind:
  "killed"`` means the pool supervisor hard-killed a hung worker (and
  already respawned the slot in place).

Caching
-------

Two response tiers sit **in front of** the pool: an in-memory LRU and
the shared :class:`~repro.service.diskcache.DiskCache` (the same
directory the workers' engines use as their backing tier, under
disjoint ``service``-prefixed keys).  Only complete results are cached
— partial (``exhausted``) and failed responses always recompute.
Every request is recorded as an :class:`repro.obs.OpRecord` in the run
registry, so ``repro runs`` reporting covers service traffic too.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..engine.cache import LRUCache
from ..obs.context import TraceContext, context_scope, mint_context
from ..obs.export import spans_payload
from ..obs.metrics import MetricsRegistry
from ..obs.sinks import OpRecord
from ..obs.tracer import Tracer
from .diskcache import DiskCache
from .ops import (
    SERVICE_OPS,
    ServiceRequestError,
    error_payload,
    request_key,
    validate_request,
)
from .pool import PoolDraining, PoolSaturated, WarmPool

#: Map a structured error ``kind`` to its HTTP status.
_ERROR_STATUS = {
    "invalid": 400,
    "budget": 500,
    "cancelled": 500,
    "killed": 500,
    "internal": 500,
}


class ExchangeService:
    """The service core: admission, response caching, pool dispatch.

    Deliberately HTTP-free — :class:`_Handler` translates wire requests
    into :meth:`handle` calls, and tests drive :meth:`handle` directly.
    """

    def __init__(
        self,
        pool: WarmPool,
        cache_dir: Optional[str] = None,
        response_cache_size: int = 256,
        allow_faults: bool = False,
        sink=None,
        registry=None,
    ) -> None:
        """Assemble the service around an already-started *pool*.

        *cache_dir* enables the persistent response tier (shared with
        the workers' engine caches); *response_cache_size* bounds the
        in-memory tier (0 = every repeat reads from disk — CI uses this
        to make disk hits deterministic).  *sink* is an optional
        :class:`repro.obs.OpenMetricsSink`; *registry* an optional
        :class:`repro.obs.RunRegistry`.
        """
        self.pool = pool
        self.memory = LRUCache(response_cache_size)
        self.disk = DiskCache(cache_dir) if cache_dir else None
        self.allow_faults = allow_faults
        self.sink = sink
        self.registry = registry
        self.metrics = MetricsRegistry()
        self._metrics_lock = threading.Lock()
        if sink is not None:
            sink.extra = self.metrics
        self.started = time.time()

    # -- request path ---------------------------------------------------

    def handle(
        self,
        op: str,
        body: Any,
        context: Optional[TraceContext] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """Serve one operation request; ``(http_status, response_body)``.

        *context* is the request's :class:`repro.obs.TraceContext` —
        the HTTP layer mints one per ``POST`` (adopting an
        ``X-Repro-Request-Id`` header when the client sent one); direct
        callers may omit it and a fresh context is minted here.  The
        whole request runs under that ambient context and a
        ``service.<op>`` span; the worker's span subtree (shipped back
        as the response's ``trace`` state) is stitched under it, and
        the combined tree is persisted with the request's registry row.
        """
        if context is None:
            context = mint_context()
        tracer = Tracer(provenance=False)
        with context_scope(context):
            with tracer.span(
                f"service.{op}", request_id=context.request_id
            ) as span:
                return self._serve(op, body, context, tracer, span)

    def _serve(
        self,
        op: str,
        body: Any,
        context: TraceContext,
        tracer: Tracer,
        span,
    ) -> Tuple[int, Dict[str, Any]]:
        """The admission/cache/dispatch pipeline under the service span."""
        started = time.perf_counter()
        if self.pool.draining:
            return self._refuse(op, 503, "draining", "service is draining")
        try:
            request = validate_request(op, body, allow_faults=self.allow_faults)
        except ServiceRequestError as error:
            return self._refuse(op, 400, "invalid", str(error))
        key = request_key(request)
        cached = self._cached_response(key)
        if cached is not None:
            response, layer = cached
            response = dict(response)
            response["cache"] = {"hit": True, "layer": layer}
            self._record(
                op, request, response, started, context, tracer,
                cache_layer=layer,
            )
            return 200, response
        # The cache key is already computed from content digests only,
        # so stamping the request context here can never alias cache
        # entries across requests.
        request["trace"] = context.to_dict()
        try:
            limits = request.get("limits") or {}
            job = self.pool.submit(request, deadline=limits.get("deadline"))
        except PoolSaturated as error:
            return self._refuse(op, 429, "saturated", str(error))
        except PoolDraining as error:
            return self._refuse(op, 503, "draining", str(error))
        response = job.result()
        state = response.pop("trace", None) if isinstance(response, dict) else None
        if state is not None:
            tracer.absorb(
                state, parent_id=span.span_id if span is not None else None
            )
        if not response.get("ok"):
            error = response.get("error", {})
            status = _ERROR_STATUS.get(error.get("kind"), 500)
            self._count(op, status, error_kind=error.get("kind"))
            self._record(
                op, request, response, started, context, tracer, error=error
            )
            return status, {"op": op, "ok": False, "error": error}
        if response.get("exhausted") is None and request.get("fault") is None:
            self.memory.put(key, response)
            if self.disk is not None:
                self.disk.put(key, response)
        response = dict(response)
        response["cache"] = {"hit": False, "layer": None}
        self._record(op, request, response, started, context, tracer)
        return 200, response

    def _cached_response(self, key) -> Optional[Tuple[dict, str]]:
        """The cached response for *key* and the tier that held it."""
        hit, value = self.memory.get(key)
        if hit:
            return value, "memory"
        if self.disk is not None:
            hit, value = self.disk.get(key)
            if hit:
                self.memory.put(key, value)
                return value, "disk"
        return None

    def _refuse(
        self, op: str, status: int, kind: str, message: str
    ) -> Tuple[int, Dict[str, Any]]:
        self._count(op, status, error_kind=kind)
        return status, {
            "op": op,
            "ok": False,
            "error": {"type": "ServiceRefusal", "message": message, "kind": kind},
        }

    # -- accounting -----------------------------------------------------

    def _count(
        self,
        op: str,
        status: int,
        cache_layer: Optional[str] = None,
        error_kind: Optional[str] = None,
    ) -> None:
        with self._metrics_lock:
            self.metrics.inc(f"service_requests_{op}")
            self.metrics.inc(f"service_responses_{status}")
            if cache_layer is not None:
                self.metrics.inc(f"service_cache_hits_{cache_layer}")
            if error_kind is not None:
                self.metrics.inc(f"service_errors_{error_kind}")

    def _record(
        self,
        op: str,
        request: Dict[str, Any],
        response: Dict[str, Any],
        started: float,
        context: Optional[TraceContext] = None,
        tracer: Optional[Tracer] = None,
        cache_layer: Optional[str] = None,
        error: Optional[dict] = None,
    ) -> None:
        """Count the request and emit its :class:`OpRecord`.

        The registry row additionally carries a ``metrics`` JSON
        payload: the stitched request span tree (service span plus the
        absorbed worker subtree) and, when the worker engine profiled
        the chase, the per-dependency profile summary — what ``repro
        runs show`` renders back."""
        status = 200 if error is None else _ERROR_STATUS.get(
            error.get("kind"), 500
        )
        if error is None:
            self._count(op, status, cache_layer=cache_layer)
        meta = response.get("meta") or {}
        now = time.perf_counter()
        record = OpRecord(
            op=f"serve.{op}",
            mapping_digest=request.get("mapping_digest", ""),
            instance_digest=request.get("instance_digest", ""),
            wall_time=now - started,
            cache_hit=cache_layer is not None
            or bool(meta.get("engine_cache_hit")),
            rounds=meta.get("rounds", 0),
            steps=meta.get("steps", 0),
            facts=response.get("facts", 0),
            nulls=response.get("nulls", 0),
            branches=meta.get("branches", 0),
            triggers=meta.get("triggers", 0),
            exhausted=response.get("exhausted"),
            error=error.get("type") if error else None,
            kills=1 if (error or {}).get("kind") == "killed" else 0,
            trace_id=context.trace_id if context is not None else "",
            request_id=context.request_id if context is not None else "",
        )
        if self.sink is not None:
            self.sink.record(record)
        if self.registry is not None:
            metrics: Optional[dict] = None
            payload: Dict[str, Any] = {}
            if tracer is not None and tracer.spans:
                spans = spans_payload(tracer)
                # The service span is still open while its row is
                # written; close it at "now" so the stored tree has a
                # duration instead of a null end.
                for stored in spans:
                    if stored["end"] is None:
                        stored["end"] = now
                payload["spans"] = spans
            if meta.get("profile"):
                payload["profile"] = meta["profile"]
            metrics = payload or None
            try:
                self.registry.record(record, metrics=metrics)
            except Exception:  # pragma: no cover - registry is best-effort
                pass

    # -- introspection --------------------------------------------------

    def metrics_text(self) -> str:
        """The OpenMetrics exposition for ``GET /metrics``."""
        if self.sink is not None:
            return self.sink.render()
        with self._metrics_lock:
            return self.metrics.to_openmetrics()

    def health(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /healthz``: pool + cache health, 503 while draining."""
        pool = self.pool.stats()
        body = {
            "status": "draining" if pool["draining"] else "ok",
            "uptime": time.time() - self.started,
            "pool": pool,
            "cache": {
                "memory": self.memory.stats.as_dict(),
                "disk": (
                    self.disk.stats.as_dict()
                    if self.disk is not None
                    else None
                ),
            },
        }
        return (503 if pool["draining"] else 200), body

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: delegate to the pool, then flush sinks."""
        drained = self.pool.drain(timeout=timeout)
        if self.sink is not None:
            self.sink.close()
        return drained


class _Handler(BaseHTTPRequestHandler):
    """Wire adapter: routes HTTP to the server's :class:`ExchangeService`."""

    #: Maximum accepted request body, bytes (a mapping is text; 16 MiB
    #: is generous and bounds memory per connection thread).
    MAX_BODY = 16 * 1024 * 1024

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> ExchangeService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Suppress per-request stderr chatter; metrics cover this."""

    def _reply(
        self,
        status: int,
        body: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _refuse(self, op: str, message: str, headers: Dict[str, str]) -> None:
        """Reply 400 for a request the wire layer cannot accept."""
        error = {"type": "ServiceRequestError", "message": message, "kind": "invalid"}
        self._reply(400, {"op": op, "ok": False, "error": error}, headers=headers)

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Route ``GET``: ``/healthz``, ``/metrics``, else 404."""
        if self.path == "/healthz":
            status, body = self.service.health()
            self._reply(status, body)
        elif self.path == "/metrics":
            self._reply_text(
                200,
                self.service.metrics_text(),
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
            )
        else:
            self._reply(
                404,
                {
                    "ok": False,
                    "error": {
                        "type": "NotFound",
                        "message": f"no route {self.path!r}",
                        "kind": "invalid",
                    },
                },
            )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Route ``POST /v1/<op>``; anything else is 404.

        Every ``POST`` gets a :class:`repro.obs.TraceContext`: an
        ``X-Repro-Request-Id`` request header is adopted as the request
        id (so clients can correlate their own ids through logs,
        registry rows, and span trees), otherwise one is minted.  The
        effective id is echoed back as the same header on the reply —
        on every status, including refusals."""
        requested_id = (self.headers.get("X-Repro-Request-Id") or "").strip()
        context = mint_context(request_id=requested_id or None)
        echo = {"X-Repro-Request-Id": context.request_id}
        parts = self.path.strip("/").split("/")
        if len(parts) != 2 or parts[0] != "v1" or parts[1] not in SERVICE_OPS:
            self._reply(
                404,
                {
                    "ok": False,
                    "error": {
                        "type": "NotFound",
                        "message": f"no route {self.path!r}; operations: "
                        + ", ".join(f"/v1/{op}" for op in SERVICE_OPS),
                        "kind": "invalid",
                    },
                },
                headers=echo,
            )
            return
        op = parts[1]
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if not 0 <= length <= self.MAX_BODY:
            # The body is left unread, so the connection cannot be
            # resynchronized: reply, then close it.
            self._refuse(
                op,
                f"body too large ({length} bytes)"
                if length > self.MAX_BODY
                else f"invalid Content-Length {declared!r}",
                {**echo, "Connection": "close"},
            )
            return
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, OSError) as error:
            self._refuse(op, f"request body is not valid JSON: {error}", echo)
            return
        try:
            status, payload = self.service.handle(op, body, context=context)
        except Exception as error:  # pragma: no cover - belt and braces
            status, payload = 500, {"op": op, "ok": False,
                                    "error": error_payload(error)}
        self._reply(status, payload, headers=echo)


class ServiceServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` carrying its :class:`ExchangeService`."""

    daemon_threads = True

    def __init__(self, address, service: ExchangeService) -> None:
        """Bind *address* and attach *service* for the handlers."""
        super().__init__(address, _Handler)
        self.service = service


def serve(
    service: ExchangeService,
    host: str = "127.0.0.1",
    port: int = 0,
    ready=None,
    install_signals: bool = True,
) -> int:
    """Run the service until SIGTERM/SIGINT; the process exit code.

    Prints (via *ready*, a callable receiving the bound ``(host,
    port)``) once listening — ``repro serve`` uses this to announce the
    actual port when started with ``--port 0``.  SIGTERM triggers a
    graceful drain (in-flight requests finish, workers exit) and a
    clean 0 exit; SIGINT the same but exits 130, matching the CLI's
    interrupt convention.
    """
    server = ServiceServer((host, port), service)
    exit_code = {"value": 0}
    draining = threading.Event()

    def _shutdown(code: int) -> None:
        if draining.is_set():
            return
        draining.set()
        exit_code["value"] = code

        def _run() -> None:
            service.drain()
            server.shutdown()

        threading.Thread(target=_run, daemon=True).start()

    if install_signals:
        signal.signal(signal.SIGTERM, lambda signum, frame: _shutdown(0))
        signal.signal(signal.SIGINT, lambda signum, frame: _shutdown(130))
    if ready is not None:
        ready(server.server_address[0], server.server_address[1])
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return exit_code["value"]


__all__ = ["ExchangeService", "ServiceServer", "serve"]
