"""Unit tests for the service core and its HTTP front end."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.engine.cache import LRUCache
from repro.service.http import ExchangeService, ServiceServer
from repro.service.ops import (
    ServiceRequestError,
    execute_op,
    request_key,
    validate_request,
)
from repro.service.pool import PoolDraining, PoolSaturated

MAPPING = "P(x) -> Q(x)"


class _FakeJob:
    def __init__(self, response):
        self._response = response

    def result(self, timeout=None):
        return self._response


class _FakePool:
    """A pool double running requests inline on an in-process engine."""

    def __init__(self, engine=None, saturated=False):
        from repro.engine import ExchangeEngine

        self.engine = engine or ExchangeEngine()
        self.saturated = saturated
        self._draining = False
        self.submitted = 0

    @property
    def draining(self):
        return self._draining

    def submit(self, request, deadline=None):
        if self._draining:
            raise PoolDraining("draining")
        if self.saturated:
            raise PoolSaturated("full")
        self.submitted += 1
        try:
            return _FakeJob(execute_op(self.engine, request))
        except BaseException as error:
            from repro.service.ops import error_payload

            return _FakeJob({"ok": False, "error": error_payload(error)})

    def drain(self, timeout=None):
        self._draining = True
        return True

    def stats(self):
        return {
            "workers": 0, "pending": 0, "draining": self._draining,
            "submitted": self.submitted, "completed": self.submitted,
            "failed": 0, "kills": 0, "respawns": 0, "rejected": 0,
            "worker_pids": [], "worker_tasks": [],
        }


def _service(tmp_path, **kw):
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    return ExchangeService(_FakePool(), **kw)


def _body(instance="P(a)", **extra):
    body = {"mapping": MAPPING, "instance": instance}
    body.update(extra)
    return body


class TestValidation:
    def test_unknown_op(self):
        with pytest.raises(ServiceRequestError):
            validate_request("frobnicate", _body())

    def test_missing_mapping(self):
        with pytest.raises(ServiceRequestError):
            validate_request("chase", {"instance": "P(a)"})

    def test_bad_mapping_text(self):
        with pytest.raises(ServiceRequestError):
            validate_request("chase", _body(mapping="((("))

    def test_bad_limits(self):
        for limits in (
            {"deadline": -1},
            {"nope": 1},
            {"max_rounds": True},
            {"deadline": True},
            {"max_rounds": "5"},
        ):
            with pytest.raises(ServiceRequestError):
                validate_request("chase", _body(limits=limits))

    def test_bad_take_core(self):
        with pytest.raises(ServiceRequestError, match="take_core"):
            validate_request("reverse", _body(take_core="false"))

    def test_fault_needs_opt_in(self):
        with pytest.raises(ServiceRequestError):
            validate_request("chase", _body(fault={"kind": "hang"}))
        request = validate_request(
            "chase", _body(fault={"kind": "hang"}), allow_faults=True
        )
        assert request["fault"]["kind"] == "hang"

    def test_bad_query(self):
        with pytest.raises(ServiceRequestError):
            validate_request(
                "answer", _body(query="not a query ((", max_nulls=2)
            )

    def test_key_excludes_limits(self):
        plain = validate_request("chase", _body())
        limited = validate_request(
            "chase", _body(limits={"deadline": 5})
        )
        assert request_key(plain) == request_key(limited)

    def test_key_separates_variants(self):
        restricted = validate_request("chase", _body())
        oblivious = validate_request("chase", _body(variant="oblivious"))
        assert request_key(restricted) != request_key(oblivious)


class TestHandle:
    def test_chase_roundtrip(self, tmp_path):
        service = _service(tmp_path)
        status, response = service.handle("chase", _body())
        assert status == 200 and response["ok"]
        assert response["facts"] == 1
        assert response["cache"] == {"hit": False, "layer": None}

    def test_memory_then_disk_layers(self, tmp_path):
        service = _service(tmp_path)
        service.handle("chase", _body())
        status, second = service.handle("chase", _body())
        assert status == 200
        assert second["cache"] == {"hit": True, "layer": "memory"}
        # A fresh service over the same directory: disk hit.
        fresh = _service(tmp_path)
        status, third = fresh.handle("chase", _body())
        assert third["cache"] == {"hit": True, "layer": "disk"}
        assert fresh.pool.submitted == 0  # never reached the pool

    def test_zero_memory_tier_always_disk(self, tmp_path):
        service = _service(tmp_path, response_cache_size=0)
        service.handle("chase", _body())
        status, second = service.handle("chase", _body())
        assert second["cache"]["layer"] == "disk"

    def test_validation_maps_to_400(self, tmp_path):
        service = _service(tmp_path)
        status, response = service.handle("chase", {"mapping": "((("})
        assert status == 400
        assert response["error"]["kind"] == "invalid"

    def test_saturated_maps_to_429(self, tmp_path):
        service = ExchangeService(
            _FakePool(saturated=True), cache_dir=str(tmp_path / "cache")
        )
        status, response = service.handle("chase", _body())
        assert status == 429
        assert response["error"]["kind"] == "saturated"

    def test_draining_maps_to_503(self, tmp_path):
        service = _service(tmp_path)
        service.drain()
        status, response = service.handle("chase", _body())
        assert status == 503
        assert response["error"]["kind"] == "draining"

    def test_worker_error_maps_to_500_and_not_cached(self, tmp_path):
        service = _service(tmp_path, allow_faults=True)
        crash = _body("P(c1)", fault={"kind": "crash"})
        status, response = service.handle("chase", crash)
        assert status == 500 and not response["ok"]
        # A crash response must never be served from cache afterwards.
        ok_body = _body("P(c1)")
        status, response = service.handle("chase", ok_body)
        assert status == 200 and response["cache"]["hit"] is False

    def test_partial_results_not_cached(self, tmp_path):
        service = _service(tmp_path)
        body = _body(
            mapping="E(x, y) & E(y, z) -> E(x, z)",
            instance="E(a, b), E(b, c), E(c, d), E(d, e)",
            limits={"max_rounds": 1},
        )
        status, response = service.handle("chase", body)
        assert status == 200 and response["exhausted"] == "rounds"
        status, again = service.handle("chase", body)
        assert again["cache"]["hit"] is False

    def test_reverse_and_audit_and_answer(self, tmp_path):
        service = _service(tmp_path)
        status, reverse = service.handle(
            "reverse", {"mapping": "Q(x) -> P(x)", "instance": "Q(a)"}
        )
        assert status == 200 and reverse["candidates"]
        status, audit = service.handle("audit", {"mapping": MAPPING})
        assert status == 200 and "invertible" in audit
        status, answer = service.handle(
            "answer",
            {
                "mapping": MAPPING,
                "instance": "P(a)",
                "query": "q(x) :- P(x)",
            },
        )
        assert status == 200 and answer["rows"] == [["a"]]

    def test_metrics_exposition(self, tmp_path):
        service = _service(tmp_path)
        service.handle("chase", _body())
        service.handle("chase", _body())
        text = service.metrics_text()
        assert text.endswith("# EOF\n")
        assert "repro_service_requests_chase_total 2" in text
        assert "repro_service_cache_hits_memory_total 1" in text

    def test_health_reports_tiers(self, tmp_path):
        service = _service(tmp_path)
        status, health = service.health()
        assert status == 200 and health["status"] == "ok"
        assert "memory" in health["cache"] and health["cache"]["disk"] is not None
        service.drain()
        status, health = service.health()
        assert status == 503 and health["status"] == "draining"

    def test_registry_records_requests(self, tmp_path):
        from repro.obs import RunRegistry

        registry = RunRegistry(str(tmp_path / "runs.db"))
        service = ExchangeService(
            _FakePool(),
            cache_dir=str(tmp_path / "cache"),
            registry=registry,
        )
        service.handle("chase", _body())
        service.handle("chase", _body())
        rows = registry.list_runs(limit=10)
        assert len(rows) == 2
        assert all(row.op == "serve.chase" for row in rows)


class _LiveServer:
    """A ServiceServer on an ephemeral port, driven over real HTTP."""

    def __init__(self, service):
        self.server = ServiceServer(("127.0.0.1", 0), service)
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self.thread.start()
        host, port = self.server.server_address
        self.base = f"http://{host}:{port}"

    def post(self, path, body):
        status, _, response = self.post_raw(path, body)
        return status, response

    def post_raw(self, path, body, headers=None):
        """POST returning ``(status, response headers, parsed body)``."""
        data = json.dumps(body).encode()
        request_headers = {"Content-Type": "application/json"}
        request_headers.update(headers or {})
        request = urllib.request.Request(
            self.base + path, data, request_headers
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return (
                    response.status,
                    dict(response.headers),
                    json.loads(response.read()),
                )
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), json.loads(error.read())

    def get(self, path):
        try:
            with urllib.request.urlopen(self.base + path, timeout=30) as r:
                return r.status, r.read().decode()
        except urllib.error.HTTPError as error:
            return error.code, error.read().decode()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(10)


@pytest.fixture
def live(tmp_path):
    server = _LiveServer(_service(tmp_path))
    yield server
    server.close()


class TestWire:
    def test_post_roundtrip(self, live):
        status, response = live.post("/v1/chase", _body())
        assert status == 200 and response["ok"]

    def test_unknown_route_404(self, live):
        status, response = live.post("/v1/frobnicate", _body())
        assert status == 404
        status, _ = live.get("/nope")
        assert status == 404

    def test_malformed_json_400(self, live):
        request = urllib.request.Request(
            live.base + "/v1/chase", b"{not json",
            {"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400

    @pytest.mark.parametrize("declared", ["-1", "abc"])
    def test_bad_content_length_400(self, live, declared):
        # Raw socket: urllib cannot send a malformed Content-Length.  The
        # short timeout turns a handler stuck reading the body into a
        # failure instead of a hang.
        host, port = live.server.server_address
        request = (
            f"POST /v1/chase HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {declared}\r\nX-Repro-Request-Id: bad-length\r\n"
            "\r\n"
        ).encode()
        with socket.create_connection((host, port), timeout=3) as sock:
            sock.sendall(request)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        assert lines[0].split()[1] == "400"
        assert "X-Repro-Request-Id: bad-length" in lines
        error = json.loads(body)["error"]
        assert error["type"] == "ServiceRequestError"
        assert error["kind"] == "invalid"
        assert declared in error["message"]

    def test_metrics_endpoint(self, live):
        live.post("/v1/chase", _body())
        status, text = live.get("/metrics")
        assert status == 200
        assert text.endswith("# EOF\n")

    def test_healthz_endpoint(self, live):
        status, text = live.get("/healthz")
        assert status == 200
        assert json.loads(text)["status"] == "ok"


class TestRequestTracing:
    """End-to-end trace propagation over the wire (ISSUE 9 tentpole)."""

    def _traced(self, tmp_path):
        from repro.obs import RunRegistry

        registry = RunRegistry(str(tmp_path / "runs.db"))
        service = ExchangeService(
            _FakePool(),
            cache_dir=str(tmp_path / "cache"),
            registry=registry,
        )
        return _LiveServer(service), registry

    def test_client_request_id_echoed_and_recorded(self, tmp_path):
        server, registry = self._traced(tmp_path)
        try:
            status, headers, response = server.post_raw(
                "/v1/chase", _body(), headers={"X-Repro-Request-Id": "r1"}
            )
        finally:
            server.close()
        assert status == 200 and response["ok"]
        assert headers["X-Repro-Request-Id"] == "r1"
        (row,) = registry.list_runs(limit=10)
        assert row.op == "serve.chase"
        assert row.request_id == "r1"
        assert row.trace_id

    def test_request_id_minted_when_absent(self, live):
        status, headers, _ = live.post_raw("/v1/chase", _body())
        assert status == 200
        assert headers["X-Repro-Request-Id"].startswith("req-")

    def test_header_echoed_on_error_replies(self, live):
        status, headers, _ = live.post_raw(
            "/v1/frobnicate", _body(),
            headers={"X-Repro-Request-Id": "r-err"},
        )
        assert status == 404
        assert headers["X-Repro-Request-Id"] == "r-err"

    def test_registry_row_reconstructs_the_span_tree(self, tmp_path):
        from repro.obs import render_span_tree, spans_from_payload

        server, registry = self._traced(tmp_path)
        try:
            server.post_raw(
                "/v1/chase", _body(), headers={"X-Repro-Request-Id": "r1"}
            )
        finally:
            server.close()
        (row,) = registry.list_runs(limit=10)
        spans = row.metrics["spans"]
        state = spans_from_payload(spans)
        by_name = {span.name: span for span in state.spans}
        service_span = by_name["service.chase"]
        worker_span = by_name["worker.chase"]
        assert service_span.parent_id is None
        assert worker_span.parent_id == service_span.span_id
        assert all(span.request_id == "r1" for span in state.spans)
        tree = render_span_tree(state)
        assert tree.splitlines()[0].startswith("service.chase")
        assert "worker.chase" in tree

    def test_cached_replay_stays_json_safe(self, tmp_path):
        server, registry = self._traced(tmp_path)
        try:
            first = server.post_raw(
                "/v1/chase", _body(), headers={"X-Repro-Request-Id": "a"}
            )
            second = server.post_raw(
                "/v1/chase", _body(), headers={"X-Repro-Request-Id": "b"}
            )
        finally:
            server.close()
        # Replay serves the same result under the new request id; the
        # worker trace never leaks into the client-visible payload.
        assert first[2]["instance"] == second[2]["instance"]
        assert second[1]["X-Repro-Request-Id"] == "b"
        assert "trace" not in second[2]
        rows = registry.list_runs(limit=10)
        assert [row.request_id for row in rows] == ["b", "a"]
