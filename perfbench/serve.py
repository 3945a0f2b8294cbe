"""The ``serve`` workload: ``repro serve`` driven by two client connections.

The server runs with its default flags (two pool workers, memory
store); only ``--port 0``, ``--cache-dir`` and ``--registry`` are set,
the last two into an empty directory of the run.  Two client threads
each send one request at a time (a closed loop) over their own
persistent HTTP/1.1 connection, working through the deck's request
stream.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import decks
import oracle
import spans

CLIENTS = 2
HERE = os.path.dirname(os.path.abspath(__file__))


class Server:
    """One ``repro serve`` process, ready once every pool worker is up."""

    def __init__(self, env: dict, workdir: str, traced: bool = False) -> None:
        os.makedirs(workdir)
        args = [
            "serve", "--port", "0",
            "--cache-dir", os.path.join(workdir, "cache"),
            "--registry", os.path.join(workdir, "runs.db"),
        ]
        if traced:
            env = dict(env, PERFBENCH_SPANS=workdir)
            command = [sys.executable, os.path.join(HERE, "traced_serve.py")] + args
        else:
            command = [sys.executable, "-m", "repro"] + args
        self.started = time.perf_counter()
        self._stderr = open(os.path.join(workdir, "stderr.txt"), "w")
        self.process = subprocess.Popen(
            command, cwd=workdir, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        self.port = self._read_port()
        self._wait_ready()
        self.ready_s = time.perf_counter() - self.started

    def _read_port(self, timeout: float = 60.0) -> int:
        readable, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if readable else ""
        if "serving on" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return int(line.strip().rsplit(":", 1)[1])

    def get(self, path: str):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            try:
                status, body = self.get("/healthz")
            except OSError:
                status = 0
            if status == 200:
                pool = json.loads(body)["pool"]
                if len(pool["worker_pids"]) == pool["workers"]:
                    return
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("repro serve never reported its workers ready")

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident sets of the server and its workers."""
        pids = [self.process.pid] + json.loads(self.get("/healthz")[1])["pool"]["worker_pids"]
        total_kb = 0
        for pid in pids:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """Graceful SIGTERM drain; kill if it does not exit in time."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


def request_body(base: decks.Base, tag: int) -> dict:
    if base.op == "audit":
        return {"mapping": decks.tag_relations(base.mapping, tag)}
    body = {"mapping": base.mapping, "instance": decks.render_facts(base.facts, tag)}
    if base.op == "answer":
        body["query"] = base.query
    return body


def canonical(op: str, body: dict) -> str:
    if op == "chase":
        return body["instance"]
    if op == "reverse":
        return oracle.canonical_candidates(body["candidates"])
    if op == "answer":
        return oracle.canonical_rows(body["rows"])
    return oracle.canonical_audit(
        body["invertible"]["holds"], body["extended_invertible"]["holds"]
    )


def drive(server: Server, deck: decks.Deck, recorder: Optional[spans.Recorder]) -> dict:
    """Send the whole stream from ``CLIENTS`` closed-loop connections."""
    bases = {b.id: b for b in deck.bases}
    payloads = [
        json.dumps(request_body(bases[base_id], tag)).encode()
        for base_id, tag in deck.stream
    ]
    results: List[Optional[dict]] = [None] * len(payloads)
    cursor = iter(range(len(payloads)))
    lock = threading.Lock()

    def send(connection: http.client.HTTPConnection, index: int) -> dict:
        base = bases[deck.stream[index][0]]
        begin = time.perf_counter()
        try:
            connection.request(
                "POST", f"/v1/{base.op}", body=payloads[index],
                headers={"Content-Type": "application/json",
                         "X-Repro-Request-Id": f"pb{index}"},
            )
            response = connection.getresponse()
            status, raw = response.status, response.read()
        except (OSError, http.client.HTTPException):
            status, raw = 0, b""  # counted as a failed operation
            connection.close()  # the next request reconnects
        return {"latency": time.perf_counter() - begin, "status": status, "raw": raw}

    def client() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                if recorder is not None:
                    results[index] = recorder.span("client", send, (connection, index),
                                                   rid=f"pb{index}")
                else:
                    results[index] = send(connection, index)
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    health = json.loads(server.get("/healthz")[1])
    return {"results": results, "wall": wall, "health": health,
            "peak_rss_mb": server.peak_rss_mb()}


def check(deck: decks.Deck, expected: Dict[int, str], references: Dict[int, str],
          run: dict, corrupt_every: int = 0) -> List[dict]:
    """Per-request records: latency, correctness, cache layer, meta."""
    bases = {b.id: b for b in deck.bases}
    verdicts: Dict[tuple, bool] = {}
    records = []
    for index, ((base_id, tag), result) in enumerate(zip(deck.stream, run["results"])):
        base = bases[base_id]
        record = {"op": base.op, "latency": result["latency"], "ok": False,
                  "layer": None, "worker_ms": None, "engine_hit": None}
        if result["status"] == 200:
            body = json.loads(result["raw"])
            text = decks.untag(canonical(base.op, body), tag)
            if corrupt_every and (index + 1) % corrupt_every == 0:
                text += " corrupted"
            hashed = oracle.digest(text)
            if hashed == expected[base_id]:
                record["ok"] = True
            else:
                key = (base_id, hashed)
                if key not in verdicts:
                    verdicts[key] = oracle.matches(base.op, text, references[base_id])
                record["ok"] = verdicts[key]
            record["layer"] = body["cache"]["layer"]
            meta = body.get("meta") or {}
            if not body["cache"]["hit"]:
                record["worker_ms"] = meta.get("wall_time", 0.0) * 1e3
                record["engine_hit"] = meta.get("engine_cache_hit")
                record["chase"] = {k: meta.get(k, 0) for k in ("rounds", "steps", "triggers")}
        records.append(record)
    return records


def setup_times(env: dict, tmp: str, count: int) -> List[float]:
    """Spawn-to-ready times of *count* fresh servers."""
    times = []
    for index in range(count):
        server = Server(env, os.path.join(tmp, f"setup{index}"))
        try:
            times.append(server.ready_s)
        finally:
            server.stop()
    return times


def run(deck: decks.Deck, expected: Dict[int, str], references: Dict[int, str],
        env: dict, tmp: str, traced: bool, corrupt_every: int = 0) -> dict:
    server = Server(env, os.path.join(tmp, "untraced"))
    try:
        untraced = drive(server, deck, None)
    finally:
        server.stop()
    untraced["records"] = check(deck, expected, references, untraced, corrupt_every)
    out = {"untraced": untraced}
    if traced:
        workdir = os.path.join(tmp, "traced")
        recorder = spans.Recorder("client", workdir)
        server = Server(env, workdir, traced=True)
        try:
            run_traced = drive(server, deck, recorder)
        finally:
            server.stop()
        recorder.write()
        run_traced["records"] = check(deck, expected, references, run_traced)
        run_traced["spans_dir"] = workdir
        out["traced"] = run_traced
    return out
