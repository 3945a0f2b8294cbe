"""Layer wrappers and an in-memory span recorder for the traced run.

The traced run wraps each layer's public functions from outside the
program, at the name where the caller looks them up (a module global
such as ``repro.engine.engine.chase``, or a class attribute such as
``ExchangeEngine.exchange``).  Each wrapped call records a span
``(id, parent, name, start, end, request id)`` in memory; a process
writes its spans once, at exit, to ``<dir>/spans-<pid>.jsonl``.  A few
hot functions are only counted (``homs.checks``).

Forked pool workers inherit the wrappers; each writes its own file from
a ``multiprocessing`` finalizer, since forked workers skip ``atexit``.
"""

from __future__ import annotations

import atexit
import importlib
import itertools
import json
import multiprocessing.util
import os
import threading
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, layer, kind).  kind: "span" (default), "gen" (time
# each step of a generator), "count" (count calls only), "sizes" (span,
# plus the input and output lengths: minimize_branches).
IN_PROCESS = (
    ("repro.engine.engine", "ExchangeEngine.exchange", "engine", "span"),
    ("repro.engine.engine", "ExchangeEngine.reverse", "engine", "span"),
    ("repro.engine.engine", "ExchangeEngine.answer", "engine", "span"),
    ("repro.engine.engine", "ExchangeEngine.core", "engine", "span"),
    ("repro.engine.engine", "ExchangeEngine.audit", "engine", "span"),
    ("repro.instance", "Instance.digest", "digest", "span"),
    ("repro.mappings.schema_mapping", "SchemaMapping.digest", "digest", "span"),
    ("repro.engine.engine", "chase", "chase", "span"),
    ("repro.engine.engine", "open_store", "store.open", "span"),
    ("repro.store.sqlbase", "SqlStoreBase.add_all", "store.load", "span"),
    ("repro.store.sqlplan", "sql_chase", "sqlplan", "span"),
    ("repro.engine.engine", "reverse_disjunctive_chase", "reverse", "span"),
    ("repro.chase.disjunctive", "enumerate_quotients", "quotient", "gen"),
    ("repro.chase.disjunctive", "disjunctive_chase", "disjunctive", "span"),
    ("repro.chase.disjunctive", "minimize_branches", "minimize", "sizes"),
    ("repro.homs.core", "core", "core", "span"),
    ("repro.chase.disjunctive", "is_homomorphic", "homs.checks", "count"),
    ("repro.homs.core", "find_homomorphism", "homs.checks", "count"),
    (
        "repro.inverses.quasi_inverse",
        "maximum_extended_recovery_for_full_tgds",
        "recovery",
        "span",
    ),
    ("repro.logic.queries", "certain_answers_over_set", "answer", "span"),
    ("repro.mappings.schema_mapping", "SchemaMapping.from_text", "parsing", "span"),
    ("repro.instance", "Instance.parse", "parsing", "span"),
    ("repro.service.ops", "parse_query", "parsing", "span"),
)

SERVER = (
    ("repro.service.http", "ExchangeService.handle", "service", "span"),
    ("repro.service.http", "validate_request", "parsing", "span"),
    ("repro.service.http", "ExchangeService._cached_response", "service.cache", "span"),
    ("repro.service.diskcache", "DiskCache.get", "diskcache", "span"),
    ("repro.service.diskcache", "DiskCache.put", "diskcache", "span"),
    ("repro.obs.registry", "RunRegistry.record", "registry", "span"),
    ("repro.service.pool", "WarmPool.submit", "pool", "span"),
    ("repro.service.pool", "PoolJob.result", "pool", "span"),
    ("repro.service.pool", "execute_op", "worker", "span"),
)

#: Parse functions, for the traced set-up probe.
PARSING = tuple(spec for spec in IN_PROCESS if spec[2] == "parsing")


def spec_id(spec) -> str:
    """A wrapper's name: ``module:attribute``."""
    return f"{spec[0]}:{spec[1]}"


def _only(specs, *paths) -> Tuple[str, ...]:
    chosen = tuple(spec_id(s) for s in specs if s[1] in paths)
    assert len(chosen) == len(paths), paths
    return chosen


def _all_but(specs, *paths) -> Tuple[str, ...]:
    assert len(_only(specs, *paths)) == len(paths)
    return tuple(spec_id(s) for s in specs if s[1] not in paths)


_SQL = ("open_store", "SqlStoreBase.add_all", "sql_chase")
_DIGESTS = ("Instance.digest", "SchemaMapping.digest")

#: Wrappers that must fire in each workload's traced run.  The in-process
#: loop parses its mappings before the wrappers are installed, and audits
#: run on ``serve`` only.
EXPECTED = {
    "exchange-sql": _only(IN_PROCESS, "ExchangeEngine.exchange", *_DIGESTS, *_SQL),
    "serve": _all_but(SERVER + IN_PROCESS, *_SQL),
}


def _request_id(layer: str, args, kwargs) -> Optional[str]:
    """The request id a cross-process root span is stitched by."""
    if layer == "service":
        context = kwargs.get("context", args[3] if len(args) > 3 else None)
        return getattr(context, "request_id", None)
    if layer == "worker":
        request = args[1] if len(args) > 1 else kwargs.get("request", {})
        return (request.get("trace") or {}).get("request_id")
    return None


class Recorder:
    """Spans and counts of one process, kept in memory until exit."""

    def __init__(self, role: str, out_dir: Optional[str] = None) -> None:
        self.role = role
        self.out_dir = out_dir
        self._reset()
        self._installed: List[Tuple[object, str, object]] = []

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.fired: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ------------------------------------------------------

    def span(self, name: str, fn: Callable, args=(), kwargs=None, rid=None):
        """Call ``fn(*args, **kwargs)`` inside a span named *name*."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, rid))

    def _wrap(self, spec: str, layer: str, kind: str, fn: Callable) -> Callable:
        recorder = self

        if kind == "count":
            def counted(*args, **kwargs):
                recorder.fired.add(spec)
                recorder.counts[layer] += 1
                return fn(*args, **kwargs)
            return counted

        if kind == "gen":
            def stepped(*args, **kwargs):
                recorder.fired.add(spec)
                iterator = fn(*args, **kwargs)
                while True:
                    try:
                        item = recorder.span(layer, next, (iterator,))
                    except StopIteration:
                        return
                    recorder.counts[f"{layer}.items"] += 1
                    yield item
            return stepped

        def wrapped(*args, **kwargs):
            recorder.fired.add(spec)
            rid = _request_id(layer, args, kwargs)
            result = recorder.span(layer, fn, args, kwargs, rid)
            if kind == "sizes":
                recorder.counts[f"{layer}.in"] += len(args[0])
                recorder.counts[f"{layer}.out"] += len(result)
            return result
        return wrapped

    # -- installing -----------------------------------------------------

    def install(self, specs) -> None:
        """Replace every named function by its wrapper."""
        for module_name, path, layer, kind in specs:
            spec = spec_id((module_name, path))
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(spec, layer, kind, raw.__func__))
            else:
                replacement = self._wrap(spec, layer, kind, getattr(owner, attr))
            self._installed.append((owner, attr, raw if raw is not None else getattr(owner, attr)))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every original function back (reverse order)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- writing --------------------------------------------------------

    def write(self) -> None:
        """Write this process's spans to ``<out_dir>/spans-<pid>.jsonl``."""
        if self.out_dir is None or os.getpid() != self.pid:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "w") as handle:
            header = {
                "pid": self.pid,
                "role": self.role,
                "fired": sorted(self.fired),
                "counts": dict(self.counts),
            }
            handle.write(json.dumps(header) + "\n")
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")

    def write_at_exit(self) -> None:
        """Write at interpreter exit, and in each forked pool worker at its exit."""
        atexit.register(self.write)
        multiprocessing.util.register_after_fork(self, Recorder._in_worker)

    def _in_worker(self) -> None:
        self._reset()
        self.role = "worker"
        multiprocessing.util.Finalize(self, self.write, exitpriority=10)


# -- reading and attributing ------------------------------------------------

#: Which process a cross-process root span is stitched under.
_UPSTREAM = {"server": "client", "worker": "server"}


def load(out_dir: str) -> Tuple[List[dict], Dict[str, object]]:
    """Every span file under *out_dir*: ``(spans, merged header)``."""
    spans: List[dict] = []
    fired: set = set()
    counts: Counter = Counter()
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("spans-") and name.endswith(".jsonl")):
            continue
        with open(os.path.join(out_dir, name)) as handle:
            header = json.loads(handle.readline())
            fired.update(header["fired"])
            counts.update(header["counts"])
            for line in handle:
                sid, parent, layer, start, end, rid = json.loads(line)
                spans.append({
                    "key": (header["pid"], sid),
                    "parent": None if parent is None else (header["pid"], parent),
                    "name": layer, "start": start, "end": end, "rid": rid,
                    "role": header["role"],
                })
    return spans, {"fired": fired, "counts": counts}


def attribute(spans: List[dict], root: str) -> Dict[str, object]:
    """Link spans into trees and compute each layer's self time.

    A root span of a downstream process (a server's request span, a
    worker's operation span) is placed under the smallest span of its
    upstream process that carries the same request id and contains it
    in time; all processes read the same monotonic clock.  Self time is
    a span's duration minus its children's.  The root spans named
    *root* are the operations; their own self time is ``unattributed``.
    """
    by_key = {span["key"]: span for span in spans}
    for span in spans:
        span["children"] = []
    # Every span inherits its tree root's request id.
    for span in sorted(spans, key=lambda s: s["start"]):
        node = span
        while node["parent"] is not None and node["parent"] in by_key:
            node = by_key[node["parent"]]
        span["root_rid"] = node["rid"]
    by_rid: Dict[Tuple[str, str], List[dict]] = {}
    for span in spans:
        if span["root_rid"] is not None:
            by_rid.setdefault((span["role"], span["root_rid"]), []).append(span)
    for span in spans:
        parent = by_key.get(span["parent"]) if span["parent"] else None
        if parent is None and span["rid"] and span["role"] in _UPSTREAM:
            candidates = [
                c for c in by_rid.get((_UPSTREAM[span["role"]], span["rid"]), ())
                if c["start"] <= span["start"] and span["end"] <= c["end"]
            ]
            if candidates:
                parent = min(candidates, key=lambda c: c["end"] - c["start"])
                span["parent"] = parent["key"]
        if parent is not None:
            parent["children"].append(span)
    self_ms: Counter = Counter()
    inclusive_ms: Counter = Counter()
    calls: Counter = Counter()
    wall = 0.0
    ops = 0
    for span in spans:
        duration = span["end"] - span["start"]
        own = duration - sum(c["end"] - c["start"] for c in span["children"])
        if span["name"] == root and span["parent"] is None:
            ops += 1
            wall += duration
            self_ms["unattributed"] += own * 1e3
            continue
        if span["parent"] is None:
            continue  # outside any operation (set-up, shutdown)
        self_ms[span["name"]] += own * 1e3
        calls[span["name"]] += 1
        ancestor = by_key.get(span["parent"])
        nested = False
        while ancestor is not None:
            if ancestor["name"] == span["name"]:
                nested = True
                break
            ancestor = by_key.get(ancestor["parent"]) if ancestor["parent"] else None
        if not nested:
            inclusive_ms[span["name"]] += duration * 1e3
    return {
        "ops": ops,
        "wall_ms": wall * 1e3,
        "self_ms": dict(self_ms),
        "inclusive_ms": dict(inclusive_ms),
        "calls": dict(calls),
    }
