"""The repository benchmark: two seeded workloads, checked outputs.

Usage (from anywhere; the program is imported from ``../src``)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``exchange-sql``  - ``ExchangeEngine.exchange`` through the SQLite SQL
  chase;
* ``serve``         - ``repro serve`` with two client connections:
  chase, reverse, answer and audit requests.

``exchange-sql`` runs its deck in passes (at least ``MIN_PASSES``); an
operation's latency is its base's median over the passes, so a slow
spell of the host that covers fewer than half of them does not move the
figures.  ``serve`` reports over its whole stream.

The run prints a table of every metric with its unit and sample count,
then, as its last line, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps each layer's functions (``spans.py``), prints the
self-time table, and reports the per-layer metrics.  Spans are written
to ``.perfbench/spans-<workload>-<seed>.jsonl`` in the checkout.

Exit status is 0 on a completed run (whatever the outputs' correctness:
see ``correct``), 2 when the program is missing, 1 on any other failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import decks  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("exchange-sql", "serve")

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "fraction"),
)

#: Layers of the self-time table (span names; see spans.py).
LAYERS = (
    "parsing", "engine", "digest", "chase", "store.open", "store.load",
    "sqlplan", "reverse", "quotient", "disjunctive", "minimize", "core",
    "recovery", "answer", "service", "service.cache", "diskcache",
    "registry", "pool", "worker", "unattributed",
)

ENGINE_CACHES = ("chase", "reverse", "core", "answer")

#: Per-layer metrics: (name, unit).  Times are ms per operation, counts
#: are per operation, and every ratio is listed after its base.
PER_LAYER = (
    ("parsing.setup_ms", "ms"),
    ("parsing.ms", "ms/op"),
    ("chase.ms", "ms/op"),
    ("chase.triggers", "count/op"),
    ("chase.steps", "count/op"),
    ("chase.useful_ratio", "ratio"),
    ("chase.rounds", "count/op"),
    ("store.open_ms", "ms/op"),
    ("store.load_ms", "ms/op"),
    ("sqlplan.ms", "ms/op"),
    ("sqlplan.rounds", "count/op"),
    ("sqlplan.ms_per_round", "ms"),
    ("sqlplan.triggers", "count/op"),
    ("sqlplan.steps", "count/op"),
    ("sqlplan.useful_ratio", "ratio"),
    ("quotient.worlds", "count/op"),
    ("quotient.ms", "ms/op"),
    ("disjunctive.calls", "count/op"),
    ("disjunctive.ms", "ms/op"),
    ("minimize.ms", "ms/op"),
    ("branches.raw", "count/op"),
    ("branches.kept", "count/op"),
    ("branches.kept_ratio", "ratio"),
    ("homs.checks", "count/op"),
    ("core.ms", "ms/op"),
    ("inverses.recovery_ms", "ms/op"),
    ("answer.ms", "ms/op"),
    ("engine.self_ms", "ms/op"),
    ("engine.digest_ms", "ms/op"),
) + tuple(
    (f"engine.{kind}.{cache}", unit)
    for cache in ENGINE_CACHES
    for kind, unit in (("calls", "count/op"), ("hit_rate", "fraction"))
) + (
    ("service.requests", "count"),
    ("service.worker_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.hits", "count"),
    ("service.hit_ms", "ms"),
    ("service.hit_rate.memory", "fraction"),
    ("service.hit_rate.disk", "fraction"),
    ("pool.rejected", "count"),
    ("pool.respawns", "count"),
    ("pool.failed", "count"),
    ("trace.ops", "count"),
    ("trace.wall_ms", "ms/op"),
    ("trace.ops_per_s_untraced", "ops/s"),
    ("trace.ops_per_s_traced", "ops/s"),
    ("trace.overhead", "fraction"),
) + tuple((f"self_ms.{layer}", "ms/op") for layer in LAYERS)

SETUP_RUNS = 5
SERVE_SETUP_RUNS = 3
MIN_OPS = 100
#: Untraced passes of an in-process run: each base's latency is its
#: median over them.
MIN_PASSES = 5
#: Untraced (and as many traced) passes of a traced run, which reports
#: per-layer totals rather than medians.
TRACED_MIN_PASSES = 2
#: Hard stop (wall clock) for a loop, so a run exits well inside 180 s.
CAP_SECONDS = 100


# -- statistics ------------------------------------------------------------


def p90(values: List[float]) -> float:
    """Nearest-rank 90th percentile (at least 10 samples lie above it
    once there are 100)."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def end_to_end(latencies, wall, setups, rss_mb, attempted, failed) -> Dict[str, float]:
    return {
        "ops_per_s": len(latencies) / wall,
        "p50_ms": statistics.median(latencies) * 1e3,
        "p90_ms": p90(latencies) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "success_rate": 1.0 - failed / attempted,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(attributed: dict, counts: dict, ops: int) -> Dict[str, float]:
    """The span-derived per-layer metrics (per operation)."""
    inclusive = attributed["inclusive_ms"]
    calls = attributed["calls"]
    per = lambda value: _ratio(value, ops)  # noqa: E731
    raw, kept = counts.get("minimize.in", 0), counts.get("minimize.out", 0)
    out = {
        "parsing.ms": per(inclusive.get("parsing", 0.0)),
        "chase.ms": per(inclusive.get("chase", 0.0)),
        "store.open_ms": per(inclusive.get("store.open", 0.0)),
        "store.load_ms": per(inclusive.get("store.load", 0.0)),
        "sqlplan.ms": per(inclusive.get("sqlplan", 0.0)),
        "quotient.worlds": per(counts.get("quotient.items", 0)),
        "quotient.ms": per(inclusive.get("quotient", 0.0)),
        "disjunctive.calls": per(calls.get("disjunctive", 0)),
        "disjunctive.ms": per(inclusive.get("disjunctive", 0.0)),
        "minimize.ms": per(inclusive.get("minimize", 0.0)),
        "branches.raw": per(raw),
        "branches.kept": per(kept),
        "branches.kept_ratio": _ratio(kept, raw),
        "homs.checks": per(counts.get("homs.checks", 0)),
        "core.ms": per(inclusive.get("core", 0.0)),
        "inverses.recovery_ms": per(inclusive.get("recovery", 0.0)),
        "answer.ms": per(inclusive.get("answer", 0.0)),
        "engine.self_ms": per(attributed["self_ms"].get("engine", 0.0)),
        "engine.digest_ms": per(inclusive.get("digest", 0.0)),
        "trace.ops": ops,
        "trace.wall_ms": per(attributed["wall_ms"]),
    }
    for layer in LAYERS:
        out[f"self_ms.{layer}"] = per(attributed["self_ms"].get(layer, 0.0))
    return out


def chase_counts(totals: dict, ops: int, sql: bool) -> Dict[str, float]:
    prefix = "sqlplan" if sql else "chase"
    out = {f"{p}.{k}": 0.0 for p in ("chase", "sqlplan")
           for k in ("rounds", "triggers", "steps", "useful_ratio")}
    for key in ("rounds", "triggers", "steps"):
        out[f"{prefix}.{key}"] = _ratio(totals.get(key, 0), ops)
    out[f"{prefix}.useful_ratio"] = _ratio(totals.get("steps", 0), totals.get("triggers", 0))
    return out


def stored_references(deck) -> Dict[int, str]:
    """The deck's references, kept under ``.perfbench/refs`` per seed.

    The forward references are the naive chase of the program in the
    checkout, so the cache is keyed on its source too; the reverse and
    answer references are read from the committed file.
    """
    source = hashlib.sha256(deck.digest().encode())
    with open(oracle.COMMITTED, "rb") as handle:
        source.update(handle.read())
    for directory, _, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    source.update(name.encode() + handle.read())
    path = os.path.join(ROOT, ".perfbench", "refs",
                        f"{deck.workload}-{deck.seed}-{source.hexdigest()[:16]}.json")
    if os.path.isfile(path):
        with open(path) as handle:
            return {int(k): v for k, v in json.load(handle).items()}
    references = oracle.references(deck)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as handle:
        json.dump(references, handle)
    os.replace(path + ".tmp", path)
    return references


# -- in-process workloads -----------------------------------------------------


def _python(args, env, timeout):
    return subprocess.run([sys.executable] + args, env=env, capture_output=True,
                          text=True, timeout=timeout, check=True)


def run_in_process(deck, expected, references, args, env, tmp) -> dict:
    setup_job = {"workload": deck.workload, "trace": args.trace, "tmp": tmp,
                 "mappings": sorted({b.mapping for b in deck.bases})}
    setup_path = os.path.join(tmp, "setup.json")
    with open(setup_path, "w") as handle:
        json.dump(setup_job, handle)
    setups, parse_ms = [], 0.0
    for _ in range(1 if args.trace else SETUP_RUNS):
        begin = time.perf_counter()
        done = _python([os.path.join(HERE, "loop.py"), "--setup", setup_path], env, 60)
        setups.append(time.perf_counter() - begin)
        if args.trace:
            parse_ms = json.loads(done.stdout.strip().splitlines()[-1])["parse_ms"]

    job = {"workload": deck.workload, "seed": deck.seed, "seconds": args.seconds,
           "trace": args.trace, "tmp": tmp, "min_ops": MIN_OPS,
           "min_passes": TRACED_MIN_PASSES if args.trace else MIN_PASSES,
           "cap_seconds": CAP_SECONDS, "corrupt_every": args.corrupt_every,
           "expected": expected}
    job_path, result_path = os.path.join(tmp, "job.json"), os.path.join(tmp, "result.json")
    with open(job_path, "w") as handle:
        json.dump(job, handle)
    _python([os.path.join(HERE, "loop.py"), job_path, result_path], env, 170)
    with open(result_path) as handle:
        result = json.load(handle)

    ops_by_base = {b.id: b.op for b in deck.bases}
    verdicts = {
        (m["base"], m["hash"]): oracle.matches(ops_by_base[m["base"]], m["text"],
                                               references[m["base"]])
        for m in result["mismatches"]
    }
    records = result["records"]
    for record in records:
        record["ok"] = record["ok"] or verdicts[(record["base"], record["hash"])]
    timed = [r for r in records if not r["traced"]]
    latencies = typical_pass(deck, timed)
    failed = sum(1 for r in records if not r["ok"])
    out = {"attempted": len(records), "failed": failed, "samples": len(timed),
           "passes": len({r["pass"] for r in timed})}
    out["metrics"] = end_to_end(latencies, sum(latencies), setups,
                                result["peak_rss_mb"], len(records), failed)
    out["setups"] = len(setups)
    if args.trace:
        traced = [r for r in records if r["traced"]]
        span_list, header = spans.load(tmp)
        _check_fired(deck.workload, header["fired"])
        attributed = spans.attribute(span_list, root="op")
        layer = layer_metrics(attributed, header["counts"], len(traced))
        layer["parsing.setup_ms"] = parse_ms
        totals: Dict[str, Dict[str, float]] = {}
        for record in traced:
            for op, row in record["stats"].items():
                for key, value in row.items():
                    totals.setdefault(op, {}).setdefault(key, 0)
                    totals[op][key] += value
        layer.update(chase_counts(totals["chase"], len(traced),
                                  deck.workload == "exchange-sql"))
        layer["sqlplan.ms_per_round"] = _ratio(
            layer["sqlplan.ms"] * len(traced), totals["chase"]["rounds"]
        ) if deck.workload == "exchange-sql" else 0.0
        for cache in ENGINE_CACHES:
            row = totals[cache]
            layer[f"engine.calls.{cache}"] = _ratio(row["calls"], len(traced))
            layer[f"engine.hit_rate.{cache}"] = _ratio(row["hits"], row["calls"])
        untraced_ops = len(latencies) / sum(latencies)
        traced_ops = len(deck.order) / sum(typical_pass(deck, traced))
        layer.update(_overhead(untraced_ops, traced_ops))
        for name, _ in PER_LAYER:
            layer.setdefault(name, 0.0)
        out["layer"] = layer
        out["attributed"] = attributed
        out["spans"] = span_list
    return out


def typical_pass(deck, records) -> List[float]:
    """One pass of the deck, each operation at its base's median latency.

    Every pass runs the deck's order (shuffled), so a base's median over
    the passes is its latency with the host's transient slow spells
    filtered out.
    """
    samples: Dict[int, List[float]] = {}
    for record in records:
        samples.setdefault(record["base"], []).append(record["latency"])
    typical = {base: statistics.median(values) for base, values in samples.items()}
    return [typical[base] for base in deck.order]


def _overhead(untraced: float, traced: float) -> Dict[str, float]:
    return {"trace.ops_per_s_untraced": untraced, "trace.ops_per_s_traced": traced,
            "trace.overhead": 1.0 - traced / untraced}


def _check_fired(workload: str, fired) -> None:
    missing = sorted(set(spans.EXPECTED[workload]) - set(fired))
    if missing:
        raise RuntimeError(f"layer wrappers never fired: {missing}")


# -- serve ---------------------------------------------------------------------


def run_serve(deck, expected, references, args, env, tmp) -> dict:
    import serve

    setups = [] if args.trace else serve.setup_times(env, tmp, SERVE_SETUP_RUNS)
    runs = serve.run(deck, expected, references, env, tmp, bool(args.trace),
                     args.corrupt_every)
    untraced = runs["untraced"]
    records = untraced["records"]
    latencies = [r["latency"] for r in records]
    failed = sum(1 for r in records if not r["ok"])
    out = {"attempted": len(records), "failed": failed, "samples": len(latencies),
           "passes": 1, "setups": len(setups)}
    out["metrics"] = end_to_end(latencies, untraced["wall"], setups or [float("nan")],
                                untraced["peak_rss_mb"], len(records), failed)
    if args.trace:
        traced = runs["traced"]
        trecords = traced["records"]
        out["attempted"] += len(trecords)
        out["failed"] += sum(1 for r in trecords if not r["ok"])
        span_list, header = spans.load(traced["spans_dir"])
        _check_fired("serve", header["fired"])
        attributed = spans.attribute(span_list, root="client")
        ops = len(trecords)
        layer = layer_metrics(attributed, header["counts"], ops)
        misses = [r for r in trecords if r["layer"] is None and r["worker_ms"] is not None]
        hits = [r for r in trecords if r["layer"] is not None]
        pool = traced["health"]["pool"]
        layer.update({
            "service.requests": ops,
            "service.worker_ms": _ratio(sum(r["worker_ms"] for r in misses), len(misses)),
            "service.overhead_ms": _ratio(
                sum(r["latency"] * 1e3 - r["worker_ms"] for r in misses), len(misses)),
            "service.hits": len(hits),
            "service.hit_ms": _ratio(sum(r["latency"] for r in hits) * 1e3, len(hits)),
            "service.hit_rate.memory": _ratio(
                sum(1 for r in hits if r["layer"] == "memory"), ops),
            "service.hit_rate.disk": _ratio(
                sum(1 for r in hits if r["layer"] == "disk"), ops),
            "pool.rejected": pool["rejected"],
            "pool.respawns": pool["respawns"],
            "pool.failed": pool["failed"],
        })
        chased = [r["chase"] for r in misses if r["op"] == "chase"]
        layer.update(chase_counts(
            {k: sum(c[k] for c in chased) for k in ("rounds", "steps", "triggers")},
            ops, sql=False))
        for cache in ("chase", "reverse", "answer"):
            reached = [r for r in misses if r["op"] == cache]
            layer[f"engine.calls.{cache}"] = _ratio(len(reached), ops)
            layer[f"engine.hit_rate.{cache}"] = _ratio(
                sum(1 for r in reached if r["engine_hit"]), len(reached))
        layer.update(_overhead(len(records) / untraced["wall"],
                               len(trecords) / traced["wall"]))
        for name, _ in PER_LAYER:
            layer.setdefault(name, 0.0)
        out["layer"] = layer
        out["attributed"] = attributed
        out["spans"] = span_list
    return out


# -- reporting -------------------------------------------------------------------


def print_report(args, deck, out) -> None:
    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 {deck.digest()}")
    print(f"operations: {out['attempted']} attempted, {out['failed']} failed "
          f"(error_rate {out['failed'] / out['attempted']:.4f})")
    if not args.trace:
        m = out["metrics"]
        n = out["samples"]
        if args.workload == "serve":
            beyond = n - math.ceil(0.9 * n)
            over = f"{n} samples"
        else:
            pass_ops = len(deck.order)
            beyond = (pass_ops - math.ceil(0.9 * pass_ops)) * out["passes"]
            over = f"{n} samples: per-op medians over {out['passes']} passes"
        rows = [
            ("ops_per_s", m["ops_per_s"], "ops/s", over),
            ("p50_ms", m["p50_ms"], "ms", over),
            ("p90_ms", m["p90_ms"], "ms", f"{over}, {beyond} beyond p90"),
            ("setup_s", m["setup_s"], "s", f"median of {out['setups']} set-ups"),
            ("peak_rss_mb", m["peak_rss_mb"], "MB", "program processes"),
            ("error_rate", out["failed"] / out["attempted"], "fraction",
             f"{out['failed']}/{out['attempted']}"),
            ("success_rate", m["success_rate"], "fraction",
             f"{out['attempted'] - out['failed']}/{out['attempted']}"),
        ]
        print(f"{'metric':<14}{'value':>14}  {'unit':<9}samples")
        for name, value, unit, note in rows:
            print(f"{name:<14}{value:>14.4f}  {unit:<9}{note}")
        return
    attributed = out["attributed"]
    ops = attributed["ops"]
    wall = attributed["wall_ms"]
    print(f"self time over {ops} traced operations, {wall / ops:.3f} ms/op wall:")
    print(f"{'layer':<16}{'self ms/op':>12}{'share':>9}{'calls/op':>10}")
    for layer in LAYERS:
        own = attributed["self_ms"].get(layer, 0.0)
        if own == 0.0 and layer != "unattributed":
            continue
        calls = attributed["calls"].get(layer, ops if layer == "unattributed" else 0)
        print(f"{layer:<16}{own / ops:>12.3f}{own / wall:>9.1%}{calls / ops:>10.2f}")
    total = sum(attributed["self_ms"].values())
    print(f"{'total':<16}{total / ops:>12.3f}{total / wall:>9.1%}")
    units = dict(PER_LAYER)
    for name, _ in PER_LAYER:
        print(f"  {name:<28}{out['layer'][name]:>14.4f} {units[name]}")


def write_spans(args, span_list) -> None:
    directory = os.path.join(ROOT, ".perfbench")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"spans-{args.workload}-{args.seed}.jsonl")
    with open(path, "w") as handle:
        for span in span_list:
            handle.write(json.dumps({
                "id": list(span["key"]), "parent": span["parent"] and list(span["parent"]),
                "name": span["name"], "start": span["start"], "end": span["end"],
                "rid": span["rid"],
            }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-every", type=int, default=0,
                        help="test hook: corrupt every Nth output before checking")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    tmp = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(tmp)
    try:
        deck = decks.build(args.workload, args.seed, args.seconds)
        references = stored_references(deck)
        expected = {base_id: oracle.digest(text) for base_id, text in references.items()}
        runner = run_serve if args.workload == "serve" else run_in_process
        out = runner(deck, expected, references, args, env, tmp)
        print_report(args, deck, out)
        if args.trace:
            write_spans(args, out["spans"])
            metrics = {name: {"value": out["layer"][name], "unit": unit}
                       for name, unit in PER_LAYER}
        else:
            metrics = {name: {"value": out["metrics"][name], "unit": unit}
                       for name, unit in END_TO_END}
    except (subprocess.SubprocessError, RuntimeError, OSError) as error:
        detail = getattr(error, "stderr", "") or ""
        print(f"error: {error}\n{detail}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
