"""The closed loop of the exchange-sql workload, run in a child process.

``python loop.py JOB RESULT`` reads the job ``run.py`` wrote, builds the
inputs, and runs the workload's deck in passes from one caller until
``seconds`` have passed and at least ``min_passes`` untraced passes (and
``min_ops`` operations) ran, always finishing the current pass.  Each
operation is timed from the engine's construction to its return, as one
``repro`` CLI call makes them; building the next input and reducing the
output to its canonical hash happen between operations, outside the
timer.

``python loop.py --setup JOB`` is the set-up probe: a fresh interpreter
imports ``repro``, builds the workload's engine, parses its mappings and
opens the SQL store, then exits.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time

import decks
import oracle
import spans


def _engine_factory(tmp: str):
    from repro import ExchangeEngine

    store = f"sqlite:{os.path.join(tmp, 'store.db')}"
    return lambda: ExchangeEngine(store=store, sql_chase=True)


def setup_probe(job: dict) -> None:
    recorder = None
    if job["trace"]:
        recorder = spans.Recorder("setup")
        recorder.install(spans.PARSING)
    import repro  # noqa: F401  (the import is what is being timed)
    from repro import SchemaMapping
    from repro.store import open_store

    engine = _engine_factory(job["tmp"])()
    for text in job["mappings"]:
        SchemaMapping.from_text(text)
    open_store(f"sqlite:{os.path.join(job['tmp'], 'setup.db')}", fresh=True).close()
    del engine
    if recorder is not None:
        parse_ms = sum(end - start for _, _, _, start, end, _ in recorder.spans) * 1e3
        print(json.dumps({"parse_ms": parse_ms}))


def run(job: dict) -> dict:
    from repro import SchemaMapping

    deck = decks.build(job["workload"], job["seed"], job["seconds"])
    expected = {int(k): v for k, v in job["expected"].items()}
    make_engine = _engine_factory(job["tmp"])
    mappings = {b.mapping: SchemaMapping.from_text(b.mapping) for b in deck.bases}

    def call(base, source):
        """One operation; returns ``(engine, output instance)``."""
        engine = make_engine()
        return engine, engine.exchange(mappings[base.mapping], source).instance

    recorder = spans.Recorder("loop", job["tmp"]) if job["trace"] else None
    bases = {b.id: b for b in deck.bases}
    corrupt_every = job.get("corrupt_every", 0)
    records = []
    mismatches = {}
    tag = 0

    # Warm-up (untimed): the smallest bulk op and the closure, so that one-time
    # lazy imports inside the program are not timed as operations.
    seen = set()
    for base in sorted(deck.bases, key=lambda b: len(b.facts)):
        if (base.scenario == "closure") not in seen:
            seen.add(base.scenario == "closure")
            call(base, oracle.instance(base.facts, tag=10**6 + len(seen)))
    # Keep the harness's own long-lived objects out of the program's
    # garbage collections.
    gc.collect()
    gc.freeze()

    started = time.perf_counter()
    index = 0
    while True:
        traced = recorder is not None and index % 2 == 1
        if traced:
            recorder.install(spans.IN_PROCESS)
        for base_id in deck.pass_order(index):
            base = bases[base_id]
            tag += 1
            source = oracle.instance(base.facts, tag)
            begin = time.perf_counter()
            if traced:
                engine, output = recorder.span("op", call, (base, source))
            else:
                engine, output = call(base, source)
            latency = time.perf_counter() - begin
            text = decks.untag(str(output), tag)
            if corrupt_every and tag % corrupt_every == 0:
                text += " corrupted"
            hashed = oracle.digest(text)
            ok = hashed == expected[base_id]
            if not ok and (base_id, hashed) not in mismatches:
                mismatches[(base_id, hashed)] = text
            record = {"pass": index, "base": base_id, "latency": latency,
                      "ok": ok, "hash": hashed, "traced": traced}
            if traced:
                stats = engine.stats()
                record["stats"] = {
                    op: {k: stats[op][k] for k in
                         ("calls", "hits", "steps", "rounds", "triggers")}
                    for op in ("chase", "reverse", "core", "answer", "audit", "hom")
                }
            records.append(record)
            del engine, output, source
        if traced:
            recorder.uninstall()
        index += 1
        elapsed = time.perf_counter() - started
        if elapsed > job["cap_seconds"]:
            break
        untraced_passes = index if recorder is None else index // 2
        if (elapsed >= job["seconds"] and len(records) >= job["min_ops"]
                and untraced_passes >= job["min_passes"]):
            if recorder is None or index % 2 == 0:
                break
    if recorder is not None:
        recorder.write()
    return {
        "records": records,
        "passes": index,
        "mismatches": [
            {"base": b, "hash": h, "text": t} for (b, h), t in mismatches.items()
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv) -> int:
    if argv[0] == "--setup":
        with open(argv[1]) as handle:
            setup_probe(json.load(handle))
        return 0
    with open(argv[0]) as handle:
        job = json.load(handle)
    result = run(job)
    with open(argv[1], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
