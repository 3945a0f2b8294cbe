"""Fast checks of the benchmark itself.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
Each workload runs for one or two seconds with lowered minimums.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import decks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture
def bench(monkeypatch, capsys):
    """Run the benchmark in-process; returns (exit code, stdout, result)."""
    monkeypatch.setattr(run, "MIN_OPS", 5)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "SERVE_SETUP_RUNS", 1)

    def call(*argv):
        code = run.main(list(argv))
        out = capsys.readouterr().out
        return code, out, json.loads(out.strip().splitlines()[-1])

    return call


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = decks.build(workload, 7, 2).digest()
    assert decks.build(workload, 7, 2).digest() == first
    assert decks.build(workload, 8, 2).digest() != first


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_prints_every_end_to_end_metric(bench, workload):
    code, out, result = bench("--workload", workload, "--seed", "3",
                              "--seconds", "1", "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 5
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert name in out
    assert "error_rate" in out and "samples" in out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_layer_metric(bench, workload):
    code, out, result = bench("--workload", workload, "--seed", "3",
                              "--seconds", "2", "--trace", "1")
    assert code == 0 and result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    # Self times plus the unattributed row add up to the traced wall time.
    total = sum(metrics[f"self_ms.{layer}"]["value"] for layer in run.LAYERS)
    assert total == pytest.approx(metrics["trace.wall_ms"]["value"], rel=1e-9)
    assert metrics["trace.ops_per_s_traced"]["value"] > 0
    assert "unattributed" in out


@pytest.mark.parametrize("workload", ["exchange-sql", "serve"])
def test_corrupted_output_counts_as_error(bench, workload):
    code, _, result = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", "0", "--corrupt-every", "2")
    assert code == 0
    assert not result["correct"]
    assert result["failed"] >= result["attempted"] // 2 - 1 > 0
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exchange-sql", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_claims_record_the_decks_shares():
    with open(os.path.join(BENCH, "claims.json")) as handle:
        claims = json.load(handle)
    for workload in run.WORKLOADS:
        shares = claims["workloads"][workload]["shares"]
        assert shares == json.loads(json.dumps(decks.describe(decks.build(workload, 1, 30))))


def test_committed_references_cover_the_reverse_pool():
    keys = {oracle.pool_key(base) for base in decks.reverse_pool()}
    assert keys == set(oracle.committed())


def test_every_wrapper_must_fire():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro import Instance

    recorder = spans.Recorder("test")
    recorder.install(spans.IN_PROCESS)
    try:
        Instance().digest()
    finally:
        recorder.uninstall()
    assert recorder.fired == {"repro.instance:Instance.digest"}
    # Another wrapper of the same layer (digest) that never fired is reported.
    with pytest.raises(RuntimeError, match="SchemaMapping.digest"):
        run._check_fired("exchange-sql", recorder.fired)


def test_outputs_match_up_to_null_renaming():
    reference = "{P(cx00001, _N1), Q(_N1, _N2)}"
    assert oracle.matches("exchange", "{P(cx00001, _X), Q(_X, _Y)}", reference)
    assert not oracle.matches("exchange", "{P(cx00001, _X), Q(_Y, _Y)}", reference)
    # A forward result hom-equivalent to the reference is also correct.
    assert oracle.matches("exchange", reference[:-1] + ", Q(_N1, _N3)}", reference)
    assert oracle.matches("reverse", "{}\n{P(cx00001, _A)}", "{P(cx00001, _B)}\n{}")
    assert not oracle.matches("reverse", "{P(cx00001, _A)}", "{P(cx00001, cx00002)}")
