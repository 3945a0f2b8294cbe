"""Non-termination coverage: both chases exhaust ``max_rounds`` on recursive
tgds, the partial trace survives the abort, and the CLI reports exit 3.
"""

from __future__ import annotations

import json

import pytest

from repro import Instance, chase, parse_dependency
from repro.chase.disjunctive import disjunctive_chase
from repro.chase.standard import ChaseNonTermination
from repro.cli import main
from repro.limits import Limits
from repro.obs import Tracer

RECURSIVE = parse_dependency("P(x, y) -> EXISTS z . P(y, z)")
FIVE_ROUNDS = Limits(max_rounds=5, on_exhausted="raise")
PAB = Instance.parse("P(a, b)")


class TestStandardChase:
    @pytest.mark.parametrize("variant", ["restricted", "oblivious"])
    def test_recursive_tgd_raises(self, variant):
        with pytest.raises(ChaseNonTermination, match="did not terminate"):
            chase(PAB, [RECURSIVE], variant=variant, limits=FIVE_ROUNDS)

    def test_partial_trace_survives_the_abort(self):
        tracer = Tracer()
        with pytest.raises(ChaseNonTermination):
            chase(PAB, [RECURSIVE], limits=FIVE_ROUNDS, tracer=tracer)
        fired = [e for e in tracer.events if e.kind == "trigger_fired"]
        assert fired, "the rounds before the abort must be on the tracer"
        assert max(e.round for e in fired) == 5
        assert tracer.metrics.counter("chase.nontermination") == 1
        # The provenance of the partial run still answers why().
        for event in fired:
            for f in event.added:
                assert tracer.provenance.why(f) is not None

    def test_terminating_chase_does_not_count_nontermination(self):
        tracer = Tracer()
        chase(
            Instance.parse("P(a, b, c)"),
            [parse_dependency("P(x, y, z) -> Q(x, y)")],
            tracer=tracer,
        )
        assert tracer.metrics.counter("chase.nontermination") == 0


class TestDisjunctiveChase:
    def test_recursive_tgd_raises(self):
        with pytest.raises(ChaseNonTermination, match="exceeded 5 rounds"):
            disjunctive_chase(PAB, [RECURSIVE], limits=FIVE_ROUNDS)

    def test_diverging_branch_closed_in_trace(self):
        tracer = Tracer()
        with pytest.raises(ChaseNonTermination):
            disjunctive_chase(PAB, [RECURSIVE], limits=FIVE_ROUNDS, tracer=tracer)
        closed = [e for e in tracer.events if e.kind == "branch_closed"]
        assert any(e.reason == "nonterminating" for e in closed)
        assert tracer.metrics.counter("chase.nontermination") == 1


class TestCliNonTermination:
    def test_chase_exit_code_3_and_trace_flushed(self, capsys, tmp_path):
        trace_path = tmp_path / "partial.jsonl"
        code = main(
            [
                "chase",
                "--mapping", "P(x, y) -> EXISTS z . P(y, z)",
                "--instance", "P(a, b)",
                "--trace", str(trace_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "did not terminate" in captured.err
        lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert any(l["kind"] == "trigger_fired" for l in lines)

    def test_reverse_exit_code_3(self, capsys, tmp_path):
        trace_path = tmp_path / "partial.jsonl"
        code = main(
            [
                "reverse",
                "--mapping", "P(x, y) -> EXISTS z . P(y, z)",
                "--instance", "P(a, b)",
                "--trace", str(trace_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "did not terminate" in captured.err
        assert trace_path.exists() and trace_path.read_text().strip()
