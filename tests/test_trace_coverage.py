"""The benchmark's traced-span requirements, checked on tiny inputs.

``perfbench/tracing.py`` names, per workload, every function and layer method
that a traced job must call (and those it must not). A change that stops
calling one breaks ``perfbench/run.py --trace 1``; this test shows it in the
test suite. The tracer is imported read-only, as ``perfbench/test_perfbench.py``
imports it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from dst_lab.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def _invoke(tracer: tracing.Tracer, args: list[str], *, detail: bool = True) -> None:
    """``dst-lab args`` inside a ``cli.<command>`` span, as the benchmark opens it."""
    with tracer.span(f"cli.{args[0]}"):
        if detail:
            result = CliRunner().invoke(main, args)
        else:
            with tracer.paused():
                result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output


def _traced(jobs) -> dict[str, tracing.SpanStats]:
    """Span statistics of one job whose commands ``jobs(tracer)`` invokes."""
    tracer = tracing.Tracer()
    with tracer.installed():
        jobs(tracer)
    return tracing.aggregate(tracer.records())[0]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("trace") / "corpus"
    args = ["synth", "--seed", "3", "--n-dialogues", "3", "--turns-per-dialogue", "6", "--feature-dim", "8"]
    result = CliRunner().invoke(main, [*args, "--frames-per-token", "2", "--out", str(path)])
    assert result.exit_code == 0, result.output
    return path


@pytest.mark.parametrize(
    "workload, strategy", [("compressed_long", ["compressed", "--n-queries", "4"]), ("multimodal_long", ["multimodal"])]
)
def test_run_and_evaluate_call_every_span_their_workload_requires(corpus, tmp_path, workload, strategy):
    run, report = tmp_path / "run", tmp_path / "report"

    def jobs(tracer):
        _invoke(tracer, ["run", "--corpus", str(corpus), "--strategy", *strategy, "--predictor", "noisy", "--out", str(run)])
        _invoke(
            tracer,
            ["evaluate", "--predictions", str(run / "predictions.ndjson"), "--corpus", str(corpus), "--out", str(report)],
        )

    assert tracing.coverage_problems(_traced(jobs), workload) == []


def test_probe_and_gradcheck_call_every_span_probe_train_requires(tmp_path):
    def jobs(tracer):
        probe = ["probe", "--n-queries", "1", "--n-queries", "2", "--epochs", "2", "--seeds", "0"]
        _invoke(tracer, [*probe, "--n-dialogues", "4", "--turns-per-dialogue", "2", "--out", str(tmp_path / "p.csv")])
        _invoke(tracer, ["gradcheck"], detail=False)

    assert tracing.coverage_problems(_traced(jobs), "probe_train") == []
