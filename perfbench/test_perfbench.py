"""Self-tests for the benchmark's own arithmetic and wiring.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


def span(name, start, end, parent=-1, job=0, attr=None):
    return (name, start, end, parent, job, attr)


# ---------------------------------------------------------------------------
# Self time and aggregation
# ---------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        span("root", 0, 100),
        span("a", 10, 30, parent=0),
        span("b", 20, 50, parent=0),  # overlaps a: [10, 50] is covered once
        span("c", 90, 120, parent=0),  # only [90, 100] lies inside the parent
        span("leaf", 12, 18, parent=1),  # a grandchild does not count for root
    ]
    assert tracing.self_times(spans) == [50, 14, 30, 30, 6]


def test_self_time_of_sequential_children():
    spans = [span("p", 0, 10), span("x", 1, 3, 0), span("y", 3, 4, 0), span("z", 6, 10, 0)]
    assert tracing.self_times(spans)[0] == 3


def test_aggregate_groups_by_job_and_name():
    spans = [
        span("cli.run", 0, 100, job=1),
        span("f", 10, 40, parent=0, job=1, attr=5),
        span("f", 50, 60, parent=0, job=1, attr=7),
        span("cli.run", 200, 260, job=3),
    ]
    per_job = tracing.aggregate(spans)
    assert sorted(per_job) == [1, 3]
    f = per_job[1]["f"]
    assert (f.calls, f.busy_ns, f.self_ns, f.attrs) == (2, 40, 40, [5, 7])
    assert per_job[1]["cli.run"].self_ns == 60
    assert per_job[3]["cli.run"].busy_ns == 60


def test_combine_jobs_requires_counts_to_repeat_and_takes_median_times():
    jobs = [{"a.calls": 4.0, "a.busy_s": 1.0}, {"a.calls": 4.0, "a.busy_s": 3.0}, {"a.calls": 4.0, "a.busy_s": 2.0}]
    combined, problems = tracing.combine_jobs(jobs)
    assert combined == {"a.calls": 4.0, "a.busy_s": 2.0} and problems == []
    jobs[1]["a.calls"] = 5.0
    _, problems = tracing.combine_jobs(jobs)
    assert len(problems) == 1 and "a.calls" in problems[0]


def test_job_metrics_ratios():
    stats_by_span = {
        "pipeline.compress_turn": tracing.SpanStats(calls=8, attrs=[("d", 1)] * 4 + [("d", 2)] * 4),
        "metrics.turn_correct": tracing.SpanStats(calls=30),
        "metrics.evaluate": tracing.SpanStats(calls=1, attrs=[10]),
        "train.train": tracing.SpanStats(calls=3),
    }
    metrics = tracing.job_metrics(stats_by_span, configs=2)
    assert metrics["pipeline.compress_turn.distinct_ratio"] == 0.25
    assert metrics["metrics.turn_correct.calls_per_pair"] == 3.0
    assert metrics["train.useful_ratio"] == pytest.approx(2 / 3)
    assert metrics["assembly.embed_turn.distinct_ratio"] == 0.0  # no calls, no division


def test_coverage_flags_missing_and_unexpected_calls():
    expected = tracing.expected_callers()
    full = {name: tracing.SpanStats(calls=1) for name, where in expected.items() if "probe_train" in where}
    assert tracing.coverage_problems(full, "probe_train") == []
    missing = dict(full)
    del missing["train.train"]
    missing["pipeline.compress_turn"] = tracing.SpanStats(calls=3)
    problems = tracing.coverage_problems(missing, "probe_train")
    assert any("train.train recorded no calls" in p for p in problems)
    assert any("pipeline.compress_turn recorded 3 calls" in p for p in problems)


# ---------------------------------------------------------------------------
# Wrappers on the real package
# ---------------------------------------------------------------------------


def test_wrappers_patch_the_callers_attribute_and_restore_it():
    import dst_lab.metrics as metrics
    import dst_lab.postprocess as postprocess
    from dst_lab.corpus import DialogueState

    original = postprocess.values_match
    tracer = tracing.Tracer()
    state = DialogueState(["hotel"], {("hotel", "name"): "alpha lodge"})
    with tracer.installed():
        assert metrics.values_match is not original
        assert metrics.jga({("d", 1): state}, {("d", 1): state}, postprocess.MatchPolicy()) == 1.0
    assert metrics.values_match is original and postprocess.values_match is original
    per_job = tracing.aggregate(tracer.records())[0]
    assert per_job["metrics.turn_correct"].calls == 1
    assert per_job["postprocess.values_match"].calls == 1
    assert per_job["metrics.align"].calls == 1


def test_attention_spans_split_self_from_cross():
    import numpy as np
    from dst_lab.neural.pipeline import CompressorConfig, build_compressor

    compressor = build_compressor(CompressorConfig(d_model=8, n_heads=2, n_queries=2))
    memory = np.random.default_rng(0).standard_normal((1, 5, 8))
    tracer = tracing.Tracer()
    with tracer.installed():
        out = compressor.forward(memory)
        compressor.backward(np.ones_like(out))
    calls = {name: s.calls for name, s in tracing.aggregate(tracer.records())[0].items()}
    for kind in ("self", "cross"):
        for method in ("forward", "backward"):
            assert calls[f"layers.MultiHeadAttention.{kind}.{method}"] == 1
    assert calls["layers.Compressor.forward"] == calls["layers.DecoderLayer.backward"] == 1


def test_paused_tracer_records_only_the_outer_span():
    import dst_lab.postprocess as postprocess

    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("cli.gradcheck"), tracer.paused():
        postprocess.values_match("a", "a", "open", postprocess.MatchPolicy())
    assert tracer.names == ["cli.gradcheck"]


# ---------------------------------------------------------------------------
# Quartiles, percentiles and the compare verdict
# ---------------------------------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, med, q3 = stats.quartiles(values)
    assert [q1, med, q3] == statistics.quantiles(values, n=4)
    assert med == statistics.median(values)
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert stats.relative_spread([10.0, 10.0, 10.0]) == 0.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(list(range(20))) is None
    assert stats.tail_percentile([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert stats.tail_percentile([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
    assert stats.tail_percentile([float(i) for i in range(1, 10001)]) == (99.9, 9990.0)


def test_verdicts():
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    faster = [v * 0.8 for v in parent]
    assert stats.verdict(parent, faster, "lower", 0.1) == "improved"
    assert stats.verdict(parent, list(parent), "lower", 0.1) == "no worse"
    assert stats.verdict(parent, [v * 1.3 for v in parent], "lower", 0.1) == "worse"
    assert stats.verdict(parent, [v * 1.05 for v in parent], "lower", 0.1) == "no worse"
    # for a higher-is-better metric the same numbers are a regression
    assert stats.verdict(parent, faster, "higher", 0.1) == "worse"


def test_verdict_needs_ten_pairs_to_claim_a_gain():
    parent = [10.0, 10.1, 9.9, 10.2, 9.8]
    assert stats.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1) == "no worse"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    parent = [8.0, 12.0, 10.0, 9.0, 11.0]
    overlapping = [9.0, 11.0, 10.5, 8.5, 12.5]
    assert stats.verdict(parent, overlapping, "lower", 0.05) == "unresolved"
    disjoint = [v - 5.0 for v in parent]
    assert stats.verdict(parent, disjoint, "lower", 0.05) == "no worse"


def test_pair_wins_ignores_ties():
    assert stats.pair_wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "lower") == (1, 3)


def test_compare_pairs_runs_by_seed(tmp_path):
    spec = [{"name": "main_s", "unit": "s", "better": "lower", "bound": 0.1}]
    for side, scale in (("parent", 1.0), ("change", 0.5)):
        directory = tmp_path / side
        directory.mkdir()
        for seed in range(10):
            record = {
                "workload": "w", "seed": seed, "trace": 0,
                "result": {"metrics": {"main_s": {"value": scale * (1 + seed / 100), "unit": "s"}}},
            }
            (directory / f"w-{seed}.json").write_text(json.dumps(record))
    rows = compare.compare(compare.load_records(tmp_path / "parent"), compare.load_records(tmp_path / "change"), spec)
    assert [(r["workload"], r["wins"], r["pairs"], r["verdict"]) for r in rows] == [("w", 10, 10, "improved")]


def test_reference_speed_scales_by_the_median_of_recent_kernel_times():
    timings = iter([0.25, 0.125, 0.5, 0.25, 0.25])
    speed = run.ReferenceSpeed(lambda: next(timings))
    ref = run.REFERENCE_KERNEL_S
    assert speed.scale_last_unit() == ref / statistics.median([0.25, 0.125])
    assert speed.scale_last_unit() == ref / 0.25
    assert speed.scale_last_unit() == ref / statistics.median([0.25, 0.125, 0.5, 0.25])
    assert speed.scale_last_unit() == ref / statistics.median([0.125, 0.5, 0.25, 0.25])
    invoke = run.Invoker(cli_main=None, speed=None)
    assert invoke.scaled(2.0) == 2.0


def test_kernel_process_answers_each_request_and_stops():
    kernel = run.KernelProcess()
    try:
        assert all(t > 0 for t in (kernel(), kernel()))
    finally:
        kernel.close()
    assert kernel._proc.returncode == 0


# ---------------------------------------------------------------------------
# The benchmark definition
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_every_expected_span_has_a_metric():
    names = {name for name, _, _ in tracing.per_layer_names()}
    for span_name in tracing.expected_callers():
        assert any(metric.startswith(span_name + ".") for metric in names), span_name
