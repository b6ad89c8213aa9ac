"""Spans around the calls into each dst-lab module, recorded from outside.

The traced run replaces module functions and layer methods with wrappers that
record one span per call: name, start, end, parent span, job id and an
optional measurement (rows, bytes scanned, FLOPs, an input key). Nothing in
``dst_lab`` changes; the wrappers are installed for a traced job and removed
after it. A function is patched in every ``dst_lab`` module that binds it, so
the wrapper sits on the attribute the caller actually looks up, wherever that
caller lives.

Spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import statistics
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field

RUN_WORKLOADS = frozenset({"compressed_long", "multimodal_long"})
COMPRESSED = frozenset({"compressed_long"})
MULTIMODAL = frozenset({"multimodal_long"})
PROBE = frozenset({"probe_train"})
ALL = RUN_WORKLOADS | PROBE
NONE: frozenset[str] = frozenset()

# Span field positions.
NAME, START, END, PARENT, JOB, ATTR = range(6)


def _text_len(args, result) -> int:
    return len(args[0])


def _rows_out(args, result) -> int:
    return result.total_rows


def _embed_key(args, result):
    return args[1].id, args[2]


def _turn_key(args, result):
    """The (dialogue, turn) an embedding belongs to; its content for a bare matrix."""
    h = args[0]
    if getattr(h, "dialogue_id", ""):
        return h.dialogue_id, h.turn_index
    return hashlib.blake2b(h.tobytes(), digest_size=16).digest(), h.shape


def _pairs_scored(args, result) -> int:
    return result.n_turns


def _attention_flops(x_q, x_kv) -> int:
    b, t_q, d = x_q.shape
    t_kv = x_kv.shape[1]
    # q and output projections on t_q rows, k and v on t_kv rows, then the
    # score and context products
    return 2 * b * (2 * t_q * d * d + 2 * t_kv * d * d + 2 * t_q * t_kv * d)


def _attention_forward_flops(args, result) -> int:
    return _attention_flops(args[1], args[2])


def _attention_backward_flops(args, result) -> int:
    cache = args[0]._cache
    return 2 * _attention_flops(cache[0], cache[1])


def _ff_forward_flops(args, result) -> int:
    layer, x = args[0], args[1]
    d_hidden = layer._params["W1"].shape[1]
    return 4 * x.shape[0] * x.shape[1] * x.shape[2] * d_hidden


def _ff_backward_flops(args, result) -> int:
    layer = args[0]
    x = layer._cache[0]
    d_hidden = layer._params["W1"].shape[1]
    return 8 * x.shape[0] * x.shape[1] * x.shape[2] * d_hidden


def _attention_forward_name(args) -> str:
    kind = "self" if args[1] is args[2] else "cross"
    return f"layers.MultiHeadAttention.{kind}.forward"


def _attention_backward_name(args) -> str:
    cache = args[0]._cache
    kind = "self" if cache[0] is cache[1] else "cross"
    return f"layers.MultiHeadAttention.{kind}.backward"


# (defining module, function, span name, measurement, workloads that must call it)
FUNCTIONS = (
    ("dst_lab.corpus", "load_corpus", "corpus.load_corpus", None, RUN_WORKLOADS),
    ("dst_lab.corpus", "read_feature_sidecar", "corpus.read_feature_sidecar", None, RUN_WORKLOADS),
    ("dst_lab.assembly", "assemble", "assembly.assemble", _rows_out, RUN_WORKLOADS),
    ("dst_lab.assembly", "context_length_report", "assembly.context_length_report", None, RUN_WORKLOADS),
    ("dst_lab.neural.pipeline", "compress_turn", "pipeline.compress_turn", _turn_key, COMPRESSED),
    ("dst_lab.neural.pipeline", "connector_forward", "pipeline.connector_forward", None, RUN_WORKLOADS),
    ("dst_lab.neural.layers", "sinusoidal_positions", "layers.sinusoidal_positions", None, ALL),
    ("dst_lab.neural.layers", "gelu_grad", "layers.gelu_grad", None, PROBE),
    ("dst_lab.state_codec", "build_prompt", "state_codec.build_prompt", None, RUN_WORKLOADS),
    ("dst_lab.state_codec", "parse_state", "state_codec.parse_state", _text_len, RUN_WORKLOADS),
    ("dst_lab.state_codec", "extract_user_last_turn", "state_codec.extract_user_last_turn", _text_len, MULTIMODAL),
    ("dst_lab.state_codec", "write_predictions", "state_codec.write_predictions", None, RUN_WORKLOADS),
    ("dst_lab.state_codec", "read_predictions", "state_codec.read_predictions", None, RUN_WORKLOADS),
    ("dst_lab.metrics", "evaluate", "metrics.evaluate", _pairs_scored, RUN_WORKLOADS),
    ("dst_lab.metrics", "align", "metrics.align", None, RUN_WORKLOADS),
    ("dst_lab.metrics", "turn_correct", "metrics.turn_correct", None, RUN_WORKLOADS),
    ("dst_lab.postprocess", "values_match", "postprocess.values_match", None, RUN_WORKLOADS),
    ("dst_lab.postprocess", "levenshtein_ratio", "postprocess.levenshtein_ratio", None, RUN_WORKLOADS),
    ("dst_lab.reporting", "render_report", "reporting.render_report", None, RUN_WORKLOADS),
    ("dst_lab.reporting", "render_context_lengths", "reporting.render_context_lengths", None, RUN_WORKLOADS),
    ("dst_lab.neural.train", "train", "train.train", None, PROBE),
    ("dst_lab.neural.train", "softmax_cross_entropy", "train.softmax_cross_entropy", None, PROBE),
    ("dst_lab.neural.probe", "build_probe_dataset", "probe.build_probe_dataset", None, PROBE),
)

# (defining module, class, method, span name or namer, measurement, workloads that must call it)
METHODS = (
    ("dst_lab.assembly", "EmbeddingPipeline", "embed_turn", "assembly.embed_turn", _embed_key, RUN_WORKLOADS),
)

# Layer classes: (class, workloads calling forward, workloads calling backward).
# The probe freezes the connector, so nothing runs a connector backward pass.
LAYERS = (
    ("Linear", ALL, NONE),
    ("LayerNorm", ALL, PROBE),
    ("MultiHeadAttention.self", ALL, PROBE),
    ("MultiHeadAttention.cross", COMPRESSED | PROBE, PROBE),
    ("FeedForward", ALL, PROBE),
    ("EncoderLayer", ALL, NONE),
    ("DecoderLayer", COMPRESSED | PROBE, PROBE),
    ("Readout", PROBE, PROBE),
    ("Compressor", COMPRESSED | PROBE, PROBE),
    ("Connector", ALL, NONE),
)
_LAYER_MODULES = {
    "Readout": "dst_lab.neural.pipeline",
    "Compressor": "dst_lab.neural.pipeline",
    "Connector": "dst_lab.neural.pipeline",
}
_LAYER_FLOPS = {
    ("MultiHeadAttention", "forward"): _attention_forward_flops,
    ("MultiHeadAttention", "backward"): _attention_backward_flops,
    ("FeedForward", "forward"): _ff_forward_flops,
    ("FeedForward", "backward"): _ff_backward_flops,
}

# Spans the benchmark itself opens around each CLI command.
COMMANDS = (
    ("cli.run", RUN_WORKLOADS),
    ("cli.evaluate", RUN_WORKLOADS),
    ("cli.probe", PROBE),
    ("cli.gradcheck", PROBE),
)


def expected_callers() -> dict[str, frozenset[str]]:
    """Span name -> workloads on which it must record calls; zero elsewhere."""
    out = {name: where for name, where in COMMANDS}
    out.update({span: where for *_, span, _, where in FUNCTIONS})
    out.update({span: where for *_, span, _, where in METHODS})
    for cls, forward, backward in LAYERS:
        out[f"layers.{cls}.forward"] = forward
        out[f"layers.{cls}.backward"] = backward
    return out


class Tracer:
    """Collects spans; wrappers record only while installed and not paused.

    Span fields live in flat arrays so that tracing adds no objects for the
    garbage collector to scan as the span count grows.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.jobs = array("q")
        self.attrs: dict[int, object] = {}
        self.job = 0
        self._stack: list[int] = []
        self._paused = False
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self.job)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def records(self) -> list[tuple]:
        """Spans as (name, start_ns, end_ns, parent index, job, measurement)."""
        return [
            (name, self.starts[i], self.ends[i], self.parents[i], self.jobs[i], self.attrs.get(i))
            for i, name in enumerate(self.names)
        ]

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans (their caller's span still does)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, fn, name, measure=None):
        """``fn`` recording a span per call; ``name`` is a string or a
        function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            index = tracer._open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if measure is not None:
                tracer.attrs[index] = measure(args, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "dst_lab" or n.startswith("dst_lab.")]
        for module_name, attr, span, measure, _ in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(original, span, measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for module_name, cls_name, method, span, measure, _ in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._set(cls, method, self.wrap(cls.__dict__[method], span, measure))
        for cls_name in {name.split(".")[0] for name, _, _ in LAYERS}:
            cls = getattr(importlib.import_module(_LAYER_MODULES.get(cls_name, "dst_lab.neural.layers")), cls_name)
            for method in ("forward", "backward"):
                name = f"layers.{cls_name}.{method}"
                if cls_name == "MultiHeadAttention":
                    name = _attention_forward_name if method == "forward" else _attention_backward_name
                measure = _LAYER_FLOPS.get((cls_name, method))
                self._set(cls, method, self.wrap(cls.__dict__[method], name, measure))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for record in spans:
        if record[PARENT] >= 0:
            children[record[PARENT]].append((record[START], record[END]))
    out = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


@dataclass
class SpanStats:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    attrs: list = field(default_factory=list)


def aggregate(spans: list[tuple]) -> dict[int, dict[str, SpanStats]]:
    """job id -> span name -> call count, busy and self time, measurements."""
    selfs = self_times(spans)
    out: dict[int, dict[str, SpanStats]] = defaultdict(lambda: defaultdict(SpanStats))
    for record, self_ns in zip(spans, selfs):
        stats = out[record[JOB]][record[NAME]]
        stats.calls += 1
        stats.busy_ns += record[END] - record[START]
        stats.self_ns += self_ns
        if record[ATTR] is not None:
            stats.attrs.append(record[ATTR])
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _metric_specs() -> list[tuple[str, str, str, object]]:
    """(metric, unit, better, extractor(stats by span name, configs))."""
    def calls(span):
        return lambda s, _: s[span].calls

    def seconds(span, attr):
        return lambda s, _: getattr(s[span], attr) / 1e9

    def ratio(num, den):
        return lambda s, c: (num(s, c) / den(s, c)) if den(s, c) else 0.0

    def distinct(span):
        return ratio(lambda s, _: len(set(s[span].attrs)), calls(span))

    def total(span, scale=1.0):
        return lambda s, _: sum(s[span].attrs) * scale

    specs = []

    def add(name, unit, better, extractor):
        specs.append((name, unit, better, extractor))

    for command, _ in COMMANDS:
        add(f"{command}.busy_s", "s", "lower", seconds(command, "busy_ns"))
    add("corpus.load_corpus.busy_s", "s", "lower", seconds("corpus.load_corpus", "busy_ns"))
    add("corpus.read_feature_sidecar.calls", "count", "lower", calls("corpus.read_feature_sidecar"))
    add("assembly.assemble.calls", "count", "lower", calls("assembly.assemble"))
    add("assembly.assemble.self_s", "s", "lower", seconds("assembly.assemble", "self_ns"))
    add("assembly.assemble.rows_out", "rows", "lower", total("assembly.assemble"))
    add("assembly.embed_turn.calls", "count", "lower", calls("assembly.embed_turn"))
    add("assembly.embed_turn.distinct_ratio", "ratio", "higher", distinct("assembly.embed_turn"))
    add("assembly.embed_turn.busy_s", "s", "lower", seconds("assembly.embed_turn", "busy_ns"))
    add("assembly.context_length_report.busy_s", "s", "lower", seconds("assembly.context_length_report", "busy_ns"))
    add("pipeline.compress_turn.calls", "count", "lower", calls("pipeline.compress_turn"))
    add("pipeline.compress_turn.distinct_ratio", "ratio", "higher", distinct("pipeline.compress_turn"))
    add("pipeline.compress_turn.busy_s", "s", "lower", seconds("pipeline.compress_turn", "busy_ns"))
    add("pipeline.connector_forward.busy_s", "s", "lower", seconds("pipeline.connector_forward", "busy_ns"))
    add("layers.sinusoidal_positions.calls", "count", "lower", calls("layers.sinusoidal_positions"))
    add("state_codec.build_prompt.busy_s", "s", "lower", seconds("state_codec.build_prompt", "busy_ns"))
    for fn in ("parse_state", "extract_user_last_turn"):
        span = f"state_codec.{fn}"
        add(f"{span}.calls", "count", "lower", calls(span))
        add(f"{span}.busy_s", "s", "lower", seconds(span, "busy_ns"))
        add(f"{span}.kb_scanned", "KiB", "lower", total(span, 1 / 1024))
    add("state_codec.write_predictions.busy_s", "s", "lower", seconds("state_codec.write_predictions", "busy_ns"))
    add("state_codec.read_predictions.busy_s", "s", "lower", seconds("state_codec.read_predictions", "busy_ns"))
    add("metrics.evaluate.busy_s", "s", "lower", seconds("metrics.evaluate", "busy_ns"))
    add("metrics.align.calls", "count", "lower", calls("metrics.align"))
    add("metrics.turn_correct.calls_per_pair", "ratio", "lower",
        ratio(calls("metrics.turn_correct"), total("metrics.evaluate")))
    for fn in ("values_match", "levenshtein_ratio"):
        add(f"postprocess.{fn}.calls", "count", "lower", calls(f"postprocess.{fn}"))
        add(f"postprocess.{fn}.busy_s", "s", "lower", seconds(f"postprocess.{fn}", "busy_ns"))
    add("reporting.render_report.busy_s", "s", "lower", seconds("reporting.render_report", "busy_ns"))
    add("reporting.render_context_lengths.busy_s", "s", "lower", seconds("reporting.render_context_lengths", "busy_ns"))
    add("train.train.calls", "count", "lower", calls("train.train"))
    add("train.train.busy_s", "s", "lower", seconds("train.train", "busy_ns"))
    add("train.useful_ratio", "ratio", "higher", ratio(lambda _, c: c, calls("train.train")))
    add("train.softmax_cross_entropy.calls", "count", "lower", calls("train.softmax_cross_entropy"))
    add("train.softmax_cross_entropy.busy_s", "s", "lower", seconds("train.softmax_cross_entropy", "busy_ns"))
    add("probe.build_probe_dataset.busy_s", "s", "lower", seconds("probe.build_probe_dataset", "busy_ns"))
    for cls, _, _ in LAYERS:
        for method in ("forward", "backward"):
            span = f"layers.{cls}.{method}"
            add(f"{span}.calls", "count", "lower", calls(span))
            add(f"{span}.self_s", "s", "lower", seconds(span, "self_ns"))
    add("layers.gelu_grad.self_s", "s", "lower", seconds("layers.gelu_grad", "self_ns"))
    attention = [f"layers.MultiHeadAttention.{k}.{m}" for k in ("self", "cross") for m in ("forward", "backward")]
    add("layers.attention.gflop", "GFLOP", "lower", lambda s, _: sum(sum(s[n].attrs) for n in attention) / 1e9)
    feed_forward = ["layers.FeedForward.forward", "layers.FeedForward.backward"]
    add("layers.feed_forward.gflop", "GFLOP", "lower", lambda s, _: sum(sum(s[n].attrs) for n in feed_forward) / 1e9)
    return specs


METRIC_SPECS = _metric_specs()
OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio", "lower")


def per_layer_names() -> list[tuple[str, str, str]]:
    """(metric, unit, better) for every per-layer metric, in report order."""
    return [(name, unit, better) for name, unit, better, _ in METRIC_SPECS] + [OVERHEAD_METRIC]


def is_time(metric: str) -> bool:
    return metric.endswith("_s") or metric == OVERHEAD_METRIC[0]


def job_metrics(stats: dict[str, SpanStats], configs: int) -> dict[str, float]:
    """Per-layer metrics of one traced job."""
    lookup = defaultdict(SpanStats, stats)
    return {name: float(extract(lookup, configs)) for name, _, _, extract in METRIC_SPECS}


def coverage_problems(stats: dict[str, SpanStats], workload: str) -> list[str]:
    """Spans that recorded calls where none were expected, or none where some were."""
    problems = []
    for span, where in sorted(expected_callers().items()):
        calls = stats[span].calls if span in stats else 0
        if workload in where and calls == 0:
            problems.append(f"span {span} recorded no calls on {workload}")
        elif workload not in where and calls:
            problems.append(f"span {span} recorded {calls} calls on {workload}, expected none")
    return problems


def combine_jobs(per_job: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Counts must repeat exactly across jobs; times are reported as medians."""
    problems = []
    combined = {}
    for name in per_job[0]:
        values = [m[name] for m in per_job]
        if is_time(name):
            combined[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between identical jobs: {values}")
            combined[name] = values[0]
    return combined, problems
