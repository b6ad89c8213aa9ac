"""dst-lab benchmark: three workloads driven through the ``dst-lab`` CLI in-process.

    python3 perfbench/run.py --workload compressed_long --seed 1 --seconds 36 --trace 0

Run from the repository root. The package is imported from ``src/`` (it need
not be installed). Each run makes its inputs from ``--seed``, then repeats
the workload's job until ``--seconds`` have passed:

* run workloads: ``dst-lab run`` then ``dst-lab evaluate --out``;
* probe_train: ``dst-lab probe`` then ``dst-lab gradcheck``.

Every job's outputs are hashed and must equal those of the run's first job
and, for seeds listed in ``expected_outputs.json``, the recorded hashes. Times
are scaled to a reference machine speed (see ``ReferenceSpeed``). The last
line of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``. A
fuller record (environment, every sample, output hashes) is written under
``.bench_work/records/``. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = HERE / "expected_outputs.json"

sys.path.insert(0, str(HERE))
import stats  # noqa: E402
import tracing  # noqa: E402

SETUP_REPS = 5
REFERENCE_KERNEL_S = 0.125
KERNEL_WINDOW = 4
MAX_TRACED_JOBS = 4
PROBE_EPOCHS = 60
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = (
    ("main_s", "s"),
    ("items_per_s", "1/s"),
    ("check_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run" or "probe"
    synth: tuple[str, ...]
    command: tuple[str, ...]
    configs: int = 0


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compressed_long",
            "run",
            synth=("--n-dialogues", "24", "--turns-per-dialogue", "32", "--frames-per-token", "4"),
            command=("--strategy", "compressed", "--predictor", "noisy", "--n-queries", "8"),
        ),
        Workload(
            "multimodal_long",
            "run",
            synth=("--n-dialogues", "80", "--turns-per-dialogue", "32", "--frames-per-token", "1"),
            command=("--strategy", "multimodal", "--predictor", "noisy"),
        ),
        # The probe builds its corpus in memory, inside the timed command, so
        # its set-up is the import alone.
        Workload(
            "probe_train",
            "probe",
            synth=(),
            command=("--n-queries", "1", "--n-queries", "8", "--epochs", str(PROBE_EPOCHS)),
            configs=2,
        ),
    )
}


class CommandFailed(RuntimeError):
    pass


def _cpu_s() -> float:
    self_, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + children.ru_utime + children.ru_stime


@dataclass
class Invoker:
    """Calls ``dst_lab.cli.main`` in-process, capturing its standard output.

    With a tracer, opens a ``cli.<command>`` span around the call. With a
    reference speed, reports each command's time and CPU time scaled to it.
    The command's CPU time runs until the kernel timing after it has ended:
    this process is idle then, except for threads the command left running,
    so their work counts toward the command.
    """

    cli_main: object
    tracer: tracing.Tracer | None = None
    speed: ReferenceSpeed | None = None
    cpu_s: float = 0.0

    def scaled(self, seconds: float) -> float:
        """A time just measured, at the reference speed when one is set."""
        return seconds * self.speed.scale_last_unit() if self.speed else seconds

    def __call__(self, args: list[str], detail: bool = True) -> tuple[float, str]:
        buf = io.StringIO()
        with contextlib.ExitStack() as stack:
            if self.tracer is not None:
                stack.enter_context(self.tracer.span(f"cli.{args[0]}"))
                if not detail:
                    stack.enter_context(self.tracer.paused())
            cpu0 = _cpu_s()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    self.cli_main(args, standalone_mode=False)
            except SystemExit as exc:
                if exc.code not in (None, 0):
                    raise CommandFailed(f"dst-lab {args[0]} exited with {exc.code}: {buf.getvalue()[-500:]}") from None
            elapsed = time.perf_counter() - start
        scale = self.speed.scale_last_unit() if self.speed else 1.0
        self.cpu_s += (_cpu_s() - cpu0) * scale
        return elapsed * scale, buf.getvalue()


@dataclass
class Job:
    main_s: float = 0.0
    check_s: float = 0.0
    cpu_s: float = 0.0
    wall_s: float = 0.0
    items: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        lines = "".join(f"{name} {d}\n" for name, d in sorted(self.digests.items()))
        return hashlib.sha256(lines.encode()).hexdigest()


def _hash_files(paths: list[Path], base: Path) -> dict[str, str]:
    return {str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def run_job(w: Workload, seed: int, corpus: Path, job_dir: Path, invoke: Invoker) -> Job:
    out, report = job_dir / "run", job_dir / "report"
    job = Job()
    job.main_s, _ = invoke(
        ["run", "--corpus", str(corpus), *w.command, "--seed", str(seed), "--workers", "1", "--out", str(out)]
    )
    job.check_s, _ = invoke(
        ["evaluate", "--predictions", str(out / "predictions.ndjson"), "--corpus", str(corpus), "--out", str(report)]
    )
    summary = json.loads((out / "run_summary.json").read_text(encoding="utf-8"))
    job.problems += [f"dialogue {f['dialogue_id']} failed: {f['error']}" for f in summary["failures"]]
    job.items = int(summary["n_records"])
    scored = json.loads((report / "report.json").read_text(encoding="utf-8"))["n_turns"]
    if job.items == 0 or scored != job.items:
        job.problems.append(f"{job.items} turns predicted but {scored} scored")
    files = [out / "predictions.ndjson", out / "context_lengths.csv", *sorted(report.iterdir())]
    job.digests = _hash_files(files, job_dir)
    return job


def probe_job(w: Workload, seed: int, corpus: Path, job_dir: Path, invoke: Invoker) -> Job:
    csv = job_dir / "probe.csv"
    job = Job()
    job.main_s, _ = invoke(["probe", *w.command, "--seeds", str(seed), "--out", str(csv)])
    # gradcheck runs tens of thousands of single-row forwards; its layer
    # calls would swamp the training spans, so only its total is traced
    job.check_s, text = invoke(["gradcheck"], detail=False)
    rows = [line.split(",")[:2] for line in csv.read_text(encoding="utf-8").splitlines()[1:]]
    if rows != [[str(seed), "1"], [str(seed), "8"]]:
        job.problems.append(f"unexpected probe rows {rows}")
    lines = text.splitlines()
    if not lines or any(not line.startswith("PASS") for line in lines):
        job.problems.append("gradcheck did not pass every check")
    job.items = w.configs * PROBE_EPOCHS
    job.digests = _hash_files([csv], job_dir)
    return job


def attempt(w: Workload, seed: int, corpus: Path, job_dir: Path, invoke: Invoker) -> Job:
    """One job; an exception becomes a problem of the job, not of the run."""
    job_dir.mkdir(parents=True, exist_ok=True)
    for path in job_dir.rglob("*"):
        if path.is_file():
            path.unlink()
    invoke.cpu_s = 0.0
    start = time.perf_counter()
    try:
        job = (run_job if w.kind == "run" else probe_job)(w, seed, corpus, job_dir, invoke)
    except Exception as exc:  # the run continues and reports the failure
        job = Job(problems=[f"{type(exc).__name__}: {exc}"])
    job.wall_s = time.perf_counter() - start
    job.cpu_s = invoke.cpu_s
    return job


class KernelProcess:
    """``reference_kernel.py`` in a child process; calling it times the kernel once.

    The child never imports the program, so state the program leaves in this
    process cannot move the kernel's time.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference_kernel.py")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference kernel exited with {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class ReferenceSpeed:
    """Reference-kernel timings taken between the measured commands.

    The host's speed drifts by tens of percent over tens of seconds, while a
    single kernel timing jitters by about 15%. A command's time is scaled by
    REFERENCE_KERNEL_S over the median of the last KERNEL_WINDOW kernel
    timings (the last one taken right after the command), which reports it
    in seconds at a fixed reference speed and cancels the drift.
    """

    def __init__(self, kernel: Callable[[], float]) -> None:
        self.kernel = kernel
        self.kernel_s = [kernel()]
        self.scales: list[float] = []

    def scale_last_unit(self) -> float:
        self.kernel_s.append(self.kernel())
        self.scales.append(REFERENCE_KERNEL_S / statistics.median(self.kernel_s[-KERNEL_WINDOW:]))
        return self.scales[-1]


def import_seconds() -> float:
    """Time to import the CLI module in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import dst_lab.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_once(w: Workload, seed: int, corpus: Path, invoke: Invoker) -> float:
    """Import plus synthesis and write of the workload corpus, if it has one.

    The corpus is written over the previous one in place: every seed of a
    workload yields the same file names, and creating and deleting thousands
    of files per repeat made file creation on the test machine's disk slower
    from one run to the next.
    """
    synth_s = invoke(["synth", "--seed", str(seed), *w.synth, "--out", str(corpus)])[0] if w.synth else 0.0
    return synth_s + invoke.scaled(import_seconds())


def check_outputs(w: Workload, seed: int, jobs: list[Job]) -> None:
    """Outputs repeat across the run's jobs and match any recorded hashes."""
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8")).get(w.name, {}).get(str(seed))
    reference = recorded or next((j.digest for j in jobs if j.digests), None)
    for job in jobs:
        if job.digests and job.digest != reference:
            source = "recorded" if recorded else "first job's"
            job.problems.append(f"outputs differ from the {source} hashes")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    from importlib.metadata import PackageNotFoundError, version

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        click_version = version("click")
    except PackageNotFoundError:
        click_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": click_version,
        "blas": blas,
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "git_commit": git_commit(),
        "seed": seed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(w: Workload, seed: int, seconds: int, work: Path, invoke: Invoker):
    corpus = work / "corpus"
    setup: list[float] = []
    jobs: list[Job] = []
    kernel = KernelProcess()
    try:
        start = time.perf_counter()
        invoke.speed = ReferenceSpeed(kernel)
        # Set-up repeats are spread over the run rather than bunched at its
        # start, so that they and the jobs sample the same stretch of machine
        # load. Job 0 warms up and is checked but not timed.
        while len(jobs) < 2 or time.perf_counter() - start < seconds:
            if len(setup) < SETUP_REPS and time.perf_counter() - start >= len(setup) * seconds / SETUP_REPS:
                setup.append(setup_once(w, seed, corpus, invoke))
            jobs.append(attempt(w, seed, corpus, work / "job", invoke))
    finally:
        kernel.close()
    check_outputs(w, seed, jobs)
    timed = [j for j in jobs[1:] if not j.problems] or [Job()]
    samples = {
        "main_s": [j.main_s for j in timed],
        "items_per_s": [j.items / j.main_s if j.main_s else 0.0 for j in timed],
        "check_s": [j.check_s for j in timed],
        "cpu_s": [j.cpu_s for j in timed],
        "setup_s": setup,
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples["reference_kernel_s"] = invoke.speed.kernel_s
    samples["reference_scale"] = invoke.speed.scales
    units = dict(END_TO_END)
    result_metrics = {name: _metric(metrics[name], units[name]) for name, _ in END_TO_END}
    return jobs, result_metrics, samples, []


def traced(w: Workload, seed: int, seconds: int, work: Path, invoke: Invoker):
    corpus = work / "corpus"
    setup_once(w, seed, corpus, invoke)
    tracer = tracing.Tracer()
    jobs: list[Job] = []
    plain: list[float] = []
    traced_walls: list[float] = []
    start = time.perf_counter()
    jobs.append(attempt(w, seed, corpus, work / "job", invoke))  # warm-up
    # untraced and traced jobs alternate so both see the same machine state
    while not traced_walls or (time.perf_counter() - start < seconds and len(traced_walls) < MAX_TRACED_JOBS):
        job = attempt(w, seed, corpus, work / "job", invoke)
        jobs.append(job)
        plain.append(job.wall_s)
        tracer.job = len(jobs)
        invoke.tracer = tracer
        with tracer.installed():
            job = attempt(w, seed, corpus, work / "job", invoke)
        invoke.tracer = None
        jobs.append(job)
        traced_walls.append(job.wall_s)
    check_outputs(w, seed, jobs)

    spans = tracer.records()
    per_job = tracing.aggregate(spans)
    job_metrics = []
    for job_id in sorted(per_job):
        problems = tracing.coverage_problems(per_job[job_id], w.name)
        jobs[job_id].problems += problems
        job_metrics.append(tracing.job_metrics(per_job[job_id], w.configs))
    combined, problems = tracing.combine_jobs(job_metrics)
    if problems:
        jobs[-1].problems += problems
    combined[tracing.OVERHEAD_METRIC[0]] = statistics.median(traced_walls) / statistics.median(plain)
    units = {name: unit for name, unit, _ in tracing.per_layer_names()}
    result_metrics = {name: _metric(combined[name], units[name]) for name in units}
    samples = {"job_wall_s": [j.wall_s for j in jobs], "plain_wall_s": plain, "traced_wall_s": traced_walls}
    return jobs, result_metrics, samples, spans


def write_spans(spans: list[tuple], path: Path) -> None:
    """Spans as [name index, start, end, parent, job], times in ns from the first span."""
    names = sorted({s[tracing.NAME] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    t0 = spans[0][tracing.START]
    rows = [[index[s[0]], s[1] - t0, s[2] - t0, s[3], s[4]] for s in spans]
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"names": names, "fields": ["name", "start_ns", "end_ns", "parent", "job"], "spans": rows}, fh,
                  separators=(",", ":"))


def write_expected(seeds: list[int]) -> None:
    """Record the output hashes of one job per workload and seed."""
    from dst_lab.cli import main as cli_main

    invoke = Invoker(cli_main)
    recorded: dict[str, dict[str, str]] = {}
    for w in WORKLOADS.values():
        for seed in seeds:
            work = WORK / w.name
            setup_once(w, seed, work / "corpus", invoke)
            job = attempt(w, seed, work / "corpus", work / "job", invoke)
            if job.problems:
                raise SystemExit(f"{w.name} seed {seed}: {job.problems}")
            recorded.setdefault(w.name, {})[str(seed)] = job.digest
            print(w.name, seed, job.digest, file=sys.stderr)
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-expected", type=str, default=None, metavar="SEEDS",
        help="Comma-separated seeds: record their output hashes in expected_outputs.json and exit.",
    )
    args = parser.parse_args(argv)
    if args.write_expected is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "dst_lab" / "cli.py").is_file():
        print(f"dst-lab sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_expected is not None:
        write_expected([int(s) for s in args.write_expected.split(",") if s.strip()])
        return 0
    from dst_lab.cli import main as cli_main

    w = WORKLOADS[args.workload]
    work = WORK / w.name
    env = environment(args.seed)
    measure = traced if args.trace else end_to_end
    jobs, metrics, samples, spans = measure(w, args.seed, args.seconds, work, Invoker(cli_main))

    failed = sum(1 for j in jobs if j.problems)
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "result": result,
        "samples": samples,
        "tails": {k: stats.tail_percentile(v) for k, v in samples.items()},
        "output_digests": next((j.digests for j in jobs if j.digests), {}),
        "problems": [f"job {i}: {p}" for i, j in enumerate(jobs) for p in j.problems],
    }
    record_path = WORK / "records" / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans:
        write_spans(spans, record_path.with_name(record_path.stem + "-spans.json.gz"))

    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        count = len(samples.get(name, ())) or len(jobs)
        print(f"{w.name:<16} {name:<48} {metric['value']:>14.6g} {metric['unit']:<6} n={count}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
