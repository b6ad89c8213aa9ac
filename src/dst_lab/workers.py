"""The one process pool, of `run --workers`, `probe` and `gradcheck`. Its
workers are forked, so they inherit the work function and all it reads; only a
job's index is sent."""

from __future__ import annotations

import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from . import _libc

_work = None  # set in each worker only: its copy of the work function, inherited at fork
_PR_SET_PDEATHSIG = 1


def _adopt(work, parent: int) -> None:
    """Take ``work``, and die with ``parent``: a worker left behind would wait on the pool forever."""
    global _work
    _work = work
    prctl = _libc("prctl")
    if prctl is not None:
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent died before the signal was asked for
        os._exit(1)


def _do(job):
    return _work(job)


def _pool(work, workers: int) -> ProcessPoolExecutor:
    # under fork the pool starts all of its processes at the first submit, before its own threads
    context = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(max_workers=workers, mp_context=context, initializer=_adopt, initargs=(work, os.getpid()))


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _caller_share(costs: list[int], processes: int) -> set[int]:
    """The jobs the calling process runs itself: greedy longest-first over
    ``processes`` bins (ties to the lower job, then the lower bin), the caller
    being bin 0. The share depends on the costs alone, so every call runs the
    same jobs in the caller, and a traced run records the same spans."""
    loads = [0] * processes
    share = set()
    for job in sorted(range(len(costs)), key=lambda job: -costs[job]):
        least = loads.index(min(loads))
        loads[least] += costs[job]
        if least == 0:
            share.add(job)
    return share


def share_out(work, jobs: list, costs: list[int], workers: int | None = None, *, isolated: bool = False) -> list:
    """``work(job)`` of each of ``jobs``, in job order, where ``costs`` estimate
    the jobs' times, on ``min(workers, usable CPUs, jobs)`` processes. With one,
    every job runs here and no process starts. Otherwise this process runs the
    share :func:`_caller_share` gives it, or nothing when ``isolated``, while
    forked workers run the rest, each side longest first.

    A worker that dies breaks the pool, and with it every job whose result had
    not come back: each runs again alone, in a fresh one-worker pool. A pooled
    job that still comes back without a result (lost there too, raised, or
    whose result cannot be sent back) has that exception as its outcome when
    ``isolated``, for a job that may end the process it runs in; otherwise it
    runs again here, so its result or exception is the one a serial run gives."""
    processes = min(_usable_cpus(), len(jobs), len(jobs) if workers is None else workers)
    share = set() if isolated and processes > 1 else _caller_share(costs, processes)
    if len(share) == len(jobs):
        return [work(job) for job in jobs]
    order = sorted(range(len(jobs)), key=lambda job: -costs[job])
    # a result comes back boxed, so a job that returns an exception is told from one that has none
    boxed = lambda job: (work(jobs[job]),)
    with _pool(boxed, processes if isolated else processes - 1) as pool:
        futures = {job: pool.submit(_do, job) for job in order if job not in share}
        outcomes = {job: boxed(job) for job in order if job in share}
    for job, future in futures.items():
        if isinstance(future.exception(), BrokenProcessPool):
            with _pool(boxed, 1) as pool:
                future = pool.submit(_do, job)
        outcomes[job] = future.exception() or future.result()
    return [
        outcome[0] if isinstance(outcome, tuple) else outcome if isolated else work(jobs[job])
        for job, outcome in sorted(outcomes.items())
    ]
