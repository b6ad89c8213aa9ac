"""The one process pool, of `run --workers`, `probe` and `gradcheck`. Its
workers are forked, so they inherit the work function and all it reads; only a
job is sent."""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

_work = None  # set in each worker only: its copy of the work function, inherited at fork


def _adopt(work) -> None:
    global _work
    _work = work


def _do(job):
    return _work(job)


def _pool(work, workers: int) -> ProcessPoolExecutor:
    # under fork the pool starts all of its processes at the first submit, before its own threads
    context = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(max_workers=workers, mp_context=context, initializer=_adopt, initargs=(work,))


def fan_out(work, jobs, workers: int, own=()) -> list:
    """``work(job)`` of each of ``jobs``, in job order. The jobs at the indices
    in ``own`` run here while ``workers`` forked processes run the others, in
    job order; when ``own`` holds every job, no process starts. A worker that
    dies breaks the pool, and with it every job whose result had not come back:
    each runs again alone, in a fresh one-worker pool. A pooled job lost there
    too, that raises, or whose result cannot be sent back has that exception
    as its outcome."""
    pooled = [i for i in range(len(jobs)) if i not in own]
    if not pooled:
        return [work(job) for job in jobs]
    with _pool(work, workers) as pool:
        futures = {i: pool.submit(_do, jobs[i]) for i in pooled}
        outcomes = {i: work(jobs[i]) for i in sorted(own)}
    for i, future in futures.items():
        if isinstance(future.exception(), BrokenProcessPool):
            with _pool(work, 1) as pool:
                future = pool.submit(_do, jobs[i])
        outcomes[i] = future.exception() or future.result()
    return [outcomes[i] for i in range(len(jobs))]


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


def share_out(work, jobs: list, costs: list[int]) -> list:
    """``work(job)`` of each of ``jobs``, in job order, where ``work`` is pure
    computation and ``costs`` estimate the jobs' times. Of ``min(usable CPUs,
    jobs)`` processes, this one runs the share :func:`_caller_share` gives it
    while the forked workers run the rest, each side longest first. A pooled job
    that comes back without a result (lost with its worker twice, raised, or
    whose result cannot be sent back; see :func:`fan_out`) runs again here, so
    its result or exception is the one a serial run gives."""
    processes = min(_usable_cpus(), len(jobs))
    share = _caller_share(costs, processes)
    order = sorted(range(len(jobs)), key=lambda job: -costs[job])
    own = [i for i, job in enumerate(order) if job in share]
    # a result comes back boxed, so a job that returns an exception is told from one that has none
    outcomes = dict(zip(order, fan_out(lambda job: (work(jobs[job]),), order, processes - 1, own)))
    return [outcomes[job][0] if isinstance(outcomes[job], tuple) else work(jobs[job]) for job in range(len(jobs))]
