"""The one process pool, of `run --workers` and `probe`. Its workers are forked,
so they inherit the work function and all it reads; only a job is sent."""

from __future__ import annotations

import multiprocessing
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
