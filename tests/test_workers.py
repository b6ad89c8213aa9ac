"""The one process pool: job order, the caller's share, and the dead-worker rule;
and the cost-balanced share-out over it."""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

import dst_lab.workers as workers_module
from dst_lab.workers import _caller_share, fan_out, share_out


@pytest.fixture(autouse=True)
def _no_process_left():
    yield
    assert multiprocessing.active_children() == []


def test_outcomes_come_back_in_job_order():
    def work(job):
        time.sleep(0.05 * (job % 2))  # the odd jobs finish last
        return job * job

    assert fan_out(work, [3, 0, 1, 4, 2], 2) == [9, 0, 1, 16, 4]


def test_own_jobs_run_in_the_caller_and_the_others_in_workers():
    pids = fan_out(lambda job: os.getpid(), list(range(5)), 2, own=[1, 3])
    assert pids[1] == pids[3] == os.getpid()
    assert os.getpid() not in {pids[0], pids[2], pids[4]}


def test_no_pool_starts_when_the_caller_owns_every_job(monkeypatch):
    def no_pool(**kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(workers_module, "ProcessPoolExecutor", no_pool)
    assert fan_out(lambda job: (job, os.getpid()), "ab", 4, own=range(2)) == [("a", os.getpid()), ("b", os.getpid())]
    assert fan_out(lambda job: job, [], 0) == []


def test_a_job_that_kills_every_worker_is_lost_after_exactly_one_rerun(tmp_path):
    attempts = tmp_path / "attempts"

    def work(job):
        if job == "dies":
            with open(attempts, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()}\n")
            os._exit(3)
        return job

    outcomes = fan_out(work, ["a", "dies", "b", "c"], 2)
    assert outcomes[0::2] == ["a", "b"] and outcomes[3] == "c"
    assert isinstance(outcomes[1], BrokenProcessPool)
    # once in the first pool and once alone, each time in a worker of its own
    pids = attempts.read_text(encoding="utf-8").split()
    assert len(pids) == 2 and str(os.getpid()) not in pids


def test_a_result_that_cannot_be_sent_back_is_its_jobs_exception():
    outcomes = fan_out(lambda job: threading.Lock() if job else job, [0, 1], 1)
    assert outcomes[0] == 0
    assert isinstance(outcomes[1], TypeError)


def _usable_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_caller_share_is_greedy_longest_first_with_the_caller_as_bin_0():
    assert _caller_share([3, 10, 3, 10], 2) == {0, 1}
    assert _caller_share([3, 10, 3, 10], 1) == {0, 1, 2, 3}
    assert _caller_share([5, 5, 5], 3) == {0}
    assert _caller_share([0, 0], 2) == {0, 1}  # nothing to gain from a worker


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_share_out_gives_the_caller_its_share_and_outcomes_in_job_order(monkeypatch, cpus):
    _usable_cpus(monkeypatch, cpus)
    costs = [3, 10, 3, 10]
    outcomes = share_out(lambda job: (job, os.getpid()), list("abcd"), costs)
    assert [job for job, _ in outcomes] == list("abcd")
    in_caller = {i for i, (_, pid) in enumerate(outcomes) if pid == os.getpid()}
    assert in_caller == _caller_share(costs, cpus)


def test_share_out_reruns_here_a_job_without_a_result_and_keeps_a_returned_exception(monkeypatch, tmp_path):
    _usable_cpus(monkeypatch, 2)
    parent = os.getpid()

    def work(job):
        if job == "dies" and os.getpid() != parent:
            os._exit(3)
        if job == "raises" and os.getpid() != parent:
            raise RuntimeError("only in a worker")
        return ValueError(job) if job == "returns" else (job, os.getpid())

    # at costs 9, 1, 1, 1 the caller takes job 0 and the worker the other three
    outcomes = share_out(work, ["a", "dies", "raises", "returns"], [9, 1, 1, 1])
    assert outcomes[:3] == [("a", parent), ("dies", parent), ("raises", parent)]
    assert isinstance(outcomes[3], ValueError) and outcomes[3].args == ("returns",)
