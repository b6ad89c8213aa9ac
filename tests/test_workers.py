"""The one process pool: job order, the process count, the caller's share, and
the dead-worker rule, with and without ``isolated``."""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import dst_lab.workers as workers_module
from dst_lab.workers import _caller_share, share_out


@pytest.fixture(autouse=True)
def _no_process_left():
    yield
    assert multiprocessing.active_children() == []


def _usable_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_outcomes_come_back_in_job_order(monkeypatch):
    _usable_cpus(monkeypatch, 2)

    def work(job):
        time.sleep(0.05 * (job % 2))  # the odd jobs finish last
        return job * job

    assert share_out(work, [3, 0, 1, 4, 2], [1] * 5, isolated=True) == [9, 0, 1, 16, 4]


def test_isolated_jobs_all_run_in_workers_and_the_longest_go_first(monkeypatch):
    _usable_cpus(monkeypatch, 4)
    started = []
    pids = share_out(lambda job: started.append(job) or os.getpid(), [0, 1, 2], [1, 5, 3], 2, isolated=True)
    assert started == [] and os.getpid() not in pids and len(set(pids)) <= 2
    pool = workers_module.ProcessPoolExecutor
    submitted = []

    class RecordingPool(pool):
        def submit(self, fn, job):
            submitted.append(job)
            return super().submit(fn, job)

    monkeypatch.setattr(workers_module, "ProcessPoolExecutor", RecordingPool)
    share_out(lambda job: job, [0, 1, 2], [1, 5, 3], 2, isolated=True)
    assert submitted == [1, 2, 0]


@pytest.mark.parametrize("isolated", [False, True])
def test_no_pool_starts_for_one_process(monkeypatch, isolated):
    def no_pool(**kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(workers_module, "ProcessPoolExecutor", no_pool)
    here = [("a", os.getpid()), ("b", os.getpid())]
    assert share_out(lambda job: (job, os.getpid()), "ab", [1, 1], 1, isolated=isolated) == here
    _usable_cpus(monkeypatch, 1)
    assert share_out(lambda job: (job, os.getpid()), "ab", [1, 1], 4, isolated=isolated) == here
    assert share_out(lambda job: job, [], [], isolated=isolated) == []


def test_an_isolated_job_that_kills_every_worker_is_lost_after_exactly_one_rerun(monkeypatch, tmp_path):
    _usable_cpus(monkeypatch, 2)
    attempts = tmp_path / "attempts"

    def work(job):
        if job == "dies":
            with open(attempts, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()}\n")
            os._exit(3)
        return job

    outcomes = share_out(work, ["a", "dies", "b", "c"], [1] * 4, isolated=True)
    assert outcomes[0::2] == ["a", "b"] and outcomes[3] == "c"
    assert isinstance(outcomes[1], BrokenProcessPool)
    # once in the first pool and once alone, each time in a worker of its own
    pids = attempts.read_text(encoding="utf-8").split()
    assert len(pids) == 2 and str(os.getpid()) not in pids


def test_an_isolated_result_that_cannot_be_sent_back_is_its_jobs_exception(monkeypatch):
    _usable_cpus(monkeypatch, 2)
    outcomes = share_out(lambda job: threading.Lock() if job else job, [0, 1], [1, 1], isolated=True)
    assert outcomes[0] == 0
    assert isinstance(outcomes[1], TypeError)


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


def _children(pid: int) -> list[int]:
    """The processes whose parent is ``pid``, read from ``/proc``."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(stat.parent.name))
    return children


def _running(pid: int) -> bool:
    try:
        return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def test_a_worker_dies_with_its_killed_parent(tmp_path):
    # a worker left behind would wait on the dead parent's pool forever
    if not Path("/proc/self/stat").exists() or workers_module._usable_cpus() < 2:
        pytest.skip("needs /proc and 2 usable CPUs, so that probe starts a worker")
    src = str(Path(workers_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)}
    args = ["probe", "--n-queries", "1", "--n-queries", "8", "--seeds", "0", "--out", str(tmp_path / "p.csv")]
    parent = subprocess.Popen(
        [sys.executable, "-m", "dst_lab.cli", *args], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    workers = []
    try:
        deadline = time.monotonic() + 60
        while not workers and parent.poll() is None and time.monotonic() < deadline:
            workers = _children(parent.pid)
            time.sleep(0.01)
        assert workers, "probe started no worker"
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        parent.kill()
        parent.wait()
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)
