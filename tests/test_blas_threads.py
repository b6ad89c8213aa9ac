"""Importing dst_lab limits numpy's bundled OpenBLAS to one thread, unless the
user set a thread count. Each test runs a fresh interpreter, since the limit
is set once per process at import."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dst_lab

pytestmark = pytest.mark.skipif(
    dst_lab._bundled_openblas("get_num_threads") is None,
    reason="numpy has no bundled scipy-openblas library to set a thread count on",
)

SRC = Path(dst_lab.__file__).resolve().parents[1]
REPORT_THREADS = (
    "import ctypes, dst_lab\n"
    "get_num_threads = dst_lab._bundled_openblas('get_num_threads')\n"
    "get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int\n"
    "print(get_num_threads())"
)


def _python(args: list[str], **blas_env: str) -> str:
    """Standard output of ``python args`` with only ``blas_env`` of the BLAS thread variables set."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    done = subprocess.run(
        [sys.executable, *args], env={**env, **blas_env}, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_limits_openblas_to_one_thread():
    assert _python(["-c", REPORT_THREADS]).strip() == "1"


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_import_keeps_a_thread_count_the_user_set(variable):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS caps its thread count at the usable CPUs, here fewer than 2")
    assert _python(["-c", REPORT_THREADS], **{variable: "2"}).strip() == "2"


def test_probe_csv_does_not_depend_on_the_thread_default(tmp_path):
    # at seed 7 the 9-query config's FeedForward weight gradients, products
    # over 240 x 9 = 2160 rows, sum differently on two OpenBLAS threads, and
    # the accuracy after 100 epochs differs
    args = ["-m", "dst_lab.cli", "probe", "--n-queries", "9", "--seeds", "7", "--epochs", "100", "--out"]
    _python(args + [str(tmp_path / "default.csv")])
    _python(args + [str(tmp_path / "one.csv")], OPENBLAS_NUM_THREADS="1")
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
