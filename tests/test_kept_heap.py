"""Importing dst_lab keeps freed heap for reuse, unless the user set glibc's
heap thresholds. Each test runs a fresh interpreter, since the setting is made
once per process at import."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dst_lab

pytestmark = pytest.mark.skipif(dst_lab._libc("mallopt") is None, reason="the C library has no mallopt")

SRC = Path(dst_lab.__file__).resolve().parents[1]
# minor faults over three cycles that allocate, touch and free four 2 MiB
# arrays (512 pages each), after one warm-up cycle
COUNT_FAULTS = (
    "import resource, numpy, dst_lab\n"
    "def cycle():\n"
    "    arrays = [numpy.ones(1 << 18) for _ in range(4)]\n"
    "    del arrays\n"
    "cycle()\n"
    "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
    "for _ in range(3):\n"
    "    cycle()\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
)
HEAP_VARIABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "GLIBC_TUNABLES")


def _faults(**heap_env: str) -> int:
    """The minor faults :data:`COUNT_FAULTS` reads with only ``heap_env`` of glibc's heap variables set."""
    env = {k: v for k, v in os.environ.items() if k not in HEAP_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    done = subprocess.run(
        [sys.executable, "-c", COUNT_FAULTS], env={**env, **heap_env}, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def test_freed_arrays_are_reused_without_faulting_pages_back_in():
    # glibc's default trims the freed arrays and faults them in again: about 6,000
    assert _faults() < 512


@pytest.mark.parametrize(
    "variable,value",
    [
        ("MALLOC_MMAP_THRESHOLD_", "131072"),
        ("MALLOC_TRIM_THRESHOLD_", "131072"),
        ("MALLOC_TOP_PAD_", "131072"),
        ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072"),
    ],
)
def test_import_keeps_heap_thresholds_the_user_set(variable, value):
    # each of these turns glibc's dynamic threshold off, so 2 MiB arrays are
    # mapped and unmapped one by one, as the user asked
    assert _faults(**{variable: value}) > 1000
