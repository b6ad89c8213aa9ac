"""A fixed reference kernel, timed in a process of its own.

    python3 perfbench/reference_kernel.py

Reads one line per timing request from standard input and answers each with
the kernel's time in seconds on standard output; exits at the end of its
input. It never imports ``dst_lab``, so nothing the measured program leaves
in the benchmark's process (heap, imported modules, caches) changes the
kernel's cost.
"""

from __future__ import annotations

import gc
import sys
import time

import numpy as np


def kernel_s() -> float:
    """Seconds for a fixed mix of small numpy products and interpreter work."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 32, 16))
    w1 = rng.standard_normal((16, 64)) / 4
    w2 = rng.standard_normal((64, 16)) / 8
    table: dict[int, str] = {}
    start = time.perf_counter()
    for i in range(4000):
        h = np.tanh(x @ w1) @ w2
        x = x + h - h.mean(axis=-1, keepdims=True)
        table[i % 97] = str(i)
        "".join(sorted(table.values()))
    return time.perf_counter() - start


def main() -> None:
    gc.disable()
    for _ in sys.stdin:
        print(repr(kernel_s()), flush=True)


if __name__ == "__main__":
    main()
