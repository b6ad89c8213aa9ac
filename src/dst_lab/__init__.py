"""dst_lab: spoken-dialog state tracking context-management lab.

Compares three context strategies (multimodal, full spoken, compressed
spoken) at desk scale with a query-pooling compression module, plus the full
evaluation stack: joint goal accuracy, fuzzy post-processing, slot-group F1,
and per-turn analyses.
"""

__version__ = "0.1.0"

import ctypes
import os
from pathlib import Path

import numpy


def _bundled_openblas(function: str):
    """``function`` of the OpenBLAS bundled in numpy's wheel (``numpy.libs``),
    under its ILP64 or LP64 name; None when no such library or symbol exists."""
    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in (f"scipy_openblas_{function}64_", f"scipy_openblas_{function}"):
            if hasattr(lib, name):
                return getattr(lib, name)
    return None


def _limit_blas_threads() -> None:
    """One BLAS thread per process, unless the user chose a count.

    The probe's products are too small for a second OpenBLAS thread to cut
    wall time; it only burns a core, and it changes how some products sum
    (the 9-query config's FeedForward weight gradients), so results would
    depend on the machine's core count.
    """
    if os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS"):
        return
    set_num_threads = _bundled_openblas("set_num_threads")
    if set_num_threads is not None:
        set_num_threads.argtypes, set_num_threads.restype = [ctypes.c_int], None
        set_num_threads(1)


def _libc(function: str):
    """``function`` of the C library this process runs on; None when it has no such symbol."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    return getattr(libc, function, None)


# glibc's mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_GLIBC_HEAP_VARIABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")


def _keep_freed_heap() -> None:
    """Keep up to 64 MiB of freed heap, unless the user set glibc's thresholds.

    Each training epoch frees about 2 MB of temporaries of about 1 MB each at
    the top of the heap. glibc's dynamic rule hands the top back to the kernel
    once more than twice the largest freed block is free there, so the next
    epoch faults every page in again. A 32 MiB mmap threshold (glibc's largest
    on 64-bit) keeps such blocks on the heap, and a 64 MiB trim threshold keeps
    glibc's 2:1 ratio. The mmap threshold goes first: setting either one turns
    the dynamic rule off, and a trim threshold alone sends the blocks to mmap,
    to be faulted in on every allocation. Forked workers inherit the setting.
    """
    if any(name in os.environ for name in _GLIBC_HEAP_VARIABLES):
        return
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return
    mallopt = _libc("mallopt")
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:
            mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_limit_blas_threads()
_keep_freed_heap()
