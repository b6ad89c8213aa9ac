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


_limit_blas_threads()
