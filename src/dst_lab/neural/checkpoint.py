"""Byte view of a parameter group, for bitwise freeze checks."""

from __future__ import annotations

import numpy as np


def group_bytes(groups: dict[str, dict[str, np.ndarray]], group: str) -> bytes:
    """One group's parameters as C-order little-endian float64 bytes, in name order."""
    params = groups[group]
    return b"".join(
        np.ascontiguousarray(params[name], dtype="<f8").tobytes(order="C") for name in sorted(params)
    )
