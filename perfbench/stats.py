"""Order statistics and the parent-versus-change verdict used by the benchmark.

Quartiles follow ``statistics.quantiles(values, n=4)`` (the exclusive method),
so the spreads printed here match the ones an outside check computes from the
same values.
"""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile in TAIL_PERCENTILES with at least MIN_BEYOND samples
    above it, as (percentile, value) by the nearest-rank rule; None when the
    sample is too small for any of them."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(round(p * n / 100, 9)))
        if n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def pair_wins(parent: list[float], change: list[float], better: str) -> tuple[int, int]:
    """(pairs the change won, pairs compared); ties count for neither side."""
    wins = 0
    for p, c in zip(parent, change):
        if (c < p) if better == "lower" else (c > p):
            wins += 1
    return wins, min(len(parent), len(change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """improved / no worse / worse / unresolved for paired per-run medians.

    improved: at least MIN_PAIRS pairs, the change wins WIN_SHARE of them, and
    the medians differ by more than the parent's inter-quartile distance.
    When either side's relative spread exceeds ``bound`` the result is
    unresolved, unless every change run beats every parent run. Otherwise a
    change median worse than the parent's by more than ``bound`` is worse.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (p_med - c_med)
    wins, pairs = pair_wins(parent, change, better)
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gain > p_q3 - p_q1:
        return "improved"
    if max(relative_spread(parent), relative_spread(change)) > bound:
        if all(sign * (p - c) > 0 for p in parent for c in change):
            return "no worse"
        return "unresolved"
    if -gain > bound * abs(p_med):
        return "worse"
    return "no worse"
