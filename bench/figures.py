"""Summary statistics the benchmark reports: median, quartiles and a tail
percentile only where enough samples lie beyond it."""

from __future__ import annotations

import statistics

TAIL_PERMILLE = (999, 990, 900)  # p99.9, p99, p90
MIN_BEYOND_TAIL = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them; a
    single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def tail_percentile(values):
    """(p, value) for the highest percentile with at least ten samples beyond
    it, or None when there are too few samples for any tail."""
    values = sorted(values)
    n = len(values)
    for permille in TAIL_PERMILLE:
        rank = -(-permille * n // 1000)  # nearest rank: ceil(p * n)
        if rank >= 1 and n - rank >= MIN_BEYOND_TAIL:
            return permille / 10.0, float(values[rank - 1])
    return None


def summarize(values) -> dict:
    """Sample count, median and quartiles, plus a tail percentile where one
    is meaningful."""
    values = list(values)
    q1, q2, q3 = quartiles(values)
    out = {"n": len(values), "median": q2, "q1": q1, "q3": q3}
    tail = tail_percentile(values)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out
