"""Order statistics shared by the harness and the compare command."""

from __future__ import annotations

import math
import statistics

# Percentiles offered for the tail of a timing, highest first.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def tail(values) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    count = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(0, math.ceil(count * p / 100.0) - 1)  # nearest-rank percentile
        if count - rank - 1 >= 10:
            return {"percentile": p, "value": ordered[rank]}
    return None
