"""Order statistics used by the benchmark and its comparison command."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile``'s default method; raises on an empty
    sample so a metric can never silently read 0.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quartiles(values: Sequence[float]):
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them.

    That is the "exclusive" method, which the steadiness criterion of
    the comparison command is defined on.
    """
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
