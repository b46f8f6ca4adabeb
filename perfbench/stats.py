"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: A tail percentile is reported only where at least this many samples
#: lie beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it.

    With *n* sorted samples that is the sample at index ``n - 11``, the
    ``100 * (n - 10) / n`` th percentile.  Below 21 samples that sample
    would lie at or below the median, which is no tail; the maximum is
    returned instead, as percentile 100.  The caller prints *n* beside it.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return ordered[-1], 100.0, n
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
