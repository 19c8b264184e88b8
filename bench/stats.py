"""Order statistics used by the benchmark.

Percentiles use the nearest-rank rule: the p-th percentile of n samples is
the k-th smallest with k = ceil(p * n / 100), so exactly n - k samples lie
beyond it.  A percentile is only reported when at least MIN_BEYOND samples
lie beyond it; `min_samples` gives the run length that guarantees this.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    if n < 1:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    return max(1, math.ceil(p * n / 100 - 1e-9))


def samples_beyond(n: int, p: float) -> int:
    """Number of samples strictly above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def min_samples(p: float, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which at least `beyond` lie past the p-th percentile."""
    n = 1
    while samples_beyond(n, p) < beyond:
        n += 1
    return n


def percentile(values: Sequence[float], p: float, beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank p-th percentile; refuses when too few samples lie beyond it."""
    s = sorted(values)
    if samples_beyond(len(s), p) < beyond:
        raise ValueError(
            f"{len(s)} samples leave fewer than {beyond} beyond the {p}th percentile"
        )
    return s[_rank(len(s), p) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
