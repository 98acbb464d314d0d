"""Percentiles under the benchmark's reporting rule.

A median needs one sample. A tail percentile is reported only when at least
``MIN_BEYOND`` samples lie beyond it, so a p90 needs 100 samples and a p99
needs 1000; below that the percentile is undefined and reported as None.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n`` samples."""
    return n - max(1, math.ceil(q / 100.0 * n))


def percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank percentile; None when the rule above leaves it undefined."""
    if not 0.0 < q < 100.0:
        raise ValueError("q must lie strictly between 0 and 100")
    n = len(values)
    if n == 0:
        return None
    if q == 50.0:
        return float(statistics.median(values))
    if samples_beyond(n, q) < MIN_BEYOND:
        return None
    return float(sorted(values)[max(1, math.ceil(q / 100.0 * n)) - 1])
