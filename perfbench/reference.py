"""A fixed reference computation, timed beside every operation to factor out machine speed.

On a shared machine the speed available to one process drifts by tens of
percent over seconds to minutes, and a whole run can land in a slow spell.
The benchmark therefore times this computation (a pure-Python loop plus
small NumPy array passes, the same mix vps spends its time in) between
consecutive operations, about a tenth as long as the operations, and scales
each operation's throughput by ``median reference time around it /
REFERENCE_MS``: the figure it would reach on a machine where the reference
takes ``REFERENCE_MS``. The run reports the median over its operations; the
raw figures are reported beside the normalised ones.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_MS = 10.0
REFERENCE_SHARE = 0.1  # reference time as a share of operation time in a loop


def reference_ms() -> float:
    """Wall time of the reference computation, in milliseconds."""
    start = time.perf_counter()
    total = 0
    for i in range(130_000):
        total += i * i
    values = np.arange(16_384, dtype=np.float64)
    for _ in range(50):
        values = np.sqrt(values * values + 1.0)
    return (time.perf_counter() - start) * 1e3
