"""Order statistics for the benchmark's timings.

Percentiles use the nearest-rank rule, so every reported value is one of
the measured samples.  A percentile is refused unless at least ten
samples lie beyond it; a tail read from fewer samples than that is one
or two outliers, not a percentile.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def samples_beyond(count: int, pct: float) -> int:
    """Number of samples ranked above the nearest-rank ``pct`` percentile."""
    return count - math.ceil(count * pct / 100.0)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; ValueError if fewer than MIN_BEYOND samples lie beyond it."""
    if not 0 < pct < 100:
        raise ValueError("percentile must lie strictly between 0 and 100, got %r" % (pct,))
    beyond = samples_beyond(len(values), pct)
    if beyond < MIN_BEYOND:
        raise ValueError(
            "p%g of %d samples has only %d beyond it; need at least %d"
            % (pct, len(values), beyond, MIN_BEYOND)
        )
    ordered = sorted(values)
    return ordered[math.ceil(len(values) * pct / 100.0) - 1]


def relative_iqr(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)
