"""Summary statistics shared by the benchmark report and its tests."""

from __future__ import annotations

import math
import statistics

# A tail percentile is only reported when at least this many samples lie
# beyond it, so one slow outlier cannot be the whole tail.
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float] | None:
    """Highest percentile that still has ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``, where the value is the order
    statistic of 1-based rank ``n - TAIL_BEYOND`` and the percentile is
    ``100 * rank / n``.  Fewer than ``2 * TAIL_BEYOND`` samples give
    None: such a tail would sit at or below the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile (zeros when empty)."""
    values = list(values)
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))

