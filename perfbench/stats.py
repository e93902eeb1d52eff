"""Order statistics for the benchmark's timings.

Every latency the benchmark prints carries its sample count, and a
percentile is only reported when at least ``MIN_BEYOND`` samples lie
beyond it: with fewer, the value is one or two outliers, not a tail.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "MIN_BEYOND",
    "Percentile",
    "TooFewSamples",
    "median",
    "percentile",
    "relative_iqr",
]

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to mean anything."""


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, with the count it came from."""

    q: float
    value: float
    count: int


def percentile(values: Sequence[float], q: float) -> Percentile:
    """The nearest-rank ``q``-th percentile of ``values``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie strictly beyond the percentile's rank.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(values)
    count = len(ordered)
    rank = max(1, math.ceil(q / 100 * count))  # 1-based nearest rank
    beyond = count - rank
    if count == 0 or beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {count} sample(s) leaves {max(beyond, 0)} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return Percentile(q=q, value=ordered[rank - 1], count=count)


def median(values: Sequence[float]) -> float:
    """The median (mean of the middle pair for even counts)."""
    if not values:
        raise TooFewSamples("median of no samples")
    return statistics.median(values)


def relative_iqr(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)``, the same quartiles the
    benchmark's acceptance rule is written against.
    """
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
