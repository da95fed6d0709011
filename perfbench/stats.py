"""Percentiles with an explicit count of the samples beyond them."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

# A tail percentile is reported only with at least this many samples
# strictly beyond it, so one outlier cannot set it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values`` by linear
    interpolation between closest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError("percentile must be within [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def tail(values: Sequence[float], q: float = 99.0) -> Tuple[float, int]:
    """``(percentile, samples beyond it)``; raises when fewer than
    :data:`MIN_BEYOND` samples lie beyond, i.e. the run was too short."""
    count = beyond(values, q)
    if count < MIN_BEYOND:
        raise ValueError(
            "p%g of %d samples has only %d beyond it (need %d)"
            % (q, len(values), count, MIN_BEYOND)
        )
    return percentile(values, q), count
