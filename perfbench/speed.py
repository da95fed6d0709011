"""Machine-speed probe: a fixed pure-Python computation timed between units
of benchmark work.

On a shared host the speed one process gets drifts by ±20% over periods
of seconds (other tenants load the same cores), which swamps the changes
the benchmark exists to detect.  The probe's time moves with that drift
and does not depend on the analyzer's code, so the benchmark reports the
times it measures in its own process (corpus analyses, every setup) at a
fixed reference speed:

    reported = measured * NOMINAL_S / mean(probe times of the same run)

``NOMINAL_S`` is the probe's 10th-percentile time over a few hundred
samples on the host the benchmark was defined on (a 2-vCPU x86-64 VM,
CPython 3.11), so reported times stay close to wall-clock times there.
Raw wall-clock values are printed beside the reported ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List

NOMINAL_S = 0.0027


_TABLE = {key: (key * 7919) % 1009 for key in range(1024)}


def _reference() -> int:
    """Dict lookups and integer arithmetic, the kinds of operation the
    analyzer spends its time on.  It allocates no containers, so its time
    does not depend on how large the benchmark's heap has grown (a probe
    that allocates would trigger garbage collections that scan the heap).
    Returns its result so none of the work is skipped."""
    table = _TABLE
    total = 0
    for value in range(20_000):
        total += table[value & 1023] ^ (value * value) % 7
    return total


class SpeedProbe:
    """Collects probe timings; :meth:`factor` turns them into the scale
    applied to the times measured alongside them."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        began = time.perf_counter()
        _reference()
        spent = time.perf_counter() - began
        self.samples.append(spent)
        return spent

    def factor(self) -> float:
        """``NOMINAL_S / mean probe time``: below 1 when the run was slowed."""
        if not self.samples:
            raise ValueError("speed probe was never sampled")
        return NOMINAL_S / statistics.fmean(self.samples)
