"""Host-speed normalisation of wall-clock timings.

On a shared host the speed of a vCPU changes under the benchmark: a fixed
interpreter loop can take half again as long for a fraction of a second
or for minutes, and nothing in a run's own timings tells that apart from
the program getting slower. So every timed operation (and every set-up
phase) is bracketed by :func:`calibrate`, a fixed interpreter loop timed
in the calling thread's CPU time, and its wall time is scaled by
``REFERENCE_S`` ÷ the mean of the two calibrations around it. A timing
then reads as it would on a host where the calibration takes exactly
``REFERENCE_S``.

The calibration is timed in thread CPU time, so it is blind to what a
program change could cost it — GIL hand-offs to the program's threads,
or the process being descheduled — and sees only the speed of the core
it runs on. It allocates no garbage-collected containers, so it never
triggers or shifts a collection of the program's heap.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Calibration time, in seconds, that normalised timings are scaled to:
#: about the loop's time on a 2.1 GHz Xeon vCPU at its faster speed.
REFERENCE_S = 0.001

_KEYS = [f"calibration-{index:05d}" for index in range(3000)]
_TABLE: dict = {}
_ORDER: List[str] = []


def calibrate() -> float:
    """Thread CPU seconds of one fixed loop of dict, string and sort work.

    The table and list are reused, so only untracked strings and ints are
    allocated.
    """
    table, order = _TABLE, _ORDER
    started = time.thread_time()
    table.clear()
    order.clear()
    for index, key in enumerate(_KEYS):
        table[key] = index * 7 % 1000
    total = 0
    for key in _KEYS:
        total += table[key] + len(key)
        order.append(key[::-1])
    order.sort()
    return time.thread_time() - started


def steady_calibrate() -> float:
    """Median of three calibrations, for the few points where cost is no object."""
    return statistics.median(calibrate() for _ in range(3))


def factor(before: float, after: float) -> float:
    """The scale for a timing bracketed by calibrations ``before`` and ``after``."""
    return 2.0 * REFERENCE_S / (before + after)
