"""Slow-query log: a bounded reservoir of the worst-latency searches.

Percentiles in ``/metrics`` say the p99 is bad; this module keeps the
actual p99 *queries*. A :class:`SlowQueryLog` retains the ``capacity``
slowest :class:`~repro.obs.provenance.QueryProvenance` records seen so
far as a min-heap keyed on duration: a new record only displaces the
current fastest retained one, so steady-state cost per query is one
comparison against the heap root (O(1) when the query is not slow enough
to keep, the overwhelmingly common case).

The log keeps records by reference and copies nothing. That is safe
because a record is never mutated once published (see
:mod:`repro.obs.provenance`); :meth:`snapshot` renders fresh entry dicts
— query, wall time, trace id, cache verdict, result count and the
constraint-waterfall plan — so readers of ``/debug/slow`` and
``/api/stats`` may mutate what they get.

The module follows the package contract: process-wide default behind
:func:`get_slow_query_log` / :func:`set_slow_query_log`, and an
``enabled`` flag :meth:`SlowQueryLog.record` checks first.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Any, Dict, List

from repro.errors import ObservabilityError
from repro.obs.provenance import QueryProvenance


def _entry(record: QueryProvenance, seq: int, timestamp: float) -> Dict[str, Any]:
    """One retained record as the ``/debug/slow`` entry dict."""
    plan = None
    if record.stages:
        plan = {
            "stages": [stage.to_dict() for stage in record.stages],
            "waterfall": [dict(step) for step in record.waterfall],
        }
    return {
        "query": record.query,
        "seconds": record.seconds,
        "trace_id": record.trace_id,
        "cache": record.cache,
        "results": record.result_count,
        "plan": plan,
        "timestamp": timestamp,
        "seq": seq,
    }


class SlowQueryLog:
    """Thread-safe reservoir of the ``capacity`` slowest query records.

    Parameters
    ----------
    capacity:
        Maximum records retained; when full, a new record evicts the
        fastest retained one only if it is slower.
    enabled:
        When False, :meth:`record` is a no-op after one flag check.
    clock:
        Injectable wall-clock for deterministic tests.
    """

    def __init__(self, capacity: int = 32, enabled: bool = True, clock=time.time):
        if capacity <= 0:
            raise ObservabilityError(
                f"slow-query log capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.enabled = enabled
        self._clock = clock
        # Min-heap of (seconds, seq, timestamp, record): the root is the
        # *fastest* retained query, i.e. the first to be evicted. The
        # unique seq keeps comparisons off the record.
        self._heap: List[tuple] = []
        self._lock = threading.Lock()
        self._seq = 0
        self._recorded = 0

    def record(self, provenance: QueryProvenance) -> bool:
        """Offer one published record; returns True if it was retained."""
        if not self.enabled:
            return False
        seconds = provenance.seconds
        with self._lock:
            if len(self._heap) >= self.capacity and seconds <= self._heap[0][0]:
                # Not slower than the fastest retained record.
                return False
            self._seq += 1
            self._recorded += 1
            item = (seconds, self._seq, self._clock(), provenance)
            if len(self._heap) >= self.capacity:
                heapq.heapreplace(self._heap, item)
            else:
                heapq.heappush(self._heap, item)
            return True

    def snapshot(self) -> List[Dict[str, Any]]:
        """Retained records as fresh entry dicts, slowest first.

        Ties on duration order by sequence (earlier recording first).
        """
        with self._lock:
            items = list(self._heap)
        items.sort(key=lambda item: (-item[0], item[1]))
        return [_entry(record, seq, stamp) for _, seq, stamp, record in items]

    @property
    def recorded(self) -> int:
        """Total queries ever retained (including later-evicted ones)."""
        return self._recorded

    def __len__(self) -> int:
        return len(self._heap)

    def clear(self) -> None:
        """Drop all retained entries (counters survive)."""
        with self._lock:
            self._heap.clear()

    def enable(self) -> None:
        """Turn recording on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn recording off (record() becomes one flag check)."""
        self.enabled = False


# ----------------------------------------------------------------------
# Module-level default log with injection hooks
# ----------------------------------------------------------------------

_default_log = SlowQueryLog()


def get_slow_query_log() -> SlowQueryLog:
    """The process-wide default slow-query log."""
    return _default_log


def set_slow_query_log(log: SlowQueryLog) -> SlowQueryLog:
    """Swap the default log (tests inject a fresh one); returns the old."""
    global _default_log
    previous = _default_log
    _default_log = log
    return previous
