"""Per-query provenance: the one record every search leaves behind.

Aggregate metrics say *that* queries are slow; the span tree says *where*
time went; this module says *why the result set is what it is*. The
engine builds one :class:`QueryProvenance` record per search, cache hits
included, capturing the paper's Fig. 1 pipeline as data:

- one :class:`ConstraintStage` per evaluated constraint — keyword, each
  SQL/SPARQL property filter, kind listing, bounding box — with its
  access strategy, wall time, match count and selectivity against the
  corpus;
- the **waterfall**: candidates remaining after each intersection step,
  so "which constraint killed my results" is a table lookup;
- the privilege filter (candidates in → readable out), the ranking step
  (sort key, top-k vs. full-sort path), the cache verdict, the result
  count and the repository generation the query ran against.

Every per-query view reads this record: the :class:`ProvenanceRecorder`
ring (``/debug/provenance``, filterable by trace id), the slow-query log
(``/debug/slow``, ``/api/stats``), the ``engine.search`` event, the
engine's metric families and its query log. The engine fills a record
while the pipeline runs, then publishes it once, ring first; the ring
stamps ``timestamp`` and ``seq`` as it admits the record. From there on
it is frozen: a record is never mutated once published, which is what
lets the slow log keep records by reference instead of copying them.

The recorder follows the package's standard contract: a process-wide
default swappable via :func:`set_provenance_recorder` and an ``enabled``
flag; ``explain=full`` on ``/api/search`` returns the record whether or
not the ring keeps it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.errors import ObservabilityError


class ConstraintStage:
    """One evaluated constraint: strategy, cost and selectivity."""

    __slots__ = ("name", "strategy", "seconds", "matched", "corpus", "selectivity")

    def __init__(
        self,
        name: str,
        strategy: str,
        seconds: float,
        matched: int,
        corpus: int,
    ):
        self.name = name
        self.strategy = strategy
        self.seconds = seconds
        self.matched = matched
        self.corpus = corpus
        self.selectivity = matched / corpus if corpus else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly rendering for ``/debug`` surfaces."""
        return {
            "constraint": self.name,
            "strategy": self.strategy,
            "seconds": self.seconds,
            "matched": self.matched,
            "corpus": self.corpus,
            "selectivity": self.selectivity,
        }


class QueryProvenance:
    """The full provenance record of one executed search."""

    __slots__ = (
        "query", "trace_id", "privileges", "generation", "cache",
        "seconds", "stages", "waterfall", "candidates", "allowed",
        "ranking", "result_count", "timestamp", "seq",
    )

    def __init__(self, query: str, privileges: str = "*"):
        self.query = query
        self.privileges = privileges
        self.trace_id: Optional[str] = None
        self.generation: Optional[List[int]] = None
        self.cache: str = "uncached"
        self.seconds: float = 0.0
        self.stages: List[ConstraintStage] = []
        self.waterfall: List[Dict[str, Any]] = []
        self.candidates: Optional[int] = None
        self.allowed: Optional[int] = None
        self.ranking: Optional[Dict[str, Any]] = None
        #: Readable matches the caller got (``total_candidates``), set
        #: on cache hits too; read by the slow log, event and metrics.
        self.result_count: int = 0
        self.timestamp: float = 0.0
        self.seq: int = 0

    # -- builder hooks the engine calls while the pipeline runs ----------

    def add_stage(
        self, name: str, strategy: str, seconds: float, matched: int, corpus: int
    ) -> None:
        """Record one evaluated constraint."""
        self.stages.append(ConstraintStage(name, strategy, seconds, matched, corpus))

    def add_waterfall_step(
        self, name: str, before: Optional[int], after: int
    ) -> None:
        """Record one intersection step (``before=None`` for the first)."""
        self.waterfall.append({"constraint": name, "before": before, "after": after})

    def set_privilege_filter(self, candidates: int, allowed: int) -> None:
        """Record the privilege stage: candidate pages in, readable out."""
        self.candidates = candidates
        self.allowed = allowed

    def set_ranking(self, sort: str, path: str, returned: int) -> None:
        """Record how the survivors were ranked and materialized."""
        self.ranking = {"sort": sort, "path": path, "returned": returned}

    def to_dict(self) -> Dict[str, Any]:
        """The full record as JSON-friendly nested dicts."""
        return {
            "query": self.query,
            "trace_id": self.trace_id,
            "privileges": self.privileges,
            "generation": self.generation,
            "cache": self.cache,
            "seconds": self.seconds,
            "stages": [stage.to_dict() for stage in self.stages],
            "waterfall": [dict(step) for step in self.waterfall],
            "candidates": self.candidates,
            "allowed": self.allowed,
            "ranking": dict(self.ranking) if self.ranking else None,
            "timestamp": self.timestamp,
            "seq": self.seq,
        }


class ProvenanceRecorder:
    """Bounded, thread-safe ring of recent :class:`QueryProvenance` records.

    Parameters
    ----------
    capacity:
        How many records to retain; the oldest are dropped first.
    enabled:
        When False, :meth:`record` keeps nothing; the engine still builds
        every record for the other views.
    clock:
        Injectable wall-clock source for deterministic tests.
    """

    def __init__(
        self,
        capacity: int = 128,
        enabled: bool = True,
        clock=time.time,
    ):
        if capacity <= 0:
            raise ObservabilityError(
                f"provenance capacity must be positive, got {capacity}"
            )
        self.enabled = enabled
        self._clock = clock
        self._buffer: Deque[QueryProvenance] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0

    def record(self, provenance: QueryProvenance) -> None:
        """Retain one finished record (stamps its timestamp and seq).

        A no-op while disabled.
        """
        if not self.enabled:
            return
        provenance.timestamp = self._clock()
        with self._lock:
            self._seq += 1
            provenance.seq = self._seq
            self._buffer.append(provenance)

    def records(
        self, trace_id: Optional[str] = None, k: int = 20
    ) -> List[Dict[str, Any]]:
        """The last ``k`` records as dicts, most recent first.

        ``trace_id`` filters before ``k`` applies, so an ``X-Trace-Id``
        header can always find its provenance while the ring holds it.
        """
        with self._lock:
            snapshot = list(self._buffer)
        if trace_id is not None:
            snapshot = [p for p in snapshot if p.trace_id == trace_id]
        return [p.to_dict() for p in reversed(snapshot[-k:] if k > 0 else [])]

    def __len__(self) -> int:
        return len(self._buffer)

    def clear(self) -> None:
        """Drop every retained record."""
        with self._lock:
            self._buffer.clear()

    def enable(self) -> None:
        """Turn provenance collection on."""
        self.enabled = True

    def disable(self) -> None:
        """Stop retaining records."""
        self.enabled = False


# ----------------------------------------------------------------------
# Module-level default recorder with injection hooks
# ----------------------------------------------------------------------

_default_recorder = ProvenanceRecorder()


def get_provenance_recorder() -> ProvenanceRecorder:
    """The process-wide default provenance recorder."""
    return _default_recorder


def set_provenance_recorder(recorder: ProvenanceRecorder) -> ProvenanceRecorder:
    """Swap the default recorder (tests inject a fresh one); returns the old."""
    global _default_recorder
    previous = _default_recorder
    _default_recorder = recorder
    return previous
