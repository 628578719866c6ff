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

The :class:`ProvenanceRecorder` ring is the only per-search store: the
engine appends each finished record to it and observes two histograms,
and nothing else keeps a copy. Every per-query view is computed from one
locked snapshot of the ring when a reader asks for it: the recent
records (filterable by trace id) and the slowest records
(:data:`SLOW_VIEW_SIZE` of them), which ``/debug/provenance`` serves
side by side, the slowest distinct queries (``/api/stats``), and query
popularity with the zero-result queries (``/api/queries/popular``). So each view covers the last
``capacity`` searches (1,000 by default) of the whole process. The ring
stamps ``timestamp`` and ``seq`` as it admits a record. From there on
the record is never mutated once published, which is what lets the ring
keep records by reference and the views render fresh dicts from them.

The recorder follows the package's standard contract: a process-wide
default swappable via :func:`set_provenance_recorder` and an ``enabled``
flag; ``explain=full`` on ``/api/search`` returns the record whether or
not the ring keeps it.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import Counter, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import ObservabilityError

#: How many of the slowest retained records ``/debug/provenance`` shows.
SLOW_VIEW_SIZE = 32


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
        #: on cache hits too; read by the ring's views and the metrics.
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
        When False, :meth:`record` keeps nothing; ``explain=full`` still
        returns its own record.
    clock:
        Injectable wall-clock source for deterministic tests.
    """

    def __init__(
        self,
        capacity: int = 1000,
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

    @property
    def recorded(self) -> int:
        """Records the ring has admitted, evicted and cleared ones included."""
        return self._seq

    def snapshot(self) -> List[QueryProvenance]:
        """The retained records, oldest first, copied under the lock."""
        with self._lock:
            return list(self._buffer)

    def records(
        self, trace_id: Optional[str] = None, k: int = 20
    ) -> List[Dict[str, Any]]:
        """The last ``k`` records as dicts with their result counts, most
        recent first.

        ``trace_id`` filters before ``k`` applies, so an ``X-Trace-Id``
        header can always find its provenance while the ring holds it.
        """
        snapshot = self.snapshot()
        if trace_id is not None:
            snapshot = [p for p in snapshot if p.trace_id == trace_id]
        return [
            dict(p.to_dict(), results=p.result_count)
            for p in reversed(snapshot[-k:] if k > 0 else [])
        ]

    def slowest(self, k: int = SLOW_VIEW_SIZE) -> List[Dict[str, Any]]:
        """The ``k`` slowest retained records as fresh entries (the
        ``slowest`` list of ``/debug/provenance``), slowest first, ties
        by ``seq``.

        Each entry holds the query, wall time, trace id, cache verdict,
        result count, the constraint-waterfall plan (None for a cache
        hit's record) and the ring's stamps; a reader may mutate it.
        """
        slowest = heapq.nsmallest(k, self.snapshot(), key=_slowness)
        return [_slow_entry(p) for p in slowest]

    def slowest_queries(self, k: int) -> List[Dict[str, Any]]:
        """The ``k`` slowest distinct query texts, worst first, each with
        its slowest retained time."""
        slowest: Dict[str, float] = {}
        for p in sorted(self.snapshot(), key=_slowness):
            if len(slowest) == k:
                break
            slowest.setdefault(p.query, p.seconds)
        return [{"query": q, "seconds": s} for q, s in slowest.items()]

    def popularity(self, k: int) -> Tuple[List[Tuple[str, int]], List[str]]:
        """Query popularity over the retained records, as normalized text.

        Returns the ``k`` most-run queries with their counts, by ``(-count,
        query)``, and the ``k`` most recent distinct queries that returned
        nothing (the content-gap signal). A query's normalized text is
        lower case with single spaces, so keyword case variants count as
        one query.
        """
        if k <= 0:
            return [], []
        snapshot = self.snapshot()
        counts = Counter(_normalized(p.query) for p in snapshot)
        popular = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]
        zero_results: Dict[str, None] = {}
        for p in reversed(snapshot):
            if p.result_count == 0:
                zero_results.setdefault(_normalized(p.query))
                if len(zero_results) == k:
                    break
        return popular, list(zero_results)

    def __len__(self) -> int:
        return len(self._buffer)

    def clear(self) -> None:
        """Drop every retained record (:attr:`recorded` keeps counting)."""
        with self._lock:
            self._buffer.clear()

    def enable(self) -> None:
        """Turn provenance collection on."""
        self.enabled = True

    def disable(self) -> None:
        """Stop retaining records."""
        self.enabled = False


def _slowness(provenance: QueryProvenance) -> Tuple[float, int]:
    """Sort key putting the slowest record first, earlier ``seq`` on ties."""
    return -provenance.seconds, provenance.seq


def _normalized(query: str) -> str:
    """A query's text as popularity counts it: lower case, single spaces."""
    return " ".join(query.lower().split())


def _slow_entry(provenance: QueryProvenance) -> Dict[str, Any]:
    """One record as a fresh :meth:`ProvenanceRecorder.slowest` entry dict."""
    plan = None
    if provenance.stages:
        plan = {
            "stages": [stage.to_dict() for stage in provenance.stages],
            "waterfall": [dict(step) for step in provenance.waterfall],
        }
    return {
        "query": provenance.query,
        "seconds": provenance.seconds,
        "trace_id": provenance.trace_id,
        "cache": provenance.cache,
        "results": provenance.result_count,
        "plan": plan,
        "timestamp": provenance.timestamp,
        "seq": provenance.seq,
    }


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
