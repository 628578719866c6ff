"""Query history: recent and popular searches.

The demo's interface surfaces popular queries back to users (the same
"trends" idea the tag clouds serve, applied to search behaviour). The log
is in-memory, bounded, and ordered by a logical sequence counter — no
wall clock, so tests are deterministic. Query threads share one log, so
every method holds its lock: the window and the popularity counts move
together.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from typing import Deque, List, Tuple

from repro.errors import QueryError


def normalize_query_text(text: str) -> str:
    """Canonical form for counting: trimmed, lower-case, single-spaced."""
    canonical = " ".join(text.strip().lower().split())
    if not canonical:
        raise QueryError("cannot log an empty query")
    return canonical


class QueryLog:
    """A bounded log of executed searches."""

    def __init__(self, capacity: int = 1000):
        if capacity <= 0:
            raise QueryError(f"log capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._recent: Deque[Tuple[int, str, int]] = deque(maxlen=capacity)
        self._counts: Counter = Counter()
        self._sequence = 0
        self._lock = threading.Lock()

    def record(self, query_text: str, result_count: int) -> None:
        """Log one executed search and its result count."""
        canonical = normalize_query_text(query_text)
        with self._lock:
            self._sequence += 1
            if len(self._recent) == self.capacity:
                # The evicted entry leaves the popularity counts too, so
                # "popular" reflects the retained window, not all time.
                evicted = self._recent[0][1]
                self._counts[evicted] -= 1
                if self._counts[evicted] <= 0:
                    del self._counts[evicted]
            self._recent.append((self._sequence, canonical, result_count))
            self._counts[canonical] += 1

    @property
    def total_logged(self) -> int:
        """Searches recorded over the log's lifetime (not the window)."""
        return self._sequence

    def recent(self, k: int = 10) -> List[str]:
        """The last ``k`` distinct queries, most recent first (none for ``k <= 0``)."""
        queries: List[str] = []
        if k <= 0:
            return queries
        seen = set()
        with self._lock:
            for _, query, _ in reversed(self._recent):
                if query not in seen:
                    seen.add(query)
                    queries.append(query)
                    if len(queries) == k:
                        break
        return queries

    def popular(self, k: int = 10) -> List[Tuple[str, int]]:
        """The ``k`` most-run queries in the window, with counts (none for ``k <= 0``)."""
        if k <= 0:
            return []
        with self._lock:
            counts = list(self._counts.items())
        return sorted(counts, key=lambda item: (-item[1], item[0]))[:k]

    def zero_result_queries(self, k: int = 10) -> List[str]:
        """Recent queries that returned nothing, the content-gap signal (none for ``k <= 0``)."""
        seen: List[str] = []
        if k <= 0:
            return seen
        with self._lock:
            for _, query, count in reversed(self._recent):
                if len(seen) == k:
                    break
                if count == 0 and query not in seen:
                    seen.append(query)
        return seen
