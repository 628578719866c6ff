"""A generation-stamped LRU cache for the hot query path.

It has two users: the engine's query-result cache, stamped with
:attr:`repro.core.ranking.PageRankRanker.generation`, and the tag-cloud
cache of :class:`repro.tagging.TaggingSystem` (the paper's Fig. 4
Cache), stamped with ``TagStore.version``.

Invalidation strategy (documented in docs/PERFORMANCE.md): every entry is
stamped with the caller's *generation* — for the result cache, the SMR's
monotonically increasing mutation counter and the ranker epoch — at the
moment it is stored. A lookup only hits when the stored stamp equals the
caller's current generation; an entry from an older generation counts as
*stale*, is dropped lazily, and the caller recomputes. Writers therefore
never touch the cache: a page edit or a 10k-record bulk load
"invalidates" everything by incrementing one integer.

The cache holds one generation. Generations are compared only for
equality, so an entry whose stamp differs from a new put's can never hit
again: the first put of another generation drops every entry before it
stores its own. A put that raced a write (stamped with the generation
before it) may drop live entries that way; that costs hits, never a wrong
result. Only readers put, so writers still never touch the cache.

Compared with eager flushing this keeps writes O(1), and compared with
TTLs it is exact: a result can never be served across a mutation, and is
never discarded while the repository is unchanged.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple

from repro import obs
from repro.errors import ReproError

# Tells a stored ``None`` apart from an absent key in one dict probe.
_ABSENT = object()


@dataclass
class CacheStats:
    """Plain-integer bookkeeping, mirrored into the metrics registry.

    ``stale`` counts lookups that found an entry from an older
    generation — the lazy-invalidation analogue of a flush.
    """

    hits: int = 0
    misses: int = 0
    stale: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.stale

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0


class GenerationalLruCache:
    """LRU cache whose entries expire when the data generation moves on.

    Parameters
    ----------
    capacity:
        Maximum number of entries; least-recently-used entries are
        evicted beyond it.
    name:
        Label under which the cache reports to the metrics registry
        (``perf_cache_*_total{cache=<name>}``).
    """

    def __init__(self, capacity: int = 256, name: str = "query_results"):
        if capacity <= 0:
            raise ReproError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: The one generation every entry is stamped with.
        self._generation: Hashable = None
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def _record_size(self) -> None:
        """Report the entry count; called under the lock after each change."""
        obs.get_registry().gauge(
            "perf_cache_entries",
            "Live entries per cache name.",
            labels=("cache",),
        ).labels(self.name).set(float(len(self._entries)))

    def _bump(self, event: str) -> None:
        setattr(self.stats, event, getattr(self.stats, event) + 1)
        obs.get_registry().counter(
            f"perf_cache_{event}_total",
            f"Cache {event} per cache name.",
            labels=("cache",),
        ).labels(self.name).inc()

    def get(self, key: Hashable, generation: int) -> Optional[Any]:
        """The cached value for ``key`` at ``generation``, else ``None``.

        An entry stored under an older generation is treated as absent
        (and dropped); it counts as ``stale`` rather than ``misses`` so
        the two cold-path causes stay distinguishable in ``/metrics``.
        """
        return self.lookup(key, generation)[0]

    def lookup(self, key: Hashable, generation: int) -> Tuple[Optional[Any], str]:
        """Like :meth:`get`, but also returns the verdict: hit/miss/stale.

        Callers that narrate their cache decision (the engine's per-query
        log event, slow-query diagnostics) need the verdict, not just the
        value — a miss and a lazily-invalidated stale entry have the same
        value (``None``) but very different operational meanings.
        """
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is _ABSENT:
                self._bump("misses")
                return None, "miss"
            if self._generation != generation:
                del self._entries[key]
                self._record_size()
                self._bump("stale")
                obs.get_event_log().debug(
                    "perf.cache_stale",
                    cache=self.name,
                    stored_generation=self._generation,
                    current_generation=generation,
                )
                return None, "stale"
            self._entries.move_to_end(key)
            self._bump("hits")
            return value, "hit"

    def put(self, key: Hashable, generation: int, value: Any) -> None:
        """Store ``value`` under ``key`` stamped with ``generation``.

        A ``generation`` other than the stored entries' drops them all
        first: none of them can hit again. The drop is not an eviction.
        """
        with self._lock:
            if generation != self._generation:
                self._entries.clear()
                self._generation = generation
            elif key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._bump("evictions")
            self._record_size()

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()
            self._record_size()


def result_cache_key(query, user) -> Tuple:
    """Canonical, hashable cache key for one (query, privileges) pair.

    Normalization keeps distinct-but-equivalent requests on one entry:
    keyword whitespace collapses, the kind is lower-cased, and property
    filters are order-insensitive (both strict intersection and relaxed
    union are commutative, and the match degree counts satisfied
    predicates without regard to order). Everything that *can* change the
    response stays in the key: sort/order, limit/offset, relaxed mode,
    the bounding box, and the user's readable-kind whitelist — two users
    with different privileges never share an entry.
    """
    allowed = user.policy.allowed_kinds
    privileges = "*" if allowed is None else ",".join(sorted(allowed))
    bbox = query.bbox
    return (
        " ".join(query.keyword.split()).lower(),
        (query.kind or "").lower(),
        tuple(sorted((f.prop, f.op, repr(f.value)) for f in query.filters)),
        query.sort,
        query.descending,
        query.limit,
        query.offset,
        query.relaxed,
        (bbox.south, bbox.west, bbox.north, bbox.east) if bbox else None,
        privileges,
    )
