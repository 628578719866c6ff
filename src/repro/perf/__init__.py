"""Query-path performance layer: generation-stamped result caching.

The paper chooses Gauss–Seidel for production precisely because ranking
must keep up with a wiki whose double-link structure evolves continuously
(Section III, Fig. 3), and repeated advanced searches over that wiki
should not re-run the Fig. 1 pipeline. This package supplies the caching
half of that story; the incremental re-ranking half lives in
:mod:`repro.pagerank.incremental` and
:class:`repro.core.ranking.PageRankRanker`.

- :mod:`repro.perf.cache` — :class:`GenerationalLruCache`, an LRU result
  cache whose entries are stamped with the repository *generation* (the
  SMR mutation counter). Edits and bulk loads bump the generation, so
  stale entries die lazily on lookup instead of requiring an eager
  flush; :func:`result_cache_key` canonicalizes a
  :class:`~repro.core.query.SearchQuery` + privilege pair into the cache
  key the engine uses.

Searches, ranking solves, similarity matrices and bulk loads all run
serially on the calling thread; :mod:`repro.perf.pool` and
:mod:`repro.perf.procpool` keep only no-op ``shutdown`` hooks. Cache
verdicts report through :mod:`repro.obs` under
``perf_cache_*_total{cache=...}``, visible in ``GET /metrics`` and
``GET /api/stats`` (see docs/PERFORMANCE.md for invalidation and
concurrency semantics).
"""

from repro.perf.cache import (
    CacheStats,
    GenerationalLruCache,
    result_cache_key,
)

__all__ = [
    "CacheStats",
    "GenerationalLruCache",
    "result_cache_key",
]
