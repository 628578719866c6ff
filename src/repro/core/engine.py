"""The advanced search engine: Query Interface + Query Management.

The pipeline mirrors Fig. 1. A :class:`~repro.core.query.SearchQuery`
is decomposed into constraint sets:

- the keyword runs against the inverted index (basic search);
- each property filter runs against the *relational* store when the
  property is mapped to a column (SQL), and against the *RDF graph*
  otherwise (SPARQL) — the paper's "combination of SQL and SPARQL";
- kind and bounding-box constraints restrict further.

Strict mode intersects all constraint sets; relaxed mode unions the
property filters and reports a per-result **match degree** (the fraction
of predicates satisfied) — the quantity the map visualization colors by.
Results are ranked by the double-link PageRank metric blended with
keyword relevance.
"""

from __future__ import annotations

import heapq
import re
import threading
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro import obs

from repro.core.autocomplete import AutocompleteService
from repro.core.facets import facet_counts
from repro.core.privileges import ANONYMOUS, User
from repro.core.query import (
    PropertyFilter,
    SORT_PAGERANK,
    SORT_RELEVANCE,
    SearchQuery,
    parse_query,
)
from repro.core.ranking import PageRankRanker
from repro.core.recommend import Recommendation, Recommender
from repro.core.results import SearchResult, SearchResults
from repro.errors import QueryError, RelationalError
from repro.geo.point import GeoPoint
from repro.perf.cache import GenerationalLruCache, result_cache_key
from repro.smr.repository import SensorMetadataRepository

# Weighting of keyword relevance vs. PageRank in the default sort.
_RELEVANCE_WEIGHT = 0.6
_PAGERANK_WEIGHT = 0.4

# Distinguishes "caller wants the default cache" from an explicit None
# (= caching disabled) in AdvancedSearchEngine.__init__.
_DEFAULT_CACHE_SENTINEL: Any = object()


class AdvancedSearchEngine:
    """The paper's search system over one Sensor Metadata Repository.

    Repeated queries are served from a generation-stamped result cache
    (:mod:`repro.perf`): entries are keyed on the normalized query plus
    the user's privileges and stamped with the SMR mutation counter, so
    any page write invalidates every cached result lazily — post-edit
    searches can never observe pre-edit results. Set ``cache=None`` to
    disable caching (e.g. for benchmarking the raw pipeline); cached
    :class:`~repro.core.results.SearchResults` are shared between callers
    and must be treated as immutable.
    """

    def __init__(
        self,
        smr: SensorMetadataRepository,
        ranker: Optional[PageRankRanker] = None,
        cache: Optional[GenerationalLruCache] = _DEFAULT_CACHE_SENTINEL,
        slow_query_seconds: float = 0.25,
        topk: bool = True,
        spatial_index: bool = True,
    ):
        self.smr = smr
        self.ranker = ranker or PageRankRanker(smr)
        self.autocomplete = AutocompleteService(smr, self.ranker)
        self.recommender = Recommender(smr, self.ranker)
        if cache is _DEFAULT_CACHE_SENTINEL:
            cache = GenerationalLruCache(capacity=256, name="query_results")
        self.cache = cache
        #: Queries at or above this wall-clock threshold emit a WARNING
        #: ``engine.slow_query`` event (with cache verdict, result count
        #: and privilege set) and count into ``engine_slow_queries_total``.
        self.slow_query_seconds = slow_query_seconds
        #: When True (default) and the query carries a limit under a
        #: relevance/pagerank sort, result materialization is lazy: only
        #: the top-k survivors get a :class:`SearchResult` built. The
        #: returned lists are identical to the full-sort path.
        self.topk = topk
        #: When True (default), bounding-box constraints probe a
        #: generation-stamped R-tree over every located page instead of
        #: scanning all titles; ``False`` keeps the linear scan.
        self.spatial_index = spatial_index
        # Per-generation memos shared by all query threads: the
        # IRI -> title map every SPARQL filter needs, per-title GeoPoint
        # parses the bbox paths need, and the spatial R-tree the bbox
        # probe descends. All are stamped with the SMR mutation counter —
        # the same generation the result cache uses — and rebuilt lazily
        # after any write.
        self._iri_map_lock = threading.Lock()
        self._iri_map_memo: Optional[Tuple[int, Dict[str, str]]] = None
        self._location_memo: Optional[Tuple[int, Dict[str, Optional[GeoPoint]]]] = None
        self._spatial_lock = threading.Lock()
        self._spatial_memo: Optional[Tuple[int, Any]] = None  # (generation, RTreeIndex)
        from repro.core.history import QueryLog

        self.query_log = QueryLog()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def parse(self, text: str) -> SearchQuery:
        """Parse the compact query-string syntax."""
        return parse_query(text)

    def search(self, query: SearchQuery, user: User = ANONYMOUS) -> SearchResults:
        """Run an advanced search within the user's privileges.

        The result cache is consulted first: a hit skips the whole
        pipeline (SQL/SPARQL constraint evaluation, ranking, sorting) and
        costs one dict lookup. The generation is captured *before* the
        pipeline runs, so a write that lands mid-search stamps the entry
        as already stale — the conservative direction.
        """
        description = query.describe()
        key = generation = None
        if self.cache is not None:
            key = result_cache_key(query, user)
            generation = self._generation()
        registry = obs.get_registry()
        tracer = obs.get_tracer()
        event_log = obs.get_event_log()
        slowlog = obs.get_slow_query_log()
        prov_recorder = obs.get_provenance_recorder()
        if (
            not registry.enabled
            and not tracer.enabled
            and not event_log.enabled
            and not slowlog.enabled
            and not prov_recorder.enabled
        ):
            # Observability off: skip the timers and span entirely so the
            # hot path costs only this branch (the <1% disabled target).
            if key is not None:
                cached = self.cache.get(key, generation)
                if cached is not None:
                    self.query_log.record(description, cached.total_candidates)
                    return cached
            results = self._search(query, user, description)
            if key is not None:
                self.cache.put(key, generation, results)
            self.query_log.record(description, results.total_candidates)
            return results
        # Observability on: cache hits are still served queries, so they
        # flow through the same span and latency histogram (tagged with a
        # ``cache`` attribute) — percentiles reflect what callers see.
        prov = None
        if prov_recorder.enabled:
            prov = obs.QueryProvenance(
                description, privileges=_privilege_label(user)
            )
        start = time.perf_counter()
        verdict = "uncached"
        try:
            with tracer.span("engine.search", query=description) as span:
                if key is not None:
                    cached, verdict = self.cache.lookup(key, generation)
                else:
                    cached = None
                if cached is not None:
                    results = cached
                else:
                    results = self._search(query, user, description, prov=prov)
                if key is not None:
                    span.set_attribute("cache", verdict)
        except Exception:
            registry.counter(
                "engine_query_errors_total", "Searches that raised an error."
            ).inc()
            event_log.error("engine.search_error", query=description)
            raise
        elapsed = time.perf_counter() - start
        if prov is not None:
            prov.seconds = elapsed
            prov.trace_id = obs.current_trace_id()
            prov.generation = list(generation) if generation is not None else None
            prov.cache = verdict
            prov_recorder.record(prov)
        if slowlog.enabled:
            # Hand the slow log the waterfall snapshot already in hand
            # (no planner round-trip); the log deep-copies only entries
            # it actually retains.
            plan = None
            if prov is not None and prov.stages:
                plan = {
                    "stages": [stage.to_dict() for stage in prov.stages],
                    "waterfall": [dict(step) for step in prov.waterfall],
                }
            slowlog.record(
                description,
                elapsed,
                trace_id=obs.current_trace_id(),
                cache=verdict,
                results=results.total_candidates,
                plan=plan,
            )
        if key is not None and verdict != "hit":
            self.cache.put(key, generation, results)
        registry.counter(
            "engine_queries_total", "Advanced searches executed."
        ).inc()
        registry.histogram(
            "engine_query_seconds", "Advanced-search latency in seconds."
        ).observe(elapsed)
        registry.histogram(
            "engine_result_count",
            "Distribution of per-query candidate counts.",
            buckets=obs.DEFAULT_COUNT_BUCKETS,
        ).observe(results.total_candidates)
        if results.total_candidates == 0:
            registry.counter(
                "engine_zero_result_queries_total", "Searches that matched nothing."
            ).inc()
        if event_log.enabled:
            privileges = _privilege_label(user)
            event_log.info(
                "engine.search",
                query=description,
                seconds=elapsed,
                cache=verdict,
                results=results.total_candidates,
                privileges=privileges,
            )
            if elapsed >= self.slow_query_seconds:
                event_log.warning(
                    "engine.slow_query",
                    query=description,
                    seconds=elapsed,
                    threshold=self.slow_query_seconds,
                    cache=verdict,
                    results=results.total_candidates,
                    privileges=privileges,
                )
                registry.counter(
                    "engine_slow_queries_total",
                    "Searches at or above the slow-query threshold.",
                ).inc()
        self.query_log.record(description, results.total_candidates, latency=elapsed)
        return results

    def _evaluate_constraints(
        self, query: SearchQuery, timed: bool
    ) -> Tuple[List[Any], List[float]]:
        """Evaluate the query's independent constraints, in declaration order.

        The keyword search, each SQL/SPARQL property filter, then the
        bbox probe run one after another on the calling thread; each
        facade call takes the SMR's read lock, so a concurrent writer
        never tears a read. ``timed=True`` additionally returns
        per-constraint wall seconds for provenance.
        """
        jobs: List[Callable[[], Any]] = []
        if query.keyword:
            jobs.append(partial(self.smr.keyword_search, query.keyword))
        jobs.extend(partial(self._titles_matching_filter, flt) for flt in query.filters)
        if query.bbox is not None:
            jobs.append(partial(self._titles_in_bbox, query.bbox))
        if not timed:
            return [job() for job in jobs], []
        outputs: List[Any] = []
        seconds: List[float] = []
        for job in jobs:
            start = time.perf_counter()
            outputs.append(job())
            seconds.append(time.perf_counter() - start)
        return outputs, seconds

    def _search(
        self,
        query: SearchQuery,
        user: User,
        description: Optional[str] = None,
        prov: Optional[obs.QueryProvenance] = None,
    ) -> SearchResults:
        """Execute the Fig. 1 pipeline for one parsed query.

        With ``prov=None`` (the default, and the only mode the disabled
        fast path uses) this is the bare pipeline: no timers, no
        per-stage bookkeeping, nothing allocated beyond the result sets
        themselves. With a :class:`~repro.obs.provenance.QueryProvenance`
        the same pipeline additionally records each constraint's wall
        time, match count and selectivity, the intersection waterfall,
        the privilege filter and the ranking path — the candidate *sets*
        and result lists are identical either way (intersection is
        order-independent and the waterfall intersects in declaration
        order).
        """
        if query.kind is not None:
            user.check_kind(query.kind)
        relevance: Dict[str, float] = {}
        constraint_sets: List[Set[str]] = []

        outputs, job_seconds = self._evaluate_constraints(query, timed=prov is not None)
        if prov is not None:
            corpus = len(self.smr.titles())
        set_names: List[str] = []

        cursor = 0
        if query.keyword:
            hits = outputs[cursor]
            relevance = {hit.doc_id: hit.score for hit in hits}
            constraint_sets.append(set(relevance))
            if prov is not None:
                name = f"keyword={query.keyword!r}"
                prov.add_stage(
                    name, "InvertedIndexScan", job_seconds[cursor], len(hits), corpus
                )
                set_names.append(name)
            cursor += 1

        if query.kind is not None:
            if prov is not None:
                kind_start = time.perf_counter()
                kind_titles = set(self.smr.titles(query.kind))
                name = f"kind={query.kind}"
                prov.add_stage(
                    name,
                    "KindTitleLookup",
                    time.perf_counter() - kind_start,
                    len(kind_titles),
                    corpus,
                )
                set_names.append(name)
                constraint_sets.append(kind_titles)
            else:
                constraint_sets.append(set(self.smr.titles(query.kind)))

        filter_matches = list(
            zip(query.filters, outputs[cursor : cursor + len(query.filters)])
        )
        if prov is not None:
            for offset, (flt, titles) in enumerate(filter_matches):
                prov.add_stage(
                    flt.describe(),
                    self._filter_strategy(flt),
                    job_seconds[cursor + offset],
                    len(titles),
                    corpus,
                )
        cursor += len(query.filters)
        if filter_matches:
            if query.relaxed:
                union: Set[str] = set()
                for _, titles in filter_matches:
                    union |= titles
                constraint_sets.append(union)
                if prov is not None:
                    set_names.append(
                        "any-of(" + ", ".join(f.describe() for f, _ in filter_matches) + ")"
                    )
            else:
                for flt, titles in filter_matches:
                    constraint_sets.append(titles)
                    if prov is not None:
                        set_names.append(flt.describe())

        if query.bbox is not None:
            constraint_sets.append(outputs[cursor])
            if prov is not None:
                bbox = query.bbox
                name = (
                    f"bbox(lat in [{bbox.south}, {bbox.north}], "
                    f"lon in [{bbox.west}, {bbox.east}])"
                )
                prov.add_stage(
                    name,
                    "RTreeProbe" if self.spatial_index else "BBoxScan",
                    job_seconds[cursor],
                    len(outputs[cursor]),
                    corpus,
                )
                set_names.append(name)

        if constraint_sets:
            if prov is not None:
                # Intersect sequentially in declaration order so each
                # step's before/after counts land in the waterfall; the
                # final set equals set.intersection(*constraint_sets).
                candidates = set(constraint_sets[0])
                prov.add_waterfall_step(set_names[0], None, len(candidates))
                for name, cset in zip(set_names[1:], constraint_sets[1:]):
                    before = len(candidates)
                    candidates &= cset
                    prov.add_waterfall_step(name, before, len(candidates))
            else:
                candidates = set.intersection(*constraint_sets)
        else:
            candidates = set(self.smr.titles())
            if prov is not None:
                prov.add_waterfall_step("(no constraints)", None, len(candidates))

        # One locked snapshot instead of a kind_of() lock round-trip per
        # candidate; every candidate came from the repository, so the
        # lookup cannot miss.
        kind_by_key = self.smr.kind_map()
        allowed: List[Tuple[str, str]] = []
        for title in candidates:
            kind = kind_by_key[title.strip().lower()]
            if user.policy.can_read(kind):
                allowed.append((title, kind))
        total = len(allowed)
        if prov is not None:
            prov.set_privilege_filter(len(candidates), total)

        if self._use_topk(query):
            results = self._select_topk(query, allowed, relevance, filter_matches)
            ranking_path = "heap-topk"
        else:
            results = [
                self._build_result(title, kind, relevance, filter_matches)
                for title, kind in allowed
            ]
            self._score_and_sort(query, results)
            results = results[query.offset :]
            if query.limit is not None:
                results = results[: query.limit]
            ranking_path = "full-sort"
        if prov is not None:
            prov.set_ranking(query.sort, ranking_path, len(results))
        if description is None:
            description = query.describe()
        return SearchResults(results, total, description)

    def search_explained(
        self, query: SearchQuery, user: User = ANONYMOUS
    ) -> Tuple[SearchResults, obs.QueryProvenance]:
        """Run ``query`` with full provenance, bypassing the result cache.

        The cache bypass is deliberate: a cached hit would yield an empty
        waterfall, and the point of ``explain=full`` / ``/explore`` is to
        watch the real pipeline run. The record is also pushed into the
        provenance recorder (when enabled) so ``/debug`` surfaces can
        find it again by trace id.
        """
        description = query.describe()
        prov = obs.QueryProvenance(description, privileges=_privilege_label(user))
        prov.cache = "bypass"
        start = time.perf_counter()
        results = self._search(query, user, description, prov=prov)
        prov.seconds = time.perf_counter() - start
        prov.trace_id = obs.current_trace_id()
        prov.generation = list(self._generation())
        recorder = obs.get_provenance_recorder()
        if recorder.enabled:
            recorder.record(prov)
        self.query_log.record(description, results.total_candidates, latency=prov.seconds)
        return results, prov

    def _filter_strategy(self, flt: PropertyFilter) -> str:
        """The access path a property filter resolves to (for provenance)."""
        for kind in self.smr.mapping.kinds:
            if self.smr.mapping.column_for_property(kind, flt.prop) is not None:
                return "SqlFilter"
        return "SparqlFilter"

    def _generation(self) -> Tuple[int, int]:
        """The cache generation: (SMR mutations, ranker epoch).

        Any page write bumps the first component; a forced
        :meth:`~repro.core.ranking.PageRankRanker.refresh` bumps the
        second — cached results embed PageRank scores, so both must
        invalidate them.
        """
        return (self.smr.mutation_count, getattr(self.ranker, "epoch", 0))

    def cache_info(self) -> Dict[str, Any]:
        """Result-cache statistics for ``/api/stats`` and diagnostics."""
        if self.cache is None:
            return {"enabled": False}
        stats = self.cache.stats
        return {
            "enabled": True,
            "entries": len(self.cache),
            "capacity": self.cache.capacity,
            "generation": list(self._generation()),
            "hits": stats.hits,
            "misses": stats.misses,
            "stale": stats.stale,
            "evictions": stats.evictions,
            "hit_rate": stats.hit_rate,
        }

    def explain_search(self, query: SearchQuery) -> Dict[str, Any]:
        """Describe how each constraint of ``query`` would be evaluated.

        Nothing is executed except relational ``EXPLAIN`` — mapped
        property filters show the cost-based plan the SQL planner would
        choose (one entry per mapped kind), unmapped filters report the
        SPARQL fallback, and a bbox constraint reports whether it would
        probe the generation-stamped R-tree or fall back to the linear
        scan. Backs ``/debug/plan`` and ``explain=1`` on ``/api/search``.
        """
        constraints: List[Dict[str, Any]] = []
        if query.keyword:
            constraints.append(
                {
                    "constraint": f"keyword={query.keyword!r}",
                    "strategy": "InvertedIndexScan",
                    "detail": "BM25-ranked lookup in the text index",
                }
            )
        if query.kind is not None:
            constraints.append(
                {
                    "constraint": f"kind={query.kind}",
                    "strategy": "KindTitleLookup",
                    "detail": "direct per-kind title listing",
                }
            )
        for flt in query.filters:
            mapped_kinds = [
                kind
                for kind in self.smr.mapping.kinds
                if self.smr.mapping.column_for_property(kind, flt.prop) is not None
            ]
            if not mapped_kinds:
                constraints.append(
                    {
                        "constraint": flt.describe(),
                        "strategy": "SparqlFilter",
                        "detail": "triple-pattern match + FILTER over the RDF graph",
                    }
                )
                continue
            tables: List[Dict[str, Any]] = []
            for kind in mapped_kinds:
                column = self.smr.mapping.column_for_property(kind, flt.prop)
                condition = _sql_condition(column, flt)
                sql = f"SELECT title FROM {kind} WHERE {condition}"
                entry: Dict[str, Any] = {"kind": kind, "sql": sql}
                try:
                    entry["plan"] = [row[0] for row in self.smr.sql(f"EXPLAIN {sql}")]
                except RelationalError as exc:
                    entry["error"] = str(exc)
                tables.append(entry)
            constraints.append(
                {
                    "constraint": flt.describe(),
                    "strategy": "SqlFilter",
                    "tables": tables,
                }
            )
        if query.bbox is not None:
            bbox = query.bbox
            box = (
                f"lat in [{bbox.south}, {bbox.north}], "
                f"lon in [{bbox.west}, {bbox.east}]"
            )
            entry = {"constraint": f"bbox({box})"}
            if self.spatial_index:
                entry["strategy"] = "RTreeProbe"
                entry["detail"] = "generation-stamped R-tree over located pages"
                entry["index"] = self.spatial_index_info()
            else:
                entry["strategy"] = "BBoxScan"
                entry["detail"] = "linear scan over every located page"
            constraints.append(entry)
        return {
            "query": query.describe(),
            "combine": (
                "union of filter matches, intersected with other constraints"
                if query.relaxed
                else "intersection of all constraint sets"
            ),
            "constraints": constraints,
        }

    def facets(self, results: SearchResults, prop: str) -> List[Tuple[Any, int]]:
        """Facet counts of ``prop`` over a result set (for bar/pie charts)."""
        return facet_counts(self.smr, results.titles, prop)

    def recommend(self, results: SearchResults, k: int = 5) -> List[Recommendation]:
        """Pages related to the result set (the recommendation mechanism)."""
        return self.recommender.recommend(results, k=k)

    def related_pages(self, title: str, k: int = 5):
        """Pages most related to ``title`` via personalized PageRank."""
        return self.ranker.related_pages(title, k=k)

    def snippet(self, title: str, query: str, window: int = 24):
        """A highlighted fragment of the page's text for ``query``."""
        from repro.text.snippet import best_snippet

        text = self.smr.wiki.parsed(title).plain_text
        return best_snippet(f"{title} {text}", query, window=window)

    def did_you_mean(self, keyword: str, limit: int = 3) -> List[str]:
        """Spelling suggestions for a keyword that matched nothing.

        Candidates come from the live vocabulary: property names, string
        property values and title words; ties break toward more frequent
        terms. Multi-word keywords are corrected word by word.
        """
        from repro.text.fuzzy import suggest
        from repro.text.tokenize import tokenize

        vocabulary: Dict[str, float] = {}
        for title in self.smr.titles():
            for token in tokenize(title):
                vocabulary[token] = vocabulary.get(token, 0.0) + 1.0
            for prop, value in self.smr.annotations(title):
                vocabulary[prop.lower()] = vocabulary.get(prop.lower(), 0.0) + 1.0
                if isinstance(value, str):
                    for token in tokenize(value):
                        vocabulary[token] = vocabulary.get(token, 0.0) + 1.0
        corrections = []
        for word in tokenize(keyword):
            if word in vocabulary:
                corrections.append([word])
                continue
            options = suggest(word, list(vocabulary), weights=vocabulary, limit=limit)
            corrections.append(options or [word])
        suggestions = []
        for option in corrections[0] if corrections else []:
            rest = [words[0] for words in corrections[1:]]
            suggestions.append(" ".join([option, *rest]))
        keyword_normalized = " ".join(tokenize(keyword))
        return [s for s in suggestions[:limit] if s != keyword_normalized]

    # ------------------------------------------------------------------
    # Constraint evaluation
    # ------------------------------------------------------------------

    def _titles_matching_filter(self, flt: PropertyFilter) -> Set[str]:
        """Resolve one property filter via SQL (mapped) or SPARQL (not)."""
        mapped_kinds = [
            kind
            for kind in self.smr.mapping.kinds
            if self.smr.mapping.column_for_property(kind, flt.prop) is not None
        ]
        if mapped_kinds:
            return self._sql_filter(flt, mapped_kinds)
        return self._sparql_filter(flt)

    def _sql_filter(self, flt: PropertyFilter, kinds: List[str]) -> Set[str]:
        matches: Set[str] = set()
        errors = []
        for kind in kinds:
            column = self.smr.mapping.column_for_property(kind, flt.prop)
            condition = _sql_condition(column, flt)
            try:
                result = self.smr.sql(f"SELECT title FROM {kind} WHERE {condition}")
            except RelationalError as exc:
                errors.append(f"{kind}: {exc}")
                continue
            matches.update(row[0] for row in result)
        if errors and not matches and len(errors) == len(kinds):
            raise QueryError(
                f"filter {flt.describe()} failed on every kind: {'; '.join(errors)}"
            )
        return matches

    def _sparql_filter(self, flt: PropertyFilter) -> Set[str]:
        prop_local = flt.prop.strip().lower().replace(" ", "_")
        condition = _sparql_condition(flt)
        query = (
            "PREFIX prop: <http://repro.example.org/property/> "
            f"SELECT ?s WHERE {{ ?s prop:{prop_local} ?v . FILTER({condition}) }}"
        )
        result = self.smr.sparql(query)
        matches: Set[str] = set()
        iri_to_title = self._iri_title_map()
        for term in result.column("s"):
            title = iri_to_title.get(getattr(term, "value", None))
            if title is not None:
                matches.add(title)
        return matches

    def _iri_title_map(self) -> Dict[str, str]:
        """The IRI -> title map, memoized per SMR generation.

        Every SPARQL-backed filter needs this map; before memoization a
        three-SPARQL-filter query rebuilt it three times. The generation
        is read *before* the titles, so a concurrent write can at worst
        stamp fresh data with a stale generation (rebuilt next query),
        never stale data with a fresh one.
        """
        from repro.wiki.site import title_to_iri

        generation = self.smr.mutation_count
        memo = self._iri_map_memo
        if memo is not None and memo[0] == generation:
            return memo[1]
        with self._iri_map_lock:
            memo = self._iri_map_memo
            if memo is not None and memo[0] == generation:
                return memo[1]
            mapping = {title_to_iri(title).value: title for title in self.smr.titles()}
            self._iri_map_memo = (generation, mapping)
            return mapping

    def _titles_in_bbox(self, bbox) -> Set[str]:
        """Titles of pages located inside ``bbox``.

        One generation read up front is shared by both paths — the
        R-tree probe and the fallback scan can never disagree about
        which snapshot they serve, and a memo hit re-parses nothing.
        ``BoundingBox.contains`` is a plain inclusive axis test (no
        antimeridian wrap), exactly the R-tree's box semantics, so the
        probe result needs no per-title re-verification.
        """
        generation = self.smr.mutation_count
        if self.spatial_index:
            index = self._spatial_index_for(generation)
            return set(index.box(bbox.south, bbox.north, bbox.west, bbox.east))
        matches: Set[str] = set()
        for title in self.smr.titles():
            location = self._cached_location(generation, title)
            if location is not None and bbox.contains(location):
                matches.add(title)
        return matches

    def _spatial_index_for(self, generation: int):
        """The R-tree over every located page, memoized per generation.

        Same double-checked-lock shape as :meth:`_iri_title_map`: the
        generation was read *before* the titles, so a write landing
        mid-build at worst stamps fresh data with a stale generation
        (rebuilt on the next spatial query), never the reverse.
        """
        from repro.relational.indexes import RTreeIndex

        memo = self._spatial_memo
        if memo is not None and memo[0] == generation:
            return memo[1]
        with self._spatial_lock:
            memo = self._spatial_memo
            if memo is not None and memo[0] == generation:
                return memo[1]
            index = RTreeIndex("engine_spatial", columns=("latitude", "longitude"))
            for title in self.smr.titles():
                location = self._cached_location(generation, title)
                if location is not None:
                    index.insert((location.lat, location.lon), title)
            self._spatial_memo = (generation, index)
            return index

    def spatial_index_info(self) -> Dict[str, Any]:
        """Spatial-index state for ``/api/stats`` and the health probe.

        ``generation`` is the SMR mutation count the memoized R-tree was
        built at (None before the first spatial query); comparing it with
        ``current_generation`` tells whether the next bbox probe will
        rebuild.
        """
        memo = self._spatial_memo
        info: Dict[str, Any] = {
            "enabled": self.spatial_index,
            "generation": memo[0] if memo is not None else None,
            "current_generation": self.smr.mutation_count,
        }
        if memo is not None:
            info.update(memo[1].statistics())
        return info

    def _location_of(self, title: str) -> Optional[GeoPoint]:
        """Per-title GeoPoint, cached by SMR generation."""
        return self._cached_location(self.smr.mutation_count, title)

    def _cached_location(self, generation: int, title: str) -> Optional[GeoPoint]:
        """Look up (or parse) ``title``'s location at ``generation``.

        Only the first spatial query after a write pays the annotation
        walk. Same generation-before-data ordering as
        :meth:`_iri_title_map`; the dict update is lock-free (single
        bytecode-level store, and a lost race merely re-parses).
        """
        memo = self._location_memo
        if memo is None or memo[0] != generation:
            memo = (generation, {})
            self._location_memo = memo
        cache = memo[1]
        if title in cache:
            return cache[title]
        location = self._parse_location(title)
        cache[title] = location
        return location

    def _parse_location(self, title: str) -> Optional[GeoPoint]:
        annotations = dict(
            (prop.lower(), value) for prop, value in self.smr.annotations(title)
        )
        lat = annotations.get("latitude")
        lon = annotations.get("longitude")
        if isinstance(lat, (int, float)) and isinstance(lon, (int, float)):
            try:
                return GeoPoint(float(lat), float(lon))
            except Exception:
                return None
        return None

    # ------------------------------------------------------------------
    # Result construction and ranking
    # ------------------------------------------------------------------

    def _build_result(
        self,
        title: str,
        kind: str,
        relevance: Dict[str, float],
        filter_matches: List[Tuple[PropertyFilter, Set[str]]],
    ) -> SearchResult:
        if filter_matches:
            satisfied = sum(1 for _, titles in filter_matches if title in titles)
            match_degree = satisfied / len(filter_matches)
        else:
            match_degree = 1.0
        annotations = {
            prop.lower(): value for prop, value in self.smr.annotations(title)
        }
        return SearchResult(
            title=title,
            kind=kind,
            relevance=relevance.get(title, 0.0),
            pagerank=self.ranker.score(title),
            match_degree=match_degree,
            annotations=annotations,
            location=self._location_of(title),
        )

    def _use_topk(self, query: SearchQuery) -> bool:
        """Whether the lazy heap-based top-k path applies to this query.

        Only the score sorts qualify: a property sort needs every
        result's property value (and the missing-last partition)
        materialized, so it keeps the full build-then-sort path.
        """
        return (
            self.topk
            and query.limit is not None
            and query.sort in (SORT_PAGERANK, SORT_RELEVANCE)
        )

    def _select_topk(
        self,
        query: SearchQuery,
        allowed: List[Tuple[str, str]],
        relevance: Dict[str, float],
        filter_matches: List[Tuple[PropertyFilter, Set[str]]],
    ) -> List[SearchResult]:
        """Materialize only the page of results the query asked for.

        Scores come from scalars already in hand (the relevance dict, the
        ranker's score map, the match degree) using the exact float
        expressions of :meth:`_score_and_sort`, and ``heapq.nlargest`` /
        ``nsmallest`` picks ``offset + limit`` entries under the same
        ``(score, title)`` key the full sort uses. ``nlargest(k, data,
        key)`` is documented equivalent to ``sorted(data, key=key,
        reverse=True)[:k]`` and the key is unique per title, so the
        returned page is identical to the full-sort path's — only the
        survivors ever get a :class:`SearchResult` (annotation dict,
        GeoPoint) built.
        """
        if not allowed:
            return []
        pagerank = self.ranker.scores()
        n_filters = len(filter_matches)

        def degree(title: str) -> float:
            if not n_filters:
                return 1.0
            satisfied = sum(1 for _, titles in filter_matches if title in titles)
            return satisfied / n_filters

        scored: List[Tuple[float, str, str]] = []
        if query.sort == SORT_PAGERANK:
            for title, kind in allowed:
                scored.append((degree(title) * pagerank.get(title, 0.0), title, kind))
        else:  # SORT_RELEVANCE — same maxima and blend as _score_and_sort
            max_rel = max((relevance.get(t, 0.0) for t, _ in allowed), default=0.0) or 1.0
            max_pr = max((pagerank.get(t, 0.0) for t, _ in allowed), default=0.0) or 1.0
            for title, kind in allowed:
                blended = (
                    _RELEVANCE_WEIGHT * (relevance.get(title, 0.0) / max_rel)
                    + _PAGERANK_WEIGHT * (pagerank.get(title, 0.0) / max_pr)
                )
                scored.append((degree(title) * blended, title, kind))
        k = query.offset + query.limit
        select = heapq.nlargest if query.descending else heapq.nsmallest
        page = select(k, scored, key=lambda entry: (entry[0], entry[1]))
        results = []
        for score, title, kind in page[query.offset :]:
            result = self._build_result(title, kind, relevance, filter_matches)
            result.score = score
            results.append(result)
        return results

    def _score_and_sort(self, query: SearchQuery, results: List[SearchResult]) -> None:
        if not results:
            return
        if query.sort == SORT_PAGERANK:
            for result in results:
                result.score = result.match_degree * result.pagerank
        elif query.sort == SORT_RELEVANCE:
            max_rel = max((r.relevance for r in results), default=0.0) or 1.0
            max_pr = max((r.pagerank for r in results), default=0.0) or 1.0
            for result in results:
                blended = (
                    _RELEVANCE_WEIGHT * (result.relevance / max_rel)
                    + _PAGERANK_WEIGHT * (result.pagerank / max_pr)
                )
                result.score = result.match_degree * blended
        else:
            # Sort by a property value; missing values always sort last.
            prop = query.sort
            present = [r for r in results if r.get(prop) is not None]
            if not present:
                raise QueryError(f"cannot sort by {prop!r}: no result has that property")
            missing = [r for r in results if r.get(prop) is None]
            for result in results:
                result.score = _numeric_or_zero(result.get(prop))
            present.sort(
                key=lambda r: _typed_value_key(r.get(prop)), reverse=query.descending
            )
            results[:] = present + missing
            return
        results.sort(key=lambda r: (r.score, r.title), reverse=query.descending)


# ----------------------------------------------------------------------
# Provenance helpers
# ----------------------------------------------------------------------


def _privilege_label(user: User) -> str:
    """The compact privilege-set label used by events and provenance."""
    allowed = user.policy.allowed_kinds
    return "*" if allowed is None else ",".join(sorted(allowed))


# ----------------------------------------------------------------------
# Condition rendering
# ----------------------------------------------------------------------


def _sql_quote(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


def _sql_condition(column: str, flt: PropertyFilter) -> str:
    if flt.op == "~":
        pattern = str(flt.value).replace("'", "''")
        return f"{column} LIKE '%{pattern}%'"
    op = flt.op
    return f"{column} {op} {_sql_quote(flt.value)}"


def _sparql_condition(flt: PropertyFilter) -> str:
    if flt.op == "~":
        pattern = re.escape(str(flt.value)).replace('"', '\\"')
        return f'REGEX(STR(?v), "{pattern}", "i")'
    if isinstance(flt.value, bool):
        rendered = "true" if flt.value else "false"
    elif isinstance(flt.value, (int, float)):
        rendered = repr(flt.value)
    else:
        escaped = str(flt.value).replace("\\", "\\\\").replace('"', '\\"')
        rendered = f'"{escaped}"'
    return f"?v {flt.op} {rendered}"


def _numeric_or_zero(value: Any) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    return 0.0


def _typed_value_key(value: Any):
    # Rank by type so mixed-typed property values still sort totally.
    if isinstance(value, bool):
        return (0, float(value), "")
    if isinstance(value, (int, float)):
        return (0, float(value), "")
    return (1, 0.0, str(value))
