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
    the user's privileges and stamped with the ranker's
    :attr:`~repro.core.ranking.PageRankRanker.generation`, so any page
    write or forced re-solve invalidates every cached result lazily —
    post-edit searches can never observe pre-edit results. Set
    ``cache=None`` to disable caching (e.g. for benchmarking the raw
    pipeline); cached :class:`~repro.core.results.SearchResults` are
    shared between callers and must be treated as immutable.
    """

    def __init__(
        self,
        smr: SensorMetadataRepository,
        ranker: Optional[PageRankRanker] = None,
        cache: Optional[GenerationalLruCache] = _DEFAULT_CACHE_SENTINEL,
        spatial_index: bool = True,
    ):
        self.smr = smr
        self.ranker = ranker or PageRankRanker(smr)
        self.autocomplete = AutocompleteService(smr, self.ranker)
        self.recommender = Recommender(smr, self.ranker)
        if cache is _DEFAULT_CACHE_SENTINEL:
            cache = GenerationalLruCache(capacity=256, name="query_results")
        self.cache = cache
        #: When True (default), bounding-box constraints probe the SMR's
        #: R-tree (kept current by every write, like the SMR's kind,
        #: IRI and location lookups); ``False`` scans every located page.
        self.spatial_index = spatial_index
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
        return self._run(query, user, probe_cache=True)[0]

    def search_explained(
        self, query: SearchQuery, user: User = ANONYMOUS
    ) -> Tuple[SearchResults, obs.QueryProvenance]:
        """Run ``query`` bypassing the result cache; return its record too.

        The cache bypass is deliberate: a cached hit would yield an empty
        waterfall, and the point of ``explain=full`` / ``/explore`` is to
        watch the real pipeline run. Otherwise this is :meth:`search`:
        the record is published to the same views.
        """
        return self._run(query, user, probe_cache=False)

    def _run(
        self, query: SearchQuery, user: User, probe_cache: bool
    ) -> Tuple[SearchResults, obs.QueryProvenance]:
        """The one search path: cache probe or pipeline, then one record.

        Cache hits are still served queries, so they get a record, a
        span (tagged with the ``cache`` verdict) and a latency
        observation like any other — percentiles reflect what callers see.
        """
        description = query.describe()
        prov = obs.QueryProvenance(description, privileges=_privilege_label(user))
        generation = self.ranker.generation
        key = None
        if not probe_cache:
            prov.cache = "bypass"
        elif self.cache is not None:
            key = result_cache_key(query, user)
        start = time.perf_counter()
        try:
            with obs.get_tracer().span("engine.search", query=description) as span:
                cached = None
                if key is not None:
                    cached, prov.cache = self.cache.lookup(key, generation)
                    span.set_attribute("cache", prov.cache)
                results = cached if cached is not None else self._search(query, user, prov)
        except Exception:
            obs.get_registry().counter(
                "engine_query_errors_total", "Searches that raised an error."
            ).inc()
            obs.get_event_log().error("engine.search_error", query=description)
            raise
        prov.seconds = time.perf_counter() - start
        prov.trace_id = obs.current_trace_id()
        prov.generation = list(generation)
        prov.result_count = results.total_candidates
        if key is not None and cached is None:
            self.cache.put(key, generation, results)
        self._publish(prov)
        return results, prov

    def _publish(self, prov: obs.QueryProvenance) -> None:
        """Hand one finished record to every per-query view, once.

        The ring goes first: it stamps the record as it admits it, and
        nothing writes to the record after that.
        """
        obs.get_provenance_recorder().record(prov)
        obs.get_slow_query_log().record(prov)
        registry = obs.get_registry()
        registry.counter("engine_queries_total", "Advanced searches executed.").inc()
        registry.histogram(
            "engine_query_seconds", "Advanced-search latency in seconds."
        ).observe(prov.seconds)
        registry.histogram(
            "engine_result_count",
            "Distribution of per-query candidate counts.",
            buckets=obs.DEFAULT_COUNT_BUCKETS,
        ).observe(prov.result_count)
        if prov.result_count == 0:
            registry.counter(
                "engine_zero_result_queries_total", "Searches that matched nothing."
            ).inc()
        fields = {
            "query": prov.query,
            "seconds": prov.seconds,
            "cache": prov.cache,
            "results": prov.result_count,
            "privileges": prov.privileges,
        }
        event_log = obs.get_event_log()
        event_log.info("engine.search", **fields)
        if prov.seconds >= obs.SEARCH_SLO_SECONDS:
            event_log.warning(
                "engine.slow_query", threshold=obs.SEARCH_SLO_SECONDS, **fields
            )
            registry.counter(
                "engine_slow_queries_total",
                "Searches at or above the slow-query threshold.",
            ).inc()
        self.query_log.record(prov.query, prov.result_count)

    def _evaluate_constraints(
        self, query: SearchQuery
    ) -> Tuple[List[Any], List[float]]:
        """Evaluate the query's independent constraints, in declaration order.

        The keyword search, each SQL/SPARQL property filter, then the
        bbox probe run one after another on the calling thread; each
        facade call takes the SMR's read lock, so a concurrent writer
        never tears a read. Returns each constraint's output and wall
        seconds.
        """
        jobs: List[Callable[[], Any]] = []
        if query.keyword:
            jobs.append(partial(self.smr.keyword_search, query.keyword))
        jobs.extend(partial(self._titles_matching_filter, flt) for flt in query.filters)
        if query.bbox is not None:
            jobs.append(partial(self._titles_in_bbox, query.bbox))
        outputs: List[Any] = []
        seconds: List[float] = []
        for job in jobs:
            start = time.perf_counter()
            outputs.append(job())
            seconds.append(time.perf_counter() - start)
        return outputs, seconds

    def _search(
        self, query: SearchQuery, user: User, prov: obs.QueryProvenance
    ) -> SearchResults:
        """Execute the Fig. 1 pipeline for one parsed query, filling ``prov``.

        Each constraint's wall time, match count and selectivity, the
        intersection waterfall, the privilege filter and the ranking path
        land in the record as the pipeline runs. The waterfall intersects
        in declaration order, so its final set is the intersection of
        every constraint set.
        """
        if query.kind is not None:
            user.check_kind(query.kind)
        relevance: Dict[str, float] = {}
        constraint_sets: List[Set[str]] = []
        set_names: List[str] = []
        outputs, job_seconds = self._evaluate_constraints(query)
        corpus = self.smr.page_count  # O(1); titles() would sort every title

        cursor = 0
        if query.keyword:
            hits = outputs[cursor]
            relevance = {hit.doc_id: hit.score for hit in hits}
            constraint_sets.append(set(relevance))
            name = f"keyword={query.keyword!r}"
            prov.add_stage(
                name, "InvertedIndexScan", job_seconds[cursor], len(hits), corpus
            )
            set_names.append(name)
            cursor += 1

        if query.kind is not None:
            kind_start = time.perf_counter()
            kind_titles = self.smr.titles_of_kind(query.kind)
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

        filter_matches = list(
            zip(query.filters, outputs[cursor : cursor + len(query.filters)])
        )
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
                set_names.append(
                    "any-of(" + ", ".join(f.describe() for f, _ in filter_matches) + ")"
                )
            else:
                for flt, titles in filter_matches:
                    constraint_sets.append(titles)
                    set_names.append(flt.describe())

        if query.bbox is not None:
            constraint_sets.append(outputs[cursor])
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
            # Intersect sequentially in declaration order so each step's
            # before/after counts land in the waterfall.
            candidates = set(constraint_sets[0])
            prov.add_waterfall_step(set_names[0], None, len(candidates))
            for name, cset in zip(set_names[1:], constraint_sets[1:]):
                before = len(candidates)
                candidates &= cset
                prov.add_waterfall_step(name, before, len(candidates))
        else:
            candidates = set(self.smr.titles())
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
        prov.set_privilege_filter(len(candidates), total)

        # A limited score sort materializes only its page (heap top-k); a
        # property sort needs every result's value and the missing-last
        # partition, and an unlimited query returns every result, so both
        # build everything and sort.
        if query.limit is not None and query.sort in (SORT_PAGERANK, SORT_RELEVANCE):
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
        prov.set_ranking(query.sort, ranking_path, len(results))
        return SearchResults(results, total, prov.query)

    def _filter_strategy(self, flt: PropertyFilter) -> str:
        """The access path a property filter resolves to (for provenance)."""
        for kind in self.smr.mapping.kinds:
            if self.smr.mapping.column_for_property(kind, flt.prop) is not None:
                return "SqlFilter"
        return "SparqlFilter"

    def cache_info(self) -> Dict[str, Any]:
        """Result-cache statistics for ``/api/stats`` and diagnostics."""
        if self.cache is None:
            return {"enabled": False}
        stats = self.cache.stats
        return {
            "enabled": True,
            "entries": len(self.cache),
            "capacity": self.cache.capacity,
            "generation": list(self.ranker.generation),
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
        probe the SMR's R-tree or fall back to the linear scan. Backs
        ``/debug/plan`` and ``explain=1`` on ``/api/search``.
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
                entry["detail"] = "R-tree over located pages, kept current by every write"
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
        return self.smr.titles_of_iris(
            getattr(term, "value", None) for term in result.column("s")
        )

    def _titles_in_bbox(self, bbox) -> Set[str]:
        """Titles of pages located inside ``bbox``.

        The R-tree probe and the fallback scan read the SMR's location
        lookups, which every write keeps current, so neither parses a
        location. ``BoundingBox.contains`` is a plain inclusive axis
        test (no antimeridian wrap), exactly the R-tree's box semantics,
        so the probe result needs no per-title re-verification.
        """
        if self.spatial_index:
            return self.smr.titles_in_box(bbox.south, bbox.north, bbox.west, bbox.east)
        return {
            title
            for title, location in self.smr.locations().items()
            if bbox.contains(location)
        }

    def spatial_index_info(self) -> Dict[str, Any]:
        """Spatial-index state for ``/api/stats`` and the health probe.

        Every ``register()`` updates the SMR's R-tree, so ``generation``
        always equals ``current_generation``. ``entries`` counts the
        located pages; ``depth``, ``nodes``, ``leaves`` and
        ``fill_factor`` follow the order the pages were inserted in.
        """
        generation, statistics = self.smr.spatial_index_statistics()
        info: Dict[str, Any] = {
            "enabled": self.spatial_index,
            "generation": generation,
            "current_generation": generation,
        }
        info.update(statistics)
        return info

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
        pairs, location = self.smr.annotations_and_location(title)
        annotations = {prop.lower(): value for prop, value in pairs}
        return SearchResult(
            title=title,
            kind=kind,
            relevance=relevance.get(title, 0.0),
            pagerank=self.ranker.score(title),
            match_degree=match_degree,
            annotations=annotations,
            location=location,
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
        returned page is identical to the same query's unlimited results
        sliced to the page — only the survivors ever get a
        :class:`SearchResult` (annotation dict, GeoPoint) built.
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
