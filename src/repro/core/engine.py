"""The advanced search engine: Query Interface + Query Management.

The pipeline mirrors Fig. 1. One method turns a
:class:`~repro.core.query.SearchQuery` into its list of constraints, in
waterfall order, each with its provenance name, its access strategy and
how to evaluate it:

- the keyword runs against the inverted index (basic search);
- the kind reads the repository's title set of that kind;
- each property filter runs against the *relational* store when the
  property is mapped to a column (SQL), and against the *RDF graph*
  otherwise (SPARQL) — the paper's "combination of SQL and SPARQL";
- a bounding box probes the repository's R-tree.

A search evaluates that list once; ``explain_search`` describes the same
list without running it, so the two always name the same constraints.
Strict mode intersects all constraint sets; relaxed mode unions the
property filters and reports a per-result **match degree** (the fraction
of predicates satisfied) — the quantity the map visualization colors by.
One scorer ranks the survivors, limited query or not, by the double-link
PageRank metric or by its blend with keyword relevance. It scores every
survivor at once, as float64 arrays with the scalar expressions' exact
results, and a limited query partitions the scores before a heap orders
the page, so the Python work per candidate is one list entry. Only the
returned page becomes result objects, read from the repository in one
locked call.
"""

from __future__ import annotations

import heapq
import re
import sys
import time
from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

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

# What explain_search says about each access path that has no SQL plan.
_STRATEGY_DETAILS = {
    "InvertedIndexScan": "BM25-ranked lookup in the text index",
    "KindTitleLookup": "direct per-kind title listing",
    "SparqlFilter": "triple-pattern match + FILTER over the RDF graph",
    "RTreeProbe": "R-tree over located pages, kept current by every write",
}


class _Constraint(NamedTuple):
    """One constraint of a query, as search and explain both read it."""

    #: The name provenance and the explain payload show.
    name: str
    #: The access path: InvertedIndexScan, KindTitleLookup, SqlFilter,
    #: SparqlFilter or RTreeProbe.
    strategy: str
    #: Evaluates the constraint: the keyword's title -> BM25 score map,
    #: whose keys are its match set, or a set of titles.
    evaluate: Callable[[], Any]
    #: The property filter behind a SqlFilter or SparqlFilter.
    flt: Optional[PropertyFilter] = None
    #: The kinds whose tables a SqlFilter queries.
    kinds: Sequence[str] = ()


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
    ):
        self.smr = smr
        self.ranker = ranker or PageRankRanker(smr)
        self.autocomplete = AutocompleteService(smr, self.ranker)
        self.recommender = Recommender(smr, self.ranker)
        if cache is _DEFAULT_CACHE_SENTINEL:
            cache = GenerationalLruCache(capacity=256, name="query_results")
        self.cache = cache

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
        the record goes to the same ring.
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
        """Append one finished record to the ring and observe its two histograms.

        The ring stamps the record as it admits it, and nothing writes to
        the record after that; every other per-query view reads the ring.
        Only a search at or above the SLO threshold also writes a line (a
        warning) and a counter.
        """
        obs.get_provenance_recorder().record(prov)
        registry = obs.get_registry()
        registry.histogram(
            "engine_query_seconds", "Advanced-search latency in seconds."
        ).observe(prov.seconds)
        registry.histogram(
            "engine_result_count",
            "Distribution of per-query candidate counts.",
            buckets=obs.DEFAULT_COUNT_BUCKETS,
        ).observe(prov.result_count)
        if prov.seconds >= obs.SEARCH_SLO_SECONDS:
            obs.get_event_log().warning(
                "engine.slow_query",
                threshold=obs.SEARCH_SLO_SECONDS,
                query=prov.query,
                seconds=prov.seconds,
                cache=prov.cache,
                results=prov.result_count,
                privileges=prov.privileges,
            )
            registry.counter(
                "engine_slow_queries_total",
                "Searches at or above the slow-query threshold.",
            ).inc()

    def _constraints(self, query: SearchQuery) -> List[_Constraint]:
        """The query's constraints in waterfall order: keyword, kind, each filter, bbox.

        :meth:`_search` evaluates this list and :meth:`explain_search`
        describes it. A filter whose property some kind maps to a column
        runs as SQL over those kinds' tables, any other as SPARQL.
        """
        smr = self.smr
        constraints: List[_Constraint] = []
        if query.keyword:
            name = f"keyword={query.keyword!r}"
            search = partial(smr.keyword_search, query.keyword)
            constraints.append(_Constraint(name, "InvertedIndexScan", search))
        if query.kind is not None:
            lookup = partial(smr.titles_of_kind, query.kind)
            constraints.append(_Constraint(f"kind={query.kind}", "KindTitleLookup", lookup))
        for flt in query.filters:
            kinds = smr.mapping.mapped_kinds(flt.prop)
            if kinds:
                evaluate = partial(self._sql_filter, flt, kinds)
                constraints.append(_Constraint(flt.describe(), "SqlFilter", evaluate, flt, kinds))
            else:
                evaluate = partial(self._sparql_filter, flt)
                constraints.append(_Constraint(flt.describe(), "SparqlFilter", evaluate, flt))
        if query.bbox is not None:
            # The probe's box test is BoundingBox.contains' inclusive axis
            # test, so no hit needs re-checking.
            box = query.bbox
            name = f"bbox(lat in [{box.south}, {box.north}], lon in [{box.west}, {box.east}])"
            probe = partial(smr.titles_in_box, box.south, box.north, box.west, box.east)
            constraints.append(_Constraint(name, "RTreeProbe", probe))
        return constraints

    def _search(
        self, query: SearchQuery, user: User, prov: obs.QueryProvenance
    ) -> SearchResults:
        """Execute the Fig. 1 pipeline for one parsed query, filling ``prov``.

        Each constraint of :meth:`_constraints` is evaluated once, in
        order, on the calling thread; each facade call takes the SMR's
        read lock, so a concurrent writer never tears a read. Its wall
        time, match count and selectivity land in the record. The
        waterfall then intersects the constraint sets in the same order
        (relaxed mode unions the filters' sets into one step, after
        keyword and kind), so its final set is the intersection of every
        step; :class:`SearchQuery` refuses a query without a constraint.
        The privilege filter and the ranking path follow.
        """
        if query.kind is not None:
            user.check_kind(query.kind)
        corpus = self.smr.page_count  # O(1); titles() would sort every title
        relevance: Dict[str, float] = {}
        filter_matches: List[Tuple[PropertyFilter, Set[str]]] = []
        # The keyword, when there is one, is the first step: its score map
        # seeds the candidate set and is never intersected into it.
        steps: List[Tuple[str, Collection[str]]] = []
        union_at = 0
        for constraint in self._constraints(query):
            start = time.perf_counter()
            matches = constraint.evaluate()
            seconds = time.perf_counter() - start
            prov.add_stage(constraint.name, constraint.strategy, seconds, len(matches), corpus)
            if constraint.strategy == "InvertedIndexScan":
                relevance = matches
            if constraint.flt is not None:
                filter_matches.append((constraint.flt, matches))
                if query.relaxed:
                    union_at = len(steps)
                    continue
            steps.append((constraint.name, matches))
        if query.relaxed and filter_matches:
            union: Set[str] = set()
            for _, titles in filter_matches:
                union |= titles
            name = "any-of(" + ", ".join(f.describe() for f, _ in filter_matches) + ")"
            steps.insert(union_at, (name, union))

        # Intersect sequentially so each step's before/after counts land
        # in the waterfall.
        (first_name, first), *rest = steps
        candidates = set(first)
        prov.add_waterfall_step(first_name, None, len(candidates))
        for name, matches in rest:
            before = len(candidates)
            candidates &= matches
            prov.add_waterfall_step(name, before, len(candidates))

        # The privilege filter keeps the candidates' set order; every sort
        # breaks its ties on the title. An allow-all policy keeps every
        # candidate; a whitelist keeps those in its kinds' title sets.
        readable = user.policy.allowed_kinds
        if readable is None:
            titles = list(candidates)
        else:
            titles = self.smr.titles_of_kinds(readable, among=candidates)
        prov.set_privilege_filter(len(candidates), len(titles))
        results = self._rank(query, titles, relevance, [matches for _, matches in filter_matches])
        if query.sort in (SORT_PAGERANK, SORT_RELEVANCE) and query.limit is not None:
            ranking_path = "heap-topk"
        else:
            ranking_path = "full-sort"
        prov.set_ranking(query.sort, ranking_path, len(results))
        return SearchResults(results, len(titles), prov.query)

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

        Reads the same constraint list a search evaluates, and executes
        nothing except relational ``EXPLAIN``: a SQL filter shows the
        cost-based plan the planner would choose for each kind that maps
        its property, and a bbox carries the R-tree's statistics. Backs
        ``/debug/plan`` and ``explain=1`` on ``/api/search``.
        """
        constraints: List[Dict[str, Any]] = []
        for constraint in self._constraints(query):
            entry: Dict[str, Any] = {"constraint": constraint.name, "strategy": constraint.strategy}
            if constraint.strategy == "SqlFilter":
                entry["tables"] = [
                    self._explain_sql(constraint.flt, kind) for kind in constraint.kinds
                ]
            else:
                entry["detail"] = _STRATEGY_DETAILS[constraint.strategy]
            if constraint.strategy == "RTreeProbe":
                entry["index"] = self.spatial_index_info()
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

    def _explain_sql(self, flt: PropertyFilter, kind: str) -> Dict[str, Any]:
        """The statement one SQL filter runs on ``kind``'s table, and its plan."""
        sql = self._filter_sql(flt, kind)
        entry: Dict[str, Any] = {"kind": kind, "sql": sql}
        try:
            entry["plan"] = [row[0] for row in self.smr.sql(f"EXPLAIN {sql}")]
        except RelationalError as exc:
            entry["error"] = str(exc)
        return entry

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

    def _filter_sql(self, flt: PropertyFilter, kind: str) -> str:
        """The statement selecting the titles of ``kind`` that satisfy ``flt``."""
        column = self.smr.mapping.column_for_property(kind, flt.prop)
        return f"SELECT title FROM {kind} WHERE {_sql_condition(column, flt)}"

    def _sql_filter(self, flt: PropertyFilter, kinds: List[str]) -> Set[str]:
        matches: Set[str] = set()
        errors = []
        for kind in kinds:
            sql = self._filter_sql(flt, kind)
            try:
                result = self.smr.sql(sql)
            except RelationalError as exc:
                errors.append(f"{kind}: {exc}")
                continue
            matches.update(map(itemgetter(0), result.rows))
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

    def spatial_index_info(self) -> Dict[str, Any]:
        """Spatial-index state for ``/api/stats`` and the health probe.

        Every ``register()`` updates the SMR's R-tree, so ``generation``
        always equals ``current_generation``. ``entries`` counts the
        located pages; ``depth``, ``nodes``, ``leaves`` and
        ``fill_factor`` follow the order the pages were inserted in.
        """
        generation, statistics = self.smr.spatial_index_statistics()
        info: Dict[str, Any] = {
            "generation": generation,
            "current_generation": generation,
        }
        info.update(statistics)
        return info

    # ------------------------------------------------------------------
    # Result construction and ranking
    # ------------------------------------------------------------------

    def _rank(
        self,
        query: SearchQuery,
        titles: List[str],
        relevance: Dict[str, float],
        filter_sets: List[Set[str]],
    ) -> List[SearchResult]:
        """Rank the readable candidates ``titles``; build only the returned page.

        PageRank (from one read of the ranker's score map), relevance and
        match degree are float64 arrays over ``titles``. The match degree
        is 1.0 unless the query is relaxed, where it is the sum of the
        filters' membership masks divided by the filter count. A PageRank
        sort scores ``degree * pr``; a relevance sort ``degree * (w_rel *
        (rel / max_rel) + w_pr * (pr / max_pr))``, each maximum taken over
        the candidates (``or 1.0``). Evaluated element-wise in that order,
        each score is the IEEE double the scalar expression gives.
        :func:`_select` picks a score sort's page; a property sort builds
        every candidate in title order (Python ``str`` order, as score
        sorts break ties) and sorts it stably by value, so ties do not
        follow the set's hash order. Only the returned results are read
        from the repository, in one read-locked call.
        """
        n = len(titles)
        if not n:
            return []
        pagerank = self.ranker.scores()
        pr = _column(pagerank, titles)
        degree = np.ones(n)
        if query.relaxed and filter_sets:
            satisfied = np.zeros(n)
            for matches in filter_sets:
                satisfied += np.fromiter(map(matches.__contains__, titles), bool, n)
            degree = satisfied / len(filter_sets)
        if query.sort == SORT_PAGERANK:
            page = _select(query, degree * pr, titles)
        elif query.sort == SORT_RELEVANCE:
            rel = _column(relevance, titles)
            max_rel = float(rel.max()) or 1.0
            max_pr = float(pr.max()) or 1.0
            blend = _RELEVANCE_WEIGHT * (rel / max_rel) + _PAGERANK_WEIGHT * (pr / max_pr)
            page = _select(query, degree * blend, titles)
        else:
            order = sorted(range(n), key=titles.__getitem__)
            entries = ((0.0, titles[i], i) for i in order)
            results = self._results(entries, pagerank, relevance, degree)
            self._score_and_sort(query, results)
            end = None if query.limit is None else query.offset + query.limit
            return results[query.offset : end]
        return self._results(page, pagerank, relevance, degree)

    def _results(
        self,
        entries: Iterable[Tuple[float, str, int]],
        pagerank: Dict[str, float],
        relevance: Dict[str, float],
        degree: np.ndarray,
    ) -> List[SearchResult]:
        """A :class:`SearchResult` per ``(score, title, index)`` entry.

        The kinds, annotations and locations come from one read-locked
        repository call, so each result is one revision of its page.
        """
        entries = list(entries)
        details = self.smr.page_details([title for _, title, _ in entries])
        return [
            SearchResult(
                title=title,
                kind=kind,
                score=score,
                relevance=relevance.get(title, 0.0),
                pagerank=pagerank.get(title, 0.0),
                match_degree=float(degree[index]),
                annotations={prop.lower(): value for prop, value in pairs},
                location=location,
            )
            for (score, title, index), (kind, pairs, location) in zip(entries, details)
        ]

    def _score_and_sort(self, query: SearchQuery, results: List[SearchResult]) -> None:
        """Sort ``results`` by the property ``query.sort``; missing values last.

        A result's score is the property's value when it is a number,
        else 0.0.
        """
        if not results:
            return
        prop = query.sort
        present = [r for r in results if r.get(prop) is not None]
        if not present:
            raise QueryError(f"cannot sort by {prop!r}: no result has that property")
        missing = [r for r in results if r.get(prop) is None]
        for result in results:
            result.score = _numeric_or_zero(result.get(prop))
        present.sort(key=lambda r: _typed_value_key(r.get(prop)), reverse=query.descending)
        results[:] = present + missing


# ----------------------------------------------------------------------
# Scoring helpers
# ----------------------------------------------------------------------


def _column(values: Dict[str, float], titles: List[str]) -> np.ndarray:
    """``values[title]`` (0.0 when absent) for each title, as a float64 array."""
    return np.fromiter(map(values.get, titles, repeat(0.0)), float, len(titles))


def _select(
    query: SearchQuery, score: np.ndarray, titles: List[str]
) -> List[Tuple[float, str, int]]:
    """A score sort's returned page as ``(score, title, index)`` entries.

    Entries order on ``(score, title)``, which is unique per title, under
    Python's ``str`` order (numpy's string dtype would drop trailing
    NULs). An unlimited query sorts every entry. A limited one finds the
    ``offset + limit``-th score with ``np.partition`` and keeps every
    candidate at or beyond it, ties included, so the page's entries are
    all kept; ``heapq.nlargest`` (``nsmallest`` ascending) orders only
    those, and the page is the unlimited list sliced.
    """
    n = len(titles)
    if query.limit is None:
        ranked = sorted(zip(score.tolist(), titles, range(n)), reverse=query.descending)
        return ranked[query.offset :]
    k = query.offset + query.limit
    kept = np.arange(n)
    if k < n:
        kth = n - k if query.descending else k - 1
        threshold = np.partition(score, kth)[kth]
        kept = np.flatnonzero(score >= threshold if query.descending else score <= threshold)
    index = kept.tolist()
    entries = zip(score[kept].tolist(), [titles[i] for i in index], index)
    select = heapq.nlargest if query.descending else heapq.nsmallest
    return select(k, entries)[query.offset :]


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
    """A property sort's score: a number as a float, clamped to
    ``±sys.float_info.max`` when it is too large for one; else 0.0."""
    if not isinstance(value, (int, float)):
        return 0.0
    try:
        return float(value)
    except OverflowError:
        return sys.float_info.max if value > 0 else -sys.float_info.max


def _typed_value_key(value: Any):
    # Rank by type so mixed-typed property values still sort totally.
    # Numbers (bools among them) compare exactly, ints beyond a float's
    # range included.
    if isinstance(value, (int, float)):
        return (0, value, "")
    return (1, 0.0, str(value))
