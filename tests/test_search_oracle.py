"""Property-based testing of the search engine against a brute-force oracle.

Random corpora + random property-filter queries are answered both by the
engine (SQL/SPARQL candidate sets, indexes) and by a naive oracle that
filters page annotations directly in Python. The candidate sets must
match exactly, in strict and relaxed mode; relaxed match degrees are
checked against per-filter recomputation. PageRank and relevance sorts
are checked against the scores' definitions, float for float, and a
property sort against its value order; each runs as the anonymous user
or under a random kind whitelist, and each limited page is checked
against the unlimited list sliced, kinds, annotations and locations
included.
"""

from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import AdvancedSearchEngine, PropertyFilter, SearchQuery
from repro.core.engine import _PAGERANK_WEIGHT, _RELEVANCE_WEIGHT
from repro.core.privileges import ANONYMOUS, AccessPolicy, User
from repro.errors import AccessDeniedError, QueryError
from repro.smr import SensorMetadataRepository
from repro.smr.model import KIND_ORDER

STATUSES = ["online", "offline", "maintenance"]
TYPES = ["wind", "snow", "rain"]


def build_smr(records):
    smr = SensorMetadataRepository()
    for i, (elevation, status, sensor_type) in enumerate(records):
        annotations = [("name", f"S{i}")]
        if elevation is not None:
            annotations.append(("elevation_m", elevation))
        if status is not None:
            annotations.append(("status", status))
        smr.register("station", f"Station:S{i:03d}", annotations)
        smr.register(
            "sensor",
            f"Sensor:S{i:03d}-x",
            [("name", f"sensor {i}"), ("station", f"Station:S{i:03d}"), ("sensor_type", sensor_type)],
        )
    return smr


def oracle_matches(smr, flt: PropertyFilter):
    """Titles satisfying one filter, by direct annotation comparison."""
    matches = set()
    for title in smr.titles():
        for prop, value in smr.annotations(title):
            if prop.lower() != flt.prop.lower():
                continue
            try:
                if flt.op == "=" and value == flt.value:
                    matches.add(title)
                elif flt.op == "!=" and value != flt.value:
                    matches.add(title)
                elif flt.op == "<" and value < flt.value:
                    matches.add(title)
                elif flt.op == "<=" and value <= flt.value:
                    matches.add(title)
                elif flt.op == ">" and value > flt.value:
                    matches.add(title)
                elif flt.op == ">=" and value >= flt.value:
                    matches.add(title)
                elif flt.op == "~" and str(flt.value).lower() in str(value).lower():
                    matches.add(title)
            except TypeError:
                continue
    return matches


records_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(500, 4000)),
        st.one_of(st.none(), st.sampled_from(STATUSES)),
        st.sampled_from(TYPES),
    ),
    min_size=1,
    max_size=12,
)

filter_strategy = st.one_of(
    st.tuples(
        st.just("elevation_m"),
        st.sampled_from(["=", "<", "<=", ">", ">=", "!="]),
        st.integers(500, 4000),
    ),
    st.tuples(st.just("status"), st.sampled_from(["=", "!="]), st.sampled_from(STATUSES)),
    st.tuples(st.just("sensor_type"), st.just("="), st.sampled_from(TYPES)),
    st.tuples(st.just("status"), st.just("~"), st.sampled_from(["on", "off", "main"])),
)


class TestSearchOracle:
    @given(records_strategy, st.lists(filter_strategy, min_size=1, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_strict_search_matches_oracle(self, records, raw_filters):
        smr = build_smr(records)
        engine = AdvancedSearchEngine(smr)
        filters = tuple(PropertyFilter(p, op, v) for p, op, v in raw_filters)
        query = SearchQuery(filters=filters, limit=None, sort="pagerank")
        results = engine.search(query)
        expected = set.intersection(*(oracle_matches(smr, f) for f in filters))
        assert set(results.titles) == expected

    @given(records_strategy, st.lists(filter_strategy, min_size=2, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_relaxed_search_matches_oracle(self, records, raw_filters):
        smr = build_smr(records)
        engine = AdvancedSearchEngine(smr)
        filters = tuple(PropertyFilter(p, op, v) for p, op, v in raw_filters)
        query = SearchQuery(filters=filters, limit=None, relaxed=True, sort="pagerank")
        results = engine.search(query)
        per_filter = [oracle_matches(smr, f) for f in filters]
        expected = set.union(*per_filter)
        assert set(results.titles) == expected
        for result in results:
            satisfied = sum(1 for matches in per_filter if result.title in matches)
            assert result.match_degree == pytest.approx(satisfied / len(filters))


#: Keywords for the scorer oracle: up to two words (none: no keyword
#: constraint) that the corpora's titles and annotation values carry.
#: "station" is in every station's title, "s001" in both Station:S001's
#: and Sensor:S001-x's.
keyword_strategy = st.lists(
    st.sampled_from(["station", "sensor", "s000", "s001", "s002", "wind", "online", "offline"]),
    max_size=2,
).map(" ".join)


#: The searching user's readable kinds: None for the anonymous user,
#: who reads every kind, else a non-empty whitelist.
readable_strategy = st.one_of(
    st.none(), st.frozensets(st.sampled_from(KIND_ORDER), min_size=1)
)

#: Six stations with one sensor each: every station has the same links,
#: so the same PageRank, float for float.
_TIED = [(1000, "online", "wind")] * 6


def _user(readable):
    if readable is None:
        return ANONYMOUS
    return User("restricted", AccessPolicy.restrict_to(readable))


def _kind(title):
    """The kind a :func:`build_smr` title names: its namespace, lower-cased."""
    return title.split(":", 1)[0].lower()


def _oracle_candidates(smr, filters, keyword, kind, relaxed, readable):
    """The readable titles the query must match, per-filter sets and BM25 scores."""
    per_filter = [oracle_matches(smr, f) for f in filters]
    if not filters:
        expected = set(smr.titles())
    elif relaxed:
        expected = set.union(*per_filter)
    else:
        expected = set.intersection(*per_filter)
    if kind is not None:
        expected = {t for t in expected if _kind(t) == kind}
    bm25 = {}
    if keyword:
        bm25 = smr.keyword_search(keyword)
        expected &= set(bm25)
    if readable is not None:
        expected = {t for t in expected if _kind(t) in readable}
    return expected, per_filter, bm25


def _fingerprint(results):
    return [
        (
            r.title,
            r.kind,
            r.score,
            r.relevance,
            r.pagerank,
            r.match_degree,
            r.annotations,
            r.location,
        )
        for r in results
    ]


def _check_results(smr, results, readable):
    """Every result's kind, annotations and location are its page's own."""
    for r in results:
        assert r.kind == smr.kind_of(r.title) == _kind(r.title)
        assert readable is None or r.kind in readable
        assert r.annotations == {prop.lower(): value for prop, value in smr.annotations(r.title)}
        assert r.location is None  # build_smr gives no page coordinates


class TestScorerOracle:
    """PageRank, relevance and property sorts against their definitions."""

    @given(
        records_strategy,
        st.lists(filter_strategy, max_size=2),
        keyword_strategy,
        st.sampled_from([None, "station", "sensor"]),
        st.sampled_from(["pagerank", "relevance"]),
        st.booleans(),
        st.booleans(),
        st.integers(1, 8),
        st.integers(0, 10),
        readable_strategy,
    )
    @settings(max_examples=80, deadline=None)
    @example(_TIED, [], "", "station", "pagerank", True, False, 2, 2, None)
    @example(_TIED, [], "", "station", "pagerank", False, False, 2, 2, frozenset({"station"}))
    def test_scores_follow_their_definition(
        self,
        records,
        raw_filters,
        keyword,
        kind,
        sort,
        descending,
        relaxed,
        limit,
        offset,
        readable,
    ):
        assume(raw_filters or keyword or kind)
        smr = build_smr(records)
        engine = AdvancedSearchEngine(smr, cache=None)
        user = _user(readable)
        filters = tuple(PropertyFilter(p, op, v) for p, op, v in raw_filters)
        query = SearchQuery(
            keyword=keyword,
            kind=kind,
            filters=filters,
            sort=sort,
            descending=descending,
            limit=None,
            relaxed=relaxed,
        )
        if kind is not None and readable is not None and kind not in readable:
            with pytest.raises(AccessDeniedError):
                engine.search(query, user)
            return
        unlimited = engine.search(query, user)
        results = unlimited.results

        expected, per_filter, bm25 = _oracle_candidates(
            smr, filters, keyword, kind, relaxed, readable
        )
        assert {r.title for r in results} == expected
        assert unlimited.total_candidates == len(expected)
        _check_results(smr, results, readable)

        max_rel = max((bm25.get(r.title, 0.0) for r in results), default=0.0) or 1.0
        max_pr = max((engine.ranker.score(r.title) for r in results), default=0.0) or 1.0
        for r in results:
            pagerank = engine.ranker.score(r.title)
            relevance = bm25.get(r.title, 0.0)
            satisfied = sum(1 for matches in per_filter if r.title in matches)
            degree = satisfied / len(filters) if filters else 1.0
            assert r.pagerank == pagerank
            assert r.relevance == relevance
            assert r.match_degree == degree
            if sort == "pagerank":
                assert r.score == degree * pagerank
            else:
                assert r.score == degree * (
                    _RELEVANCE_WEIGHT * (relevance / max_rel)
                    + _PAGERANK_WEIGHT * (pagerank / max_pr)
                )
        keys = [(r.score, r.title) for r in results]
        assert keys == sorted(keys, reverse=descending)

        page = engine.search(replace(query, limit=limit, offset=offset), user)
        assert page.total_candidates == unlimited.total_candidates
        assert _fingerprint(page) == _fingerprint(results[offset : offset + limit])

    @given(
        records_strategy,
        st.lists(filter_strategy, max_size=2),
        st.sampled_from([None, "station", "sensor"]),
        st.booleans(),
        st.booleans(),
        st.integers(1, 8),
        st.integers(0, 10),
        readable_strategy,
    )
    @settings(max_examples=60, deadline=None)
    def test_property_sort_page_is_the_list_sliced(
        self, records, raw_filters, kind, descending, relaxed, limit, offset, readable
    ):
        assume(raw_filters or kind)
        assume(kind is None or readable is None or kind in readable)
        smr = build_smr(records)
        engine = AdvancedSearchEngine(smr, cache=None)
        user = _user(readable)
        filters = tuple(PropertyFilter(p, op, v) for p, op, v in raw_filters)
        query = SearchQuery(
            kind=kind,
            filters=filters,
            sort="elevation_m",
            descending=descending,
            limit=None,
            relaxed=relaxed,
        )
        expected, _, _ = _oracle_candidates(smr, filters, "", kind, relaxed, readable)
        elevations = {t: dict(smr.annotations(t)).get("elevation_m") for t in expected}
        if expected and all(value is None for value in elevations.values()):
            with pytest.raises(QueryError, match="cannot sort by"):
                engine.search(query, user)
            return
        unlimited = engine.search(query, user)
        results = unlimited.results
        assert {r.title for r in results} == expected
        assert unlimited.total_candidates == len(expected)
        _check_results(smr, results, readable)

        present = [r for r in results if elevations[r.title] is not None]
        assert results[len(present) :] == [r for r in results if elevations[r.title] is None]
        values = [elevations[r.title] for r in present]
        assert values == sorted(values, reverse=descending)
        for r in results:
            assert r.score == float(elevations[r.title] or 0.0)

        page = engine.search(replace(query, limit=limit, offset=offset), user)
        assert page.total_candidates == unlimited.total_candidates
        assert _fingerprint(page) == _fingerprint(results[offset : offset + limit])


class TestQueryLog:
    def test_record_and_popular(self):
        from repro.core import QueryLog

        log = QueryLog()
        log.record("kind=station", 5)
        log.record("KIND=station  ", 5)  # normalizes to the same query
        log.record("keyword=wind", 0)
        assert log.popular(1) == [("kind=station", 2)]
        assert log.recent(2) == ["keyword=wind", "kind=station"]
        assert log.recent(1) == ["keyword=wind"]
        assert log.recent(0) == []
        assert log.zero_result_queries() == ["keyword=wind"]
        assert log.total_logged == 3
        for k in (0, -1):
            assert log.popular(k) == []
            assert log.zero_result_queries(k) == []
            assert log.recent(k) == []

    def test_window_eviction(self):
        from repro.core import QueryLog

        log = QueryLog(capacity=2)
        log.record("a", 1)
        log.record("b", 1)
        log.record("c", 1)  # evicts "a"
        assert dict(log.popular()) == {"b": 1, "c": 1}

    def test_empty_query_rejected(self):
        from repro.core import QueryLog
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            QueryLog().record("   ", 0)
        with pytest.raises(QueryError):
            QueryLog(capacity=0)

    def test_engine_logs_searches(self):
        from repro import build_demo_engine

        engine = build_demo_engine(seed=6, stations=6, sensors=12)
        engine.search(engine.parse("kind=station limit=0"))
        engine.search(engine.parse("kind=station limit=0"))
        popular = engine.query_log.popular(1)
        assert popular and popular[0][1] == 2
