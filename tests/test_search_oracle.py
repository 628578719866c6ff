"""Property-based testing of the search engine against a brute-force oracle.

Random corpora + random property-filter queries are answered both by the
engine (SQL/SPARQL candidate sets, indexes) and by a naive oracle that
filters page annotations directly in Python. The candidate sets must
match exactly, in strict and relaxed mode; relaxed match degrees are
checked against per-filter recomputation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdvancedSearchEngine, PropertyFilter, SearchQuery
from repro.smr import SensorMetadataRepository

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
