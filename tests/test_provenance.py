"""Tests for query provenance and per-result score decomposition.

The acceptance bar: every ``explain=full`` score decomposition — top-k
in-link contributions + teleport + dangling + remainder — must sum back
to the reported PageRank score within 1e-9.
"""

import threading

import pytest

from repro.core import (
    AccessPolicy,
    AdvancedSearchEngine,
    PropertyFilter,
    SearchQuery,
    User,
    parse_query,
)
from repro.errors import ObservabilityError, QueryError
from repro.obs import ProvenanceRecorder, QueryProvenance, SlowQueryLog
from repro.obs import set_provenance_recorder, set_slow_query_log
from repro.smr import SensorMetadataRepository


@pytest.fixture(scope="module")
def smr():
    repo = SensorMetadataRepository()
    repo.register("institution", "Institution:EPFL", [("name", "EPFL"), ("country", "CH")])
    repo.register(
        "field_site",
        "Fieldsite:Wannengrat",
        [("name", "Wannengrat"), ("latitude", 46.8), ("longitude", 9.8), ("elevation_m", 2400)],
    )
    repo.register(
        "deployment",
        "Deployment:WAN SnowFlux",
        [
            ("name", "WAN SnowFlux"),
            ("field_site", "Fieldsite:Wannengrat"),
            ("institution", "Institution:EPFL"),
            ("status", "active"),
        ],
        links=["Institution:EPFL"],
    )
    for i, (elev, status) in enumerate([(2450, "online"), (2600, "online"), (1800, "offline")]):
        repo.register(
            "station",
            f"Station:WAN-{i + 1:03d}",
            [
                ("name", f"WAN-{i + 1:03d}"),
                ("deployment", "Deployment:WAN SnowFlux"),
                ("latitude", 46.80 + i * 0.01),
                ("longitude", 9.80 + i * 0.01),
                ("elevation_m", elev),
                ("status", status),
            ],
        )
    repo.register(
        "sensor",
        "Sensor:WAN-001-wind",
        [
            ("name", "wind speed sensor"),
            ("station", "Station:WAN-001"),
            ("sensor_type", "wind speed"),
        ],
    )
    repo.register(
        "sensor",
        "Sensor:WAN-002-snow",
        [
            ("name", "snow height sensor"),
            ("station", "Station:WAN-002"),
            ("sensor_type", "snow height"),
        ],
    )
    return repo


@pytest.fixture(scope="module")
def engine(smr):
    return AdvancedSearchEngine(smr)


@pytest.fixture
def fresh_obs():
    """Swap in a fresh provenance recorder + slow log for one test."""
    recorder = ProvenanceRecorder()
    slowlog = SlowQueryLog()
    previous = (set_provenance_recorder(recorder), set_slow_query_log(slowlog))
    yield recorder, slowlog
    set_provenance_recorder(previous[0])
    set_slow_query_log(previous[1])


class TestScoreDecomposition:
    def test_parts_sum_to_score_within_1e9_for_every_page(self, engine, smr):
        """The acceptance criterion: exact reconstruction of Eq. 2."""
        for title in smr.titles():
            explanation = engine.ranker.explain(title)
            parts = (
                explanation["teleport"]
                + explanation["dangling"]
                + sum(c["value"] for c in explanation["contributions"])
                + explanation["remainder"]
            )
            assert abs(parts - explanation["score"]) < 1e-9, title
            assert explanation["score"] == engine.ranker.score(title)  # the solve's own vector

    def test_contributions_are_descending_and_bounded_by_top_k(self, engine):
        explanation = engine.ranker.explain("Station:WAN-001", top_k=2)
        values = [c["value"] for c in explanation["contributions"]]
        assert len(values) <= 2
        assert values == sorted(values, reverse=True)
        assert all(v >= 0 for v in values)

    def test_contribution_sources_name_linking_pages(self, engine, smr):
        web, semantic = smr.wiki.link_graph(), smr.wiki.semantic_graph()
        index = smr.wiki.page_index()
        for title in smr.titles():
            target = index[title.lower()]
            for contribution in engine.ranker.explain(title, top_k=64)["contributions"]:
                source = index[contribution["source"].lower()]
                via_web = target in web.out_links(source)
                via_semantic = target in semantic.out_links(source)
                assert via_web or via_semantic, (title, contribution)
                expected = "both" if via_web and via_semantic else (
                    "web" if via_web else "semantic"
                )
                assert contribution["via"] == expected, (title, contribution)

    def test_via_tells_plain_links_from_annotations(self):
        repo = SensorMetadataRepository()
        repo.register("station", "Station:Hub", [("name", "hub")])
        repo.register("station", "Station:Plain", [("name", "plain")], links=["Station:Hub"])
        repo.register("sensor", "Sensor:Annotated", [("name", "a"), ("station", "Station:Hub")])
        explanation = AdvancedSearchEngine(repo).ranker.explain("Station:Hub")
        via = {c["source"]: c["via"] for c in explanation["contributions"]}
        assert via == {"Station:Plain": "web", "Sensor:Annotated": "both"}

    def test_remainder_folds_truncated_mass(self, engine):
        full = engine.ranker.explain("Station:WAN-001", top_k=64)
        truncated = engine.ranker.explain("Station:WAN-001", top_k=1)
        assert truncated["remainder"] >= full["remainder"] - 1e-12
        assert abs(full["score"] - truncated["score"]) < 1e-12

    def test_unknown_title_raises_query_error(self, engine):
        with pytest.raises(QueryError):
            engine.ranker.explain("Page:Nope")

    def test_explain_survives_repository_writes(self, engine, smr):
        """Explanations follow a write to the solve that includes it."""
        before = engine.ranker.explain("Station:WAN-001")
        smr.register("station", "Station:WAN-999", [("name", "WAN-999")])
        after = engine.ranker.explain("Station:WAN-999")
        parts = (
            after["teleport"]
            + after["dangling"]
            + sum(c["value"] for c in after["contributions"])
            + after["remainder"]
        )
        assert abs(parts - after["score"]) < 1e-9
        assert after["score"] == engine.ranker.score("Station:WAN-999")
        assert before["title"] == "Station:WAN-001"


class TestQueryProvenanceRecord:
    def test_stage_selectivity(self):
        prov = QueryProvenance("kind=station")
        prov.add_stage("kind=station", "KindTitleLookup", 0.001, 3, 12)
        stage = prov.stages[0]
        assert stage.selectivity == pytest.approx(0.25)
        assert stage.to_dict()["strategy"] == "KindTitleLookup"

    def test_zero_corpus_selectivity_is_zero(self):
        prov = QueryProvenance("q")
        prov.add_stage("keyword='x'", "InvertedIndexScan", 0.0, 0, 0)
        assert prov.stages[0].selectivity == 0.0

    def test_to_dict_shape(self):
        prov = QueryProvenance("kind=station", privileges="station,sensor")
        prov.add_stage("kind=station", "KindTitleLookup", 0.001, 3, 12)
        prov.add_waterfall_step("kind=station", None, 3)
        prov.set_privilege_filter(3, 2)
        prov.set_ranking("pagerank", "heap-topk", 2)
        payload = prov.to_dict()
        assert set(payload) == {
            "query", "trace_id", "privileges", "generation", "cache", "seconds",
            "stages", "waterfall", "candidates", "allowed", "ranking",
            "timestamp", "seq",
        }
        assert payload["query"] == "kind=station"
        assert payload["privileges"] == "station,sensor"
        assert payload["cache"] == "uncached"
        assert payload["waterfall"] == [
            {"constraint": "kind=station", "before": None, "after": 3}
        ]
        assert payload["candidates"] == 3 and payload["allowed"] == 2
        assert payload["ranking"] == {
            "sort": "pagerank", "path": "heap-topk", "returned": 2,
        }


class TestProvenanceRecorder:
    def test_capacity_ring_drops_oldest(self):
        recorder = ProvenanceRecorder(capacity=3)
        for i in range(5):
            recorder.record(QueryProvenance(f"q{i}"))
        assert len(recorder) == 3
        queries = [r["query"] for r in recorder.records()]
        assert queries == ["q4", "q3", "q2"]  # most recent first

    def test_trace_id_filter_applies_before_k(self):
        recorder = ProvenanceRecorder(capacity=16)
        wanted = QueryProvenance("target")
        wanted.trace_id = "abc123"
        recorder.record(wanted)
        for i in range(10):
            recorder.record(QueryProvenance(f"noise{i}"))
        records = recorder.records(trace_id="abc123", k=5)
        assert [r["query"] for r in records] == ["target"]

    def test_clear_and_seq_stamping(self):
        recorder = ProvenanceRecorder(clock=lambda: 123.5)
        recorder.record(QueryProvenance("a"))
        recorder.record(QueryProvenance("b"))
        records = recorder.records()
        assert [r["seq"] for r in records] == [2, 1]
        assert all(r["timestamp"] == 123.5 for r in records)
        recorder.clear()
        assert len(recorder) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ObservabilityError):
            ProvenanceRecorder(capacity=0)

    def test_concurrent_recording_retains_capacity(self):
        recorder = ProvenanceRecorder(capacity=8)

        def write(offset):
            for i in range(50):
                recorder.record(QueryProvenance(f"w{offset}-{i}"))

        threads = [threading.Thread(target=write, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = recorder.records(k=100)
        assert len(recorder) == 8 and len(records) == 8
        assert len({r["seq"] for r in records}) == 8  # unique, no torn writes


class TestEngineProvenance:
    def test_search_explained_records_stages_and_waterfall(self, engine, fresh_obs):
        query = parse_query("wind kind=sensor sensor_type~wind")
        results, prov = engine.search_explained(query)
        assert prov.cache == "bypass"
        strategies = {s.name: s.strategy for s in prov.stages}
        assert strategies["keyword='wind'"] == "InvertedIndexScan"
        assert strategies["kind=sensor"] == "KindTitleLookup"
        assert strategies["sensor_type ~ 'wind'"] in ("SqlFilter", "SparqlFilter")
        # The waterfall narrows monotonically and lands on the candidate count.
        afters = [step["after"] for step in prov.waterfall]
        for step in prov.waterfall[1:]:
            assert step["before"] >= step["after"]
        assert afters[-1] == prov.candidates
        assert prov.allowed == results.total_candidates
        assert prov.ranking["returned"] == len(results.results)
        assert all(stage.seconds >= 0.0 for stage in prov.stages)

    def test_search_explained_lands_in_recorder(self, engine, fresh_obs):
        recorder, _ = fresh_obs
        engine.search_explained(parse_query("kind=station"))
        records = recorder.records()
        assert len(records) == 1
        assert records[0]["cache"] == "bypass"
        assert records[0]["generation"] is not None

    def test_privilege_filter_counts_restricted_user(self, engine, fresh_obs):
        user = User("guest", AccessPolicy.restrict_to(["station"]))
        _, prov = engine.search_explained(parse_query("kind=station status=online"), user)
        assert prov.privileges == "station"
        assert prov.allowed <= prov.candidates

    def test_cached_search_records_hit_verdict_with_empty_waterfall(
        self, engine, fresh_obs
    ):
        recorder, _ = fresh_obs
        query = SearchQuery(kind="station")
        engine.search(query)
        engine.search(query)
        records = recorder.records(k=2)
        assert records[0]["cache"] == "hit"
        assert records[0]["stages"] == [] and records[0]["waterfall"] == []
        assert records[1]["cache"] in ("miss", "stale")
        assert records[1]["stages"], "the uncached run must carry its stages"

    def test_one_record_per_search_feeds_every_view(self, engine, fresh_obs):
        recorder, slowlog = fresh_obs
        logged = engine.query_log.total_logged
        query = SearchQuery(kind="sensor", limit=4, offset=2)
        results = engine.search(query)
        engine.search(query)
        _, explained = engine.search_explained(query)
        records = recorder.records(k=3)
        assert [r["cache"] for r in records[:2]] == ["bypass", "hit"]
        assert records[2]["cache"] in ("miss", "stale")
        assert records[0]["seq"] == explained.seq
        # Hits included: every record reaches the slow log and the query
        # log, with the result count the caller got.
        assert slowlog.recorded == 3
        assert {e["results"] for e in slowlog.snapshot()} == {results.total_candidates}
        assert engine.query_log.total_logged == logged + 3

    def test_disabled_recorder_collects_nothing(self, engine, fresh_obs):
        recorder, _ = fresh_obs
        recorder.disable()
        results = engine.search(SearchQuery(keyword="snow"))
        assert len(recorder) == 0
        assert results is not None
        recorder.enable()

    def test_relaxed_filters_record_union_step(self, engine, fresh_obs):
        query = SearchQuery(
            kind="station",
            filters=(
                PropertyFilter("status", "=", "online"),
                PropertyFilter("elevation_m", ">=", 2500),
            ),
            relaxed=True,
        )
        _, prov = engine.search_explained(query)
        union_steps = [
            step for step in prov.waterfall
            if step["constraint"].startswith("any-of(")
        ]
        assert len(union_steps) == 1
        # Relaxed filters evaluate individually but intersect as a union.
        assert len(prov.stages) == 3  # kind + two filters

    def test_stage_corpus_is_the_page_count(self, engine, smr, fresh_obs):
        query = parse_query("wind kind=station status=online bbox=46,9,47,10")
        _, prov = engine.search_explained(query)
        assert len(prov.stages) == 4
        assert {stage.corpus for stage in prov.stages} == {smr.page_count}

    def test_bbox_search_sorts_no_titles_after_warm_up(
        self, engine, fresh_obs, monkeypatch
    ):
        from repro.wiki.site import WikiSite

        engine.search_explained(parse_query("bbox=46,9,47,10"))  # builds the R-tree
        calls = []
        titles = WikiSite.titles

        def counting(site):
            calls.append(site)
            return titles(site)

        monkeypatch.setattr(WikiSite, "titles", counting)
        _, prov = engine.search_explained(parse_query("bbox=46.5,9.5,47,10"))
        assert prov.stages and calls == []

    def test_search_feeds_slow_query_log(self, engine, fresh_obs):
        _, slowlog = fresh_obs
        engine.search(SearchQuery(kind="sensor", keyword="wind"))
        entries = slowlog.snapshot()
        assert entries, "an uncached search must be offered to the slow log"
        entry = entries[0]
        assert entry["query"].startswith("keyword='wind', kind=sensor")
        assert entry["plan"] is not None
        assert {s["constraint"] for s in entry["plan"]["stages"]} == {
            "keyword='wind'", "kind=sensor",
        }
