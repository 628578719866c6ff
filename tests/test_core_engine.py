"""Tests for the advanced search engine (the paper's core contribution)."""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AccessPolicy,
    AdvancedSearchEngine,
    PageRankRanker,
    PropertyFilter,
    SearchQuery,
    User,
    parse_query,
)
from repro.core.autocomplete import AutocompleteService
from repro.core.recommend import Recommender
from repro.errors import AccessDeniedError, QueryError
from repro.geo.bbox import BoundingBox
from repro.smr import SensorMetadataRepository
from repro.tagging import TagCloudBuilder, TaggingSystem


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
            ("project", "SnowFlux"),
            ("start_year", 2008),
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
            ("manufacturer", "Vaisala"),
        ],
    )
    repo.register(
        "sensor",
        "Sensor:WAN-002-snow",
        [
            ("name", "snow height sensor"),
            ("station", "Station:WAN-002"),
            ("sensor_type", "snow height"),
            ("manufacturer", "Campbell Scientific"),
        ],
    )
    return repo


@pytest.fixture(scope="module")
def engine(smr):
    return AdvancedSearchEngine(smr)


class TestQueryParsing:
    def test_bare_keyword(self):
        query = parse_query("wind speed")
        assert query.keyword == "wind speed"
        assert query.filters == ()

    def test_full_syntax(self):
        query = parse_query(
            "keyword=wind kind=sensor sensor_type=wind speed sort=pagerank "
            "order=asc limit=5 relaxed=true"
        )
        assert query.keyword == "wind"
        assert query.kind == "sensor"
        assert query.filters == (PropertyFilter("sensor_type", "=", "wind speed"),)
        assert query.sort == "pagerank"
        assert not query.descending
        assert query.limit == 5
        assert query.relaxed

    def test_comparison_operators(self):
        query = parse_query("elevation_m>=2000 status!=offline start_year<2010")
        ops = [(f.prop, f.op, f.value) for f in query.filters]
        assert ops == [
            ("elevation_m", ">=", 2000),
            ("status", "!=", "offline"),
            ("start_year", "<", 2010),
        ]

    def test_contains_operator(self):
        query = parse_query("name~wan")
        assert query.filters[0].op == "~"

    def test_bbox(self):
        query = parse_query("kind=station bbox=46.0,9.0,47.0,10.0")
        assert query.bbox == BoundingBox(46.0, 9.0, 47.0, 10.0)

    def test_limit_zero_means_unlimited(self):
        assert parse_query("kind=station limit=0").limit is None

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "order=sideways kind=station",
            "limit=abc kind=station",
            "bbox=1,2,3 kind=station",
            "sort>pagerank",
        ],
    )
    def test_bad_queries(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)

    def test_empty_query_object_rejected(self):
        with pytest.raises(QueryError):
            SearchQuery()

    def test_bad_operator_rejected(self):
        with pytest.raises(QueryError):
            PropertyFilter("x", "<>", 1)


class TestSearch:
    def test_keyword_search(self, engine):
        results = engine.search(parse_query("keyword=wind"))
        assert "Sensor:WAN-001-wind" in results.titles

    def test_kind_restriction(self, engine):
        results = engine.search(parse_query("kind=station limit=0"))
        assert len(results) == 3
        assert all(r.kind == "station" for r in results)

    def test_sql_filter_numeric(self, engine):
        results = engine.search(parse_query("kind=station elevation_m>=2400 limit=0"))
        assert sorted(results.titles) == ["Station:WAN-001", "Station:WAN-002"]

    def test_sql_filter_like(self, engine):
        results = engine.search(parse_query("kind=sensor manufacturer~vaisala"))
        assert results.titles == ["Sensor:WAN-001-wind"]

    def test_strict_and_semantics(self, engine):
        results = engine.search(
            parse_query("kind=station elevation_m>=2400 status=offline limit=0")
        )
        assert len(results) == 0

    def test_relaxed_or_with_match_degree(self, engine):
        results = engine.search(
            parse_query("kind=station elevation_m>=2400 status=offline relaxed=true limit=0")
        )
        assert len(results) == 3
        degrees = {r.title: r.match_degree for r in results}
        assert degrees["Station:WAN-003"] == 0.5  # offline only
        assert degrees["Station:WAN-001"] == 0.5  # elevation only
        # Results sorted with full matches first under relevance scoring.
        assert all(0 < r.match_degree <= 1 for r in results)

    def test_sort_by_property(self, engine):
        results = engine.search(parse_query("kind=station sort=elevation_m order=desc limit=0"))
        elevations = [r.get("elevation_m") for r in results]
        assert elevations == sorted(elevations, reverse=True)

    def test_sort_by_property_ascending(self, engine):
        results = engine.search(parse_query("kind=station sort=elevation_m order=asc limit=0"))
        elevations = [r.get("elevation_m") for r in results]
        assert elevations == sorted(elevations)

    def test_sort_by_unknown_property(self, engine):
        with pytest.raises(QueryError):
            engine.search(parse_query("kind=station sort=flux_capacitance"))

    def test_pagerank_sort(self, engine):
        results = engine.search(parse_query("kind=station sort=pagerank limit=0"))
        scores = [r.pagerank for r in results]
        assert scores == sorted(scores, reverse=True)
        assert all(r.score == pytest.approx(r.pagerank * r.match_degree) for r in results)

    def test_bbox_search(self, engine):
        results = engine.search(parse_query("kind=station bbox=46.79,9.79,46.815,9.815 limit=0"))
        assert sorted(results.titles) == ["Station:WAN-001", "Station:WAN-002"]

    def test_locations_attached(self, engine):
        results = engine.search(parse_query("kind=station limit=0"))
        assert len(results.located()) == 3

    def test_offset_pagination(self, engine):
        page1 = engine.search(parse_query("kind=station sort=elevation_m order=desc limit=2"))
        page2 = engine.search(
            parse_query("kind=station sort=elevation_m order=desc limit=2 offset=2")
        )
        combined = page1.titles + page2.titles
        full = engine.search(
            parse_query("kind=station sort=elevation_m order=desc limit=0")
        )
        assert combined == full.titles[:4] or combined == full.titles  # 3 stations
        assert not (set(page1.titles) & set(page2.titles))

    def test_negative_offset_rejected(self):
        from repro.core import SearchQuery

        with pytest.raises(QueryError):
            SearchQuery(kind="station", offset=-1)
        with pytest.raises(QueryError):
            parse_query("kind=station offset=abc")

    def test_limit_applied_after_ranking(self, engine):
        limited = engine.search(parse_query("kind=station sort=elevation_m order=desc limit=1"))
        assert limited.titles == ["Station:WAN-002"]
        assert limited.total_candidates == 3

    def test_unmapped_property_goes_to_sparql(self):
        # 'custom_flag' maps to no relational column, so the filter must be
        # answered by the SPARQL path. Fresh repo: keeps the shared fixture
        # unmutated for the other tests.
        repo = SensorMetadataRepository()
        repo.register("station", "Station:PLAIN", [("name", "plain")])
        repo.register(
            "station",
            "Station:TAGGED",
            [("name", "tagged"), ("custom_flag", "special")],
        )
        local_engine = AdvancedSearchEngine(repo)
        results = local_engine.search(parse_query("custom_flag=special"))
        assert results.titles == ["Station:TAGGED"]

    def test_rows_projection(self, engine):
        results = engine.search(parse_query("kind=station sort=elevation_m order=desc limit=2"))
        rows = results.rows(("elevation_m", "status"))
        assert rows[0][0] == "Station:WAN-002"
        assert rows[0][3] == 2600


#: A keyword + property-sort query whose tie on elevation_m spans the
#: returned page's edges; prints the page's (title, score) pairs.
_TIE_SCRIPT = """
import json
from repro.core import AdvancedSearchEngine, parse_query
from repro.smr import SensorMetadataRepository

smr = SensorMetadataRepository()
for i in range(12):
    annotations = [("name", f"TIE-{i:02d}"), ("elevation_m", 1500 if i % 3 == 0 else 2000)]
    smr.register("station", f"Station:TIE-{i:02d}", annotations, description="wind mast")
results = AdvancedSearchEngine(smr).search(
    parse_query("keyword=wind sort=elevation_m order=desc limit=4 offset=2")
)
print(json.dumps([[r.title, r.score] for r in results.results]))
"""


class TestPropertySortTies:
    def test_tied_pages_do_not_follow_the_hash_seed(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        pages = []
        for seed in ("1", "2"):
            completed = subprocess.run(
                [sys.executable, "-c", _TIE_SCRIPT],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert completed.returncode == 0, completed.stderr
            pages.append(json.loads(completed.stdout))
        assert pages[0] == pages[1]
        # The eight 2000 m stations tie; the page is the third to sixth in title order.
        assert [title for title, _ in pages[0]] == [
            "Station:TIE-04", "Station:TIE-05", "Station:TIE-07", "Station:TIE-08"
        ]


class TestOutOfRangeLocations:
    """``register()`` accepts any coordinates; the engine must cope."""

    WHOLE_GLOBE = SearchQuery(bbox=BoundingBox(-90.0, -180.0, 90.0, 180.0))

    @pytest.fixture
    def repo(self):
        repo = SensorMetadataRepository()
        repo.register(
            "station", "Station:OK", [("name", "ok"), ("latitude", 46.8), ("longitude", 9.8)]
        )
        repo.register(
            "station", "Station:POLE", [("name", "pole"), ("latitude", 95.0), ("longitude", 9.8)]
        )
        return repo

    def test_out_of_range_page_is_unlocated(self, repo):
        engine = AdvancedSearchEngine(repo, cache=None)
        assert engine.search(self.WHOLE_GLOBE).titles == ["Station:OK"]
        listed = engine.search(parse_query("kind=station limit=0"))
        assert sorted(listed.titles) == ["Station:OK", "Station:POLE"]
        assert [r.title for r in listed.located()] == ["Station:OK"]

    def test_coordinate_too_large_for_a_float_is_unlocated(self, repo):
        repo.register(
            "sensor",
            "Sensor:HUGE",
            [("name", "huge"), ("latitude", 10**400), ("longitude", 9.8)],
        )
        engine = AdvancedSearchEngine(repo, cache=None)
        assert engine.search(parse_query("bbox=40,5,50,12")).titles == ["Station:OK"]
        for text in ("kind=sensor", "keyword=huge"):
            results = engine.search(parse_query(text))
            assert results.titles == ["Sensor:HUGE"]
            assert results.results[0].location is None

    @staticmethod
    def _state(repo):
        """Every store and lookup a refused write must leave as it was."""
        return {
            "wiki": {
                title: (repo.wiki.get(title).text, repo.wiki.get(title).revision_count)
                for title in repo.titles()
            },
            "sql": {kind: repo.sql(f"SELECT * FROM {kind}").rows for kind in repo.mapping.kinds},
            "text": (repo.text_index.document_count, repo.keyword_search("moved")),
            "rdf": set(repo.rdf_graph().triples()),
            "kinds": {kind: repo.titles_of_kind(kind) for kind in repo.mapping.kinds},
            "iris": dict(repo.wiki._title_of_iri),
            "locations": repo.locations(),
            "rtree": repo.spatial_index_statistics(),
            "mutations": repo.mutation_count,
        }

    def test_other_location_errors_surface(self, repo, monkeypatch):
        def broken(lat, lon):
            raise RuntimeError("geo backend down")

        engine = AdvancedSearchEngine(repo, cache=None)
        before = self._state(repo)
        monkeypatch.setattr("repro.smr.repository.GeoPoint", broken)
        moved = [("name", "moved"), ("latitude", 40.0), ("longitude", 7.0)]
        for kind, title in (("station", "Station:OK"), ("sensor", "Sensor:NEW")):
            with pytest.raises(RuntimeError, match="geo backend down"):
                repo.register(kind, title, moved)
        assert self._state(repo) == before
        assert engine.search(self.WHOLE_GLOBE).titles == ["Station:OK"]


class TestPrivileges:
    def test_kind_query_denied(self, engine):
        user = User("guest", AccessPolicy.restrict_to(["station"]))
        with pytest.raises(AccessDeniedError):
            engine.search(parse_query("kind=sensor"), user=user)

    def test_results_filtered_by_policy(self, engine):
        user = User("guest", AccessPolicy.restrict_to(["sensor"]))
        results = engine.search(parse_query("keyword=wind limit=0"), user=user)
        assert all(r.kind == "sensor" for r in results)

    def test_unknown_kind_in_policy(self):
        with pytest.raises(AccessDeniedError):
            AccessPolicy.restrict_to(["satellite"])

    def test_allow_all_default(self, engine):
        results = engine.search(parse_query("keyword=wannengrat limit=0"))
        assert len(results) >= 1


class TestRanker:
    def test_scores_sum_to_one(self, engine):
        scores = engine.ranker.scores()
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_hub_pages_rank_high(self, engine):
        top_titles = [title for title, _ in engine.ranker.top(3)]
        # The deployment and field site are pointed at by several pages.
        assert "Deployment:WAN SnowFlux" in top_titles or "Fieldsite:Wannengrat" in top_titles

    def test_property_weights(self, engine):
        weights = engine.ranker.property_weights()
        assert weights  # non-empty
        assert all(weight >= 0 for weight in weights.values())

    def test_unknown_title_scores_zero(self, engine):
        assert engine.ranker.score("Nope:Nothing") == 0.0


class TestRecommendAndFacets:
    def test_recommendations_exclude_results(self, engine):
        results = engine.search(parse_query("kind=sensor limit=0"))
        recommendations = engine.recommend(results, k=5)
        recommended = {rec.title for rec in recommendations}
        assert recommended.isdisjoint(set(results.titles))
        assert recommendations == sorted(
            recommendations, key=lambda r: (-r.score, r.title)
        )

    def test_recommendations_have_reasons(self, engine):
        results = engine.search(parse_query("kind=sensor limit=0"))
        for rec in engine.recommend(results, k=3):
            assert rec.reasons
            assert "via" in rec.describe()

    def test_backward_step_reads_each_annotation_naming_the_result(self):
        smr = SensorMetadataRepository()
        smr.register("deployment", "Deployment:D", [("name", "d")])
        smr.register(
            "station",
            "Station:B",
            [("name", "b"), ("deployment", "deployment:d"), ("Backup", "Deployment:D")],
        )
        smr.register("station", "Station:A", [("name", "a"), ("deployment", "Deployment:D")])
        smr.register("station", "Station:C", [("name", "c")], links=["Deployment:D"])
        recommender = Recommender(smr, PageRankRanker(smr))
        for title in smr.titles():
            expected = [  # a walk over every page's annotations
                (prop.lower(), source)
                for source in smr.titles()
                for prop, value in smr.annotations(source)
                if isinstance(value, str) and value.strip().lower() == title.lower()
            ]
            assert recommender._naming(title) == expected
        assert recommender._naming("Deployment:D") == [
            ("deployment", "Station:A"),
            ("deployment", "Station:B"),
            ("backup", "Station:B"),
        ]

    def test_recommend_k_zero(self, engine):
        results = engine.search(parse_query("kind=sensor limit=0"))
        assert engine.recommend(results, k=0) == []

    def test_facets(self, engine):
        results = engine.search(parse_query("kind=station limit=0"))
        facets = dict(engine.facets(results, "status"))
        assert facets == {"online": 2, "offline": 1}

    def test_facets_missing_property_counts_none(self, engine):
        results = engine.search(parse_query("kind=station limit=0"))
        facets = dict(engine.facets(results, "manufacturer"))
        assert facets == {None: len(results)}

    def test_facets_need_property(self, engine, smr):
        with pytest.raises(QueryError):
            engine.facets(engine.search(parse_query("kind=station limit=0")), "")


class TestAutocomplete:
    def test_title_completion_preserves_case(self, engine):
        completions = engine.autocomplete.complete_title("station:")
        assert completions and all(c.startswith("Station:") for c in completions)

    def test_property_completion_by_usage(self, engine):
        completions = engine.autocomplete.complete_property("s")
        assert "status" in completions or "station" in completions

    def test_dynamic_dropdown_values(self, engine):
        values = engine.autocomplete.values_for("status", kind="station")
        assert dict(values) == {"online": 2, "offline": 1}
        assert values[0] == ("online", 2)  # most common first

    def test_value_completion(self, engine):
        assert engine.autocomplete.complete_value("sensor_type", "wind") == ["wind speed"]

    def test_values_need_property(self, engine):
        with pytest.raises(QueryError):
            engine.autocomplete.values_for("")

    @staticmethod
    def _hub_and_leaves():
        """Four leaves linking to a hub; ``davos`` (once as ``Davos``) and
        ``name`` used 5 times, ``wind_speed`` 4 and ``davo`` 3."""
        smr = SensorMetadataRepository()
        smr.register("station", "Station:Hub", [("name", "hub"), ("Davos", 0)])
        for i in range(4):
            annotations = [("name", f"leaf{i}"), ("davos", i), ("wind_speed", i)]
            if i < 3:
                annotations.append(("davo", i))
            smr.register("station", f"Station:Leaf{i}", annotations, links=["Station:Hub"])
        return AdvancedSearchEngine(smr)

    def test_complete_by_weight(self):
        engine = self._hub_and_leaves()
        titles = engine.autocomplete.complete_title("station:")
        assert titles[0] == "Station:Hub"  # the most linked-to page
        scores = engine.ranker.scores()
        for before, after in zip(titles, titles[1:]):  # equal scores: alphabetical
            assert (-scores[before], before.lower()) < (-scores[after], after.lower())
        assert engine.autocomplete.complete_property("") == [
            "davos", "name", "wind_speed", "davo"  # 5, 5, 4 and 3 uses
        ]

    def test_complete_limit(self):
        autocomplete = self._hub_and_leaves().autocomplete
        titles = autocomplete.complete_title("station:", limit=2)
        assert len(titles) == 2 and titles[0] == "Station:Hub"
        assert autocomplete.complete_property("d", limit=1) == ["davos"]
        assert autocomplete.complete_title("s", limit=0) == []
        assert autocomplete.complete_property("", limit=0) == []

    def test_complete_missing_prefix(self):
        autocomplete = self._hub_and_leaves().autocomplete
        assert autocomplete.complete_title("zzz") == []
        assert autocomplete.complete_property("zzz") == []
        empty = AdvancedSearchEngine(SensorMetadataRepository()).autocomplete
        assert empty.complete_title("") == [] and empty.complete_property("") == []

    def test_usage_accumulates_across_pages_and_case(self):
        # "Davos" on the hub and "davos" on four leaves are one property.
        autocomplete = self._hub_and_leaves().autocomplete
        assert autocomplete.complete_property("DAV") == ["davos", "davo"]
        assert sorted(autocomplete.complete_title("STATION:LEAF")) == [
            "Station:Leaf0", "Station:Leaf1", "Station:Leaf2", "Station:Leaf3"
        ]

    @given(st.lists(st.text(alphabet="abÄäİ", min_size=1, max_size=4), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_every_title_completes_to_itself(self, words):
        smr = SensorMetadataRepository()
        for word in words:
            smr.register("station", f"Station:{word}", [("name", word)])
        autocomplete = AdvancedSearchEngine(smr).autocomplete
        for title in smr.titles():
            for prefix in (title, title.upper(), title.lower()):
                assert title in autocomplete.complete_title(prefix, limit=len(words))


#: What the derived-view write sequences draw from: page titles, string
#: properties and values, the properties a page-valued annotation uses,
#: and tags.
_PAGES = ["Station:A", "Station:B", "Sensor:S1", "Sensor:S2", "Deployment:D"]
_PROPS = ["status", "maintainer", "project"]
_VALUES = ["online", "offline", "alice", "retired-x"]
_TAGS = ["snow", "wind", "alpine"]

_derived_step = st.one_of(
    st.tuples(
        st.just("register"),
        st.sampled_from(["station", "sensor", "deployment"]),  # may change the kind
        st.sampled_from(_PAGES),  # a creation or an edit
        st.lists(st.tuples(st.sampled_from(_PROPS), st.sampled_from(_VALUES)), max_size=2),
        # a page-valued annotation naming an existing page, by position
        st.none() | st.tuples(st.sampled_from(["station", "deployment"]), st.integers(0, 9)),
    ),
    st.tuples(st.sampled_from(["tag", "untag"]), st.sampled_from(_PAGES), st.sampled_from(_TAGS)),
    st.just(("refresh",)),
)


class TestDerivedViewsFollowWrites:
    """Completions equal a walk of every page, and drop-down values,
    recommendations and tag clouds a fresh build, after every write, tag
    change and forced ranker refresh."""

    @staticmethod
    def _walked_completions(smr, ranker, prefix, limit):
        """Title and property completions from a walk of every page.

        Titles weigh ``1.0 + 1000 * score`` and properties their
        annotation count; heaviest first, ties by lower-case text, and a
        prefix matches in any case.
        """
        lowered, scores = prefix.lower(), ranker.scores()
        titles = sorted(
            (title for title in smr.titles() if title.lower().startswith(lowered)),
            key=lambda title: (-(1.0 + 1000.0 * scores.get(title, 0.0)), title.lower()),
        )
        usage = Counter(
            prop.lower() for title in smr.titles() for prop, _ in smr.annotations(title)
        )
        names = sorted(
            (name for name in usage if name.startswith(lowered)),
            key=lambda name: (-usage[name], name),
        )
        return titles[:limit], names[:limit]

    @classmethod
    def _check(cls, engine, tagging):
        smr, ranker = engine.smr, engine.ranker
        live, fresh = engine.autocomplete, AutocompleteService(smr, ranker)
        for prefix in ("", "s", "station:", "SENSOR:", "m", "zz"):
            walked = cls._walked_completions(smr, ranker, prefix, 20)
            assert (live.complete_title(prefix, 20), live.complete_property(prefix, 20)) == walked
        for prop in _PROPS + ["station"]:
            for kind in (None, "station", "sensor"):
                assert live.values_for(prop, kind) == fresh.values_for(prop, kind)
        results = engine.search(parse_query("kind=station"))
        expected = Recommender(smr, ranker).recommend(results, k=10)
        assert engine.recommend(results, k=10) == expected
        for top in (None, 2):
            assert tagging.cloud(top=top) == TagCloudBuilder().build(tagging.store, top=top)

    @given(steps=st.lists(_derived_step, min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_views_match_fresh_builds_after_every_step(self, steps):
        smr = SensorMetadataRepository()
        smr.register("station", "Station:Seed", [("name", "seed"), ("status", "online")])
        engine = AdvancedSearchEngine(smr)
        tagging = TaggingSystem()
        tagging.create_tag("Station:Seed", "snow")
        self._check(engine, tagging)  # every memo is built before the first write
        for step in steps:
            if step[0] == "register":
                _, kind, title, pairs, named = step
                annotations = [("name", title.lower())] + pairs
                if named is not None:
                    prop, position = named
                    existing = smr.titles()
                    annotations.append((prop, existing[position % len(existing)]))
                smr.register(kind, title, annotations)
            elif step[0] == "tag":
                tagging.create_tag(step[1], step[2])
            elif step[0] == "untag":
                tagging.remove_tag(step[1], step[2])
            else:
                engine.ranker.refresh()
            self._check(engine, tagging)
