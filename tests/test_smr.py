"""Tests for the Sensor Metadata Repository: model, repository, bulk load."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import BulkLoadError, SmrError
from repro.smr import (
    BulkLoader,
    Deployment,
    Sensor,
    SensorMetadataRepository,
    Station,
    record_class_for,
    validate_record,
)
from repro.workloads.generator import CorpusSpec, generate_corpus


class TestModel:
    def test_annotations_skip_none(self):
        station = Station(title="Station:X", name="X", elevation_m=1200)
        pairs = dict(station.annotations())
        assert pairs == {"name": "X", "elevation_m": 1200}

    def test_from_record_ignores_unknown(self):
        sensor = Sensor.from_record(
            {"title": "Sensor:S", "name": "s", "bogus": 1, "sensor_type": "wind"}
        )
        assert sensor.sensor_type == "wind"
        assert not hasattr(sensor, "bogus")

    def test_from_record_requires_title(self):
        with pytest.raises(SmrError):
            Deployment.from_record({"name": "no title"})

    def test_record_class_lookup(self):
        assert record_class_for("STATION") is Station
        with pytest.raises(SmrError):
            record_class_for("satellite")

    def test_as_dict_roundtrip(self):
        deployment = Deployment(title="Deployment:D", name="D", start_year=2008)
        clone = Deployment.from_record(deployment.as_dict())
        assert clone == deployment


class TestValidation:
    def test_valid_record(self):
        assert validate_record("station", {"title": "S", "latitude": 46.0, "longitude": 7.0}) == []

    def test_missing_title(self):
        issues = validate_record("station", {})
        assert any("title" in issue for issue in issues)

    def test_bad_coordinates(self):
        issues = validate_record("station", {"title": "S", "latitude": 95.0, "longitude": 7.0})
        assert any("latitude" in issue for issue in issues)

    def test_lonely_coordinate(self):
        issues = validate_record("station", {"title": "S", "latitude": 46.0})
        assert any("together" in issue for issue in issues)

    def test_bad_year(self):
        issues = validate_record("sensor", {"title": "S", "installed_year": 1800})
        assert issues

    def test_unknown_kind(self):
        assert validate_record("satellite", {"title": "x"}) == ["unknown kind 'satellite'"]

    def test_zero_sampling_rate(self):
        issues = validate_record("sensor", {"title": "S", "sampling_rate_s": 0})
        assert any("sampling_rate_s" in issue for issue in issues)


@pytest.fixture
def smr():
    repo = SensorMetadataRepository()
    repo.register(
        "station",
        "Station:WAN-001",
        [("name", "WAN-001"), ("elevation_m", 2400), ("latitude", 46.8), ("longitude", 9.8)],
    )
    repo.register(
        "sensor",
        "Sensor:S1",
        [("name", "wind thing"), ("station", "Station:WAN-001"), ("sensor_type", "wind speed")],
    )
    return repo


class TestRepository:
    def test_register_populates_all_stores(self, smr):
        assert smr.page_count == 2
        assert smr.sql("SELECT COUNT(*) FROM station").scalar() == 1
        assert smr.kind_of("Station:WAN-001") == "station"
        hits = smr.keyword_search("wind")
        assert hits and max(hits, key=hits.get) == "Sensor:S1"
        result = smr.sparql(
            "PREFIX prop: <http://repro.example.org/property/> "
            "SELECT ?s WHERE { ?s prop:sensor_type ?t . FILTER(REGEX(?t, \"wind\")) }"
        )
        assert len(result) == 1

    def test_reregister_replaces(self, smr):
        smr.register("station", "Station:WAN-001", [("name", "renamed"), ("elevation_m", 99)])
        assert smr.sql("SELECT COUNT(*) FROM station").scalar() == 1
        assert smr.sql("SELECT elevation_m FROM station").scalar() == 99
        # The wiki keeps history.
        assert smr.wiki.get("Station:WAN-001").revision_count == 2

    def test_unknown_kind_rejected(self, smr):
        with pytest.raises(SmrError):
            smr.register("satellite", "Sat:1", [])

    def test_kind_of_missing(self, smr):
        with pytest.raises(SmrError):
            smr.kind_of("Nope")

    def test_titles_filtered_by_kind(self, smr):
        assert smr.titles("sensor") == ["Sensor:S1"]
        assert len(smr.titles()) == 2

    def test_rdf_cache_invalidation(self, smr):
        from repro.rdf.term import Literal
        from repro.wiki.site import PROP, title_to_iri

        first = smr.rdf_graph()
        assert smr.rdf_graph() is first  # cached
        smr.register("station", "Station:NEW", [("name", "new")])
        assert smr.rdf_graph() is first  # updated in place, not rebuilt
        subject = title_to_iri("Station:NEW")
        assert (subject, PROP.title, Literal("Station:NEW")) in first
        assert (subject, PROP.name, Literal("new")) in first
        assert set(first.triples()) == set(smr.wiki.export_rdf().triples())

    @pytest.mark.parametrize(
        "title, annotations, description",
        [
            ("Station:Tab\tName", [("name", "x")], ""),
            ("Station:WAN-001", [("wind\nspeed", 3)], ""),  # an edit
            ("Station:Fine", [("name", "x")], "[[Category:Alpine\tsites]]"),
        ],
    )
    def test_unexportable_page_leaves_every_store_as_it_was(
        self, smr, title, annotations, description
    ):
        from repro.errors import WikiError

        graph = smr.rdf_graph()
        before = set(graph.triples())
        generation = smr.mutation_count
        with pytest.raises(WikiError):
            smr.register("station", title, annotations, description=description)
        assert smr.rdf_graph() is graph
        assert set(graph.triples()) == before == set(smr.wiki.export_rdf().triples())
        assert smr.mutation_count == generation
        assert smr.wiki.get("Station:WAN-001").revision_count == 1
        assert smr.sql("SELECT title, elevation_m FROM station").rows == [("Station:WAN-001", 2400)]
        assert smr.text_index.document_count == smr.page_count == 2

    def test_reregister_in_other_case_keeps_one_page_in_every_store(self, smr):
        from repro.core import AdvancedSearchEngine

        smr.register("station", "Station:Alpha", [("name", "Alpha"), ("elevation_m", 5)])
        smr.register("station", "station:alpha", [("name", "Alpha"), ("elevation_m", 7)])
        assert smr.page_count == 3
        assert smr.sql("SELECT title, elevation_m FROM station WHERE elevation_m < 100").rows == [
            ("Station:Alpha", 7)
        ]
        assert smr.text_index.document_count == 3
        assert list(smr.keyword_search("alpha")) == ["Station:Alpha"]
        engine = AdvancedSearchEngine(smr)
        for query in ("elevation_m>=1", "kind=station"):
            titles = [r.title for r in engine.search(engine.parse(query)).results]
            assert sorted(titles) == ["Station:Alpha", "Station:WAN-001"], query

    def test_titles_sharing_a_subject_iri_are_refused(self, smr):
        """Space versus underscore: a SPARQL filter and the kind listing agree."""
        from repro.core import AdvancedSearchEngine
        from repro.errors import WikiError

        smr.register("station", "Station:Alp One", [("name", "a"), ("colour", "red")])
        graph = smr.rdf_graph()
        with pytest.raises(WikiError, match="subject IRI"):
            smr.register("station", "Station:Alp_One", [("name", "b"), ("colour", "red")])
        assert set(graph.triples()) == set(smr.wiki.export_rdf().triples())
        engine = AdvancedSearchEngine(smr)
        by_colour = engine.search(engine.parse("colour=red limit=0")).titles
        by_kind = engine.search(engine.parse("kind=station limit=0")).titles
        assert by_colour == ["Station:Alp One"]
        assert sorted(by_kind) == ["Station:Alp One", "Station:WAN-001"]

    def test_semantic_link_in_rdf(self, smr):
        from repro.wiki.site import PROP, title_to_iri

        graph = smr.rdf_graph()
        assert (
            title_to_iri("Sensor:S1"),
            PROP.station,
            title_to_iri("Station:WAN-001"),
        ) in graph

    def test_from_corpus_loads_everything(self):
        corpus = generate_corpus(CorpusSpec(seed=3))
        smr = SensorMetadataRepository.from_corpus(corpus)
        assert smr.page_count == corpus.page_count
        assert smr.sql("SELECT COUNT(*) FROM sensor").scalar() == corpus.spec.sensors
        assert smr.sql("SELECT COUNT(*) FROM station").scalar() == corpus.spec.stations

    def test_quote_in_title_handled(self, smr):
        smr.register("station", "Station:O'Brien", [("name", "O'Brien site")])
        smr.register("station", "Station:O'Brien", [("name", "updated")])
        assert smr.sql("SELECT COUNT(*) FROM station WHERE name = 'updated'").scalar() == 1


#: Titles for the write-through sequences: each underscore title collides
#: with its spaced twin on one RDF subject IRI, so whichever is created
#: second is refused.
_TITLES = [
    "Station:Alp One",
    "Station:Alp_One",
    "Sensor:S 1",
    "Sensor:S_1",
    "Field Site:F",
    "Field_Site:F",
    "Deployment:D",
]
_SPELLINGS = (str, str.lower, str.upper)

_named = st.tuples(st.sampled_from(_TITLES), st.integers(0, len(_SPELLINGS) - 1))
_step = st.tuples(
    st.sampled_from(["station", "sensor", "deployment"]),
    _named,  # the page written, in one of its spellings
    st.lists(_named, max_size=3),  # pages its annotation values name
    st.lists(_named, max_size=2),  # pages it links to
    st.integers(0, 3),
)


def _spell(named):
    title, spelling = named
    return _SPELLINGS[spelling](title)


def _collides(smr, title):
    """True when ``title`` names no page and another page holds its subject IRI."""
    from repro.wiki.site import title_to_iri

    iri = title_to_iri(title).value
    return not smr.wiki.has(title) and any(
        title_to_iri(other).value == iri for other in smr.titles()
    )


def _register_or_refuse(smr, kind, title, annotations, **kwargs):
    """Register, expecting a refusal exactly when ``title`` collides."""
    from repro.errors import WikiError

    generation = smr.mutation_count
    if _collides(smr, title):
        with pytest.raises(WikiError, match="subject IRI"):
            smr.register(kind, title, annotations, **kwargs)
        assert smr.mutation_count == generation
    else:
        smr.register(kind, title, annotations, **kwargs)


class TestRdfWriteThrough:
    """Once built, the RDF graph equals a fresh export after every write."""

    @given(steps=st.lists(_step, min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    @example(
        steps=[
            # Names two pages before they exist, in other spellings.
            ("sensor", ("Sensor:S 1", 0), [("Station:Alp One", 1)], [("Deployment:D", 2)], 0),
            ("station", ("Station:Alp One", 0), [], [], 1),  # created: S 1 now points at it
            ("station", ("Station:Alp_One", 0), [("Sensor:S_1", 0)], [], 2),  # its IRI: refused
            ("deployment", ("Station:Alp One", 2), [], [("Sensor:S 1", 1)], 3),  # kind change
            ("deployment", ("Deployment:D", 1), [("Station:Alp_One", 0)], [], 0),
            ("station", ("Field Site:F", 0), [("Deployment:D", 0)], [], 1),  # spaced namespace
            ("sensor", ("Field_Site:F", 1), [], [("Field Site:F", 2)], 2),
        ]
    )
    def test_graph_matches_fresh_export_after_every_write(self, steps):
        smr = SensorMetadataRepository()
        smr.register("station", "Station:Seed", [("name", "seed")], links=["Sensor:S 1"])
        graph = smr.rdf_graph()  # build first: every later write goes through in place
        for kind, page, values, links, n in steps:
            annotations = [("name", f"n{n}"), ("elevation_m", n)]
            annotations += [("refers", _spell(named)) for named in values]
            links = [_spell(named) for named in links]
            _register_or_refuse(smr, kind, _spell(page), annotations, links=links)
            assert smr.rdf_graph() is graph
            assert set(graph.triples()) == set(smr.wiki.export_rdf().triples())
            rows = sum(len(smr.db.table(name)) for name in smr.mapping.kinds)
            assert rows == smr.text_index.document_count == smr.page_count


#: Coordinates a write may carry: located points, none at all, and
#: values that leave the page unlocated.
_COORDINATES = [
    None,  # no latitude or longitude
    (46.5, 9.0),
    (47.25, 8.5),
    (0.0, 9.0),
    (-0.0, 9.0),  # equals the point above
    (95.0, 9.0),  # out of range
    (10**400, 9.0),  # too large for a float
    ("north", 9.0),  # not a number
    (46.5, None),  # latitude alone
]

_lookup_step = st.tuples(
    st.sampled_from(["station", "sensor", "deployment", "field_site"]),
    _named,
    st.integers(0, len(_COORDINATES) - 1),
)
_box = st.tuples(
    st.floats(-1.0, 48.0), st.floats(-1.0, 48.0), st.floats(8.0, 10.0), st.floats(8.0, 10.0)
)


class TestSearchLookupsWriteThrough:
    """The kind, IRI, location and R-tree lookups equal a fresh derivation."""

    @staticmethod
    def _check(smr, boxes):
        from repro.smr.repository import parse_location
        from repro.wiki.site import title_to_iri

        titles = smr.titles()
        for kind in smr.mapping.kinds:
            expected = [title for title in titles if smr.kind_of(title) == kind]
            assert smr.titles(kind) == expected
            assert smr.titles_of_kind(kind) == set(expected)
        assert smr.wiki._title_of_iri == {title_to_iri(title).value: title for title in titles}
        assert len(smr.wiki._title_of_iri) == len(titles)
        located = {}
        details = []
        for title in titles:
            pairs = smr.annotations(title)
            point = parse_location(pairs)
            details.append((smr.kind_of(title), pairs, point))
            if point is not None:
                located[title] = point
        assert smr.page_details([title.upper() for title in titles]) == details
        assert smr.locations() == located
        assert len(smr._spatial) == len(located)
        for lat_a, lat_b, lon_a, lon_b in boxes:
            south, north = sorted((lat_a, lat_b))
            west, east = sorted((lon_a, lon_b))
            assert smr.titles_in_box(south, north, west, east) == {
                title
                for title, point in located.items()
                if south <= point.lat <= north and west <= point.lon <= east
            }

    @given(
        steps=st.lists(_lookup_step, min_size=1, max_size=14),
        boxes=st.lists(_box, min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    @example(
        steps=[
            ("station", ("Station:Alp_One", 0), 1),  # created first
            ("station", ("Station:Alp One", 0), 3),  # its IRI: refused
            ("station", ("STATION:ALP ONE", 0), 4),  # case variant: -0.0 equals 0.0
            ("station", ("Station:Alp One", 1), 1),  # moved
            ("sensor", ("Sensor:S_1", 1), 2),
            ("sensor", ("Sensor:S 1", 2), 6),  # too large for a float: unlocated
            ("deployment", ("station:alp_one", 0), 0),  # kind change, coordinates removed
            ("sensor", ("Sensor:S_1", 0), 5),  # out of range: leaves the R-tree
            ("sensor", ("sensor:s_1", 0), 7),  # not a number
            ("field_site", ("Field Site:F", 0), 8),  # latitude alone
            ("field_site", ("Field_Site:F", 0), 2),
        ],
        boxes=[(-1.0, 48.0, 8.0, 10.0), (46.0, 47.0, 8.9, 9.1)],
    )
    def test_lookups_match_a_fresh_derivation_after_every_write(self, steps, boxes):
        smr = SensorMetadataRepository()
        for n, (kind, page, coordinate) in enumerate(steps):
            annotations = [("name", f"n{n}")]
            if _COORDINATES[coordinate] is not None:
                lat, lon = _COORDINATES[coordinate]
                annotations.append(("latitude", lat))
                if lon is not None:
                    annotations.append(("longitude", lon))
            try:
                _register_or_refuse(smr, kind, _spell(page), annotations)
            except OverflowError:
                # A latitude column converts 10**400 and refuses the write
                # before the wiki sees it.
                assert kind in ("station", "field_site")
            self._check(smr, boxes)


class TestBulkLoader:
    def test_load_records(self, smr):
        loader = BulkLoader(smr)
        report = loader.load_records(
            "station",
            [
                {"title": "Station:B1", "name": "B1", "elevation_m": 100},
                {"title": "Station:B2", "name": "B2"},
            ],
        )
        assert report.loaded == 2 and report.ok
        assert smr.sql("SELECT COUNT(*) FROM station").scalar() == 3

    def test_load_records_collects_errors(self, smr):
        loader = BulkLoader(smr)
        report = loader.load_records(
            "station",
            [
                {"title": "Station:OK", "name": "ok"},
                {"name": "missing title"},
                {"title": "Station:BadCoord", "latitude": 200.0, "longitude": 0.0},
            ],
        )
        assert report.loaded == 1
        assert len(report.errors) == 2
        assert report.errors[0][0] == 2  # 1-based row numbers
        assert "loaded 1/3" in report.summary()

    def test_strict_mode_raises(self, smr):
        loader = BulkLoader(smr, strict=True)
        with pytest.raises(BulkLoadError) as exc_info:
            loader.load_records("station", [{"name": "no title"}])
        assert exc_info.value.row == 1

    def test_load_keeps_row_order_and_reports_failing_rows(self):
        records = [
            {"title": f"Station:BULK-{i:03d}", "name": f"BULK-{i:03d}",
             "latitude": 46.0 + i * 0.001, "longitude": 9.0, "status": "online"}
            for i in range(40)
        ]
        records[7] = {"name": "missing title"}  # invalid: no title
        records[23] = {"title": "Station:BAD", "name": "BAD", "latitude": "north"}
        smr = SensorMetadataRepository()
        report = BulkLoader(smr).load_records("station", records)
        assert report.loaded == 38
        assert [row for row, _ in report.errors] == [8, 24]
        assert smr.titles() == [
            record["title"] for i, record in enumerate(records) if i not in (7, 23)
        ]

    def test_strict_mode_raises_at_first_failing_row(self):
        records = [
            {"title": "Station:OK-1", "name": "OK-1"},
            {"name": "no title"},
            {"title": "Station:OK-2", "name": "OK-2"},
            {"name": "also no title"},
        ]
        loader = BulkLoader(SensorMetadataRepository(), strict=True)
        with pytest.raises(BulkLoadError) as excinfo:
            loader.load_records("station", records)
        assert excinfo.value.row == 2

    def test_unknown_kind(self, smr):
        with pytest.raises(BulkLoadError):
            BulkLoader(smr).load_records("satellite", [])

    def test_load_csv(self, smr):
        csv_text = (
            "title,name,elevation_m,status\n"
            "Station:C1,C one,2100,online\n"
            "Station:C2,C two,,offline\n"
        )
        report = BulkLoader(smr).load_csv("station", csv_text)
        assert report.loaded == 2
        assert smr.sql("SELECT elevation_m FROM station WHERE title='Station:C1'").scalar() == 2100
        assert smr.sql("SELECT elevation_m FROM station WHERE title='Station:C2'").scalar() is None

    def test_load_csv_without_header(self, smr):
        with pytest.raises(BulkLoadError):
            BulkLoader(smr).load_csv("station", "")

    def test_load_json(self, smr):
        payload = json.dumps(
            [{"title": "Station:J1", "name": "J"}, {"title": "Station:J2", "name": "K"}]
        )
        report = BulkLoader(smr).load_json("station", payload)
        assert report.loaded == 2

    def test_load_json_bad_payloads(self, smr):
        loader = BulkLoader(smr)
        with pytest.raises(BulkLoadError):
            loader.load_json("station", "{not json")
        with pytest.raises(BulkLoadError):
            loader.load_json("station", '{"a": 1}')
        with pytest.raises(BulkLoadError):
            loader.load_json("station", '[1, 2]')

    def test_load_corpus_dump(self, smr):
        dump = {
            "deployment": [{"title": "Deployment:X", "name": "X"}],
            "station": [{"title": "Station:Y", "name": "Y", "deployment": "Deployment:X"}],
        }
        report = BulkLoader(smr).load_corpus_dump(dump)
        assert report.loaded == 2
        with pytest.raises(BulkLoadError):
            BulkLoader(smr).load_corpus_dump({"satellite": []})

    def test_duplicate_title_is_update_not_error(self, smr):
        loader = BulkLoader(smr)
        report = loader.load_records(
            "station",
            [{"title": "Station:WAN-001", "name": "reloaded"}],
        )
        assert report.loaded == 1
        assert smr.sql("SELECT name FROM station WHERE title='Station:WAN-001'").scalar() == "reloaded"
