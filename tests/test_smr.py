"""Tests for the Sensor Metadata Repository: model, repository, bulk load."""

import json

import pytest

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
        assert hits and hits[0].doc_id == "Sensor:S1"
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
        first = smr.rdf_graph()
        assert smr.rdf_graph() is first  # cached
        smr.register("station", "Station:NEW", [("name", "new")])
        assert smr.rdf_graph() is not first

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
