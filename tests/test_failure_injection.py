"""Failure-injection tests: errors must not corrupt state.

Each scenario forces a failure mid-operation and checks the affected
component is still consistent and usable afterwards.
"""

import pytest

from repro.errors import (
    IntegrityError,
    QueryError,
    ReproError,
    SmrError,
    TaggingError,
)
from repro.relational import Database
from repro.smr import BulkLoader, SensorMetadataRepository
from repro.tagging import TagCloudBuilder, TagStore, TaggingSystem


class TestCacheFailureInjection:
    def test_failing_compute_not_cached(self):
        builder = TagCloudBuilder()
        build = builder.build
        calls = {"n": 0}

        def flaky(store, top=None, min_count=1):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return build(store, top=top, min_count=min_count)

        builder.build = flaky
        tagging = TaggingSystem(builder=builder)
        tagging.create_tag("Page:A", "snow")
        with pytest.raises(RuntimeError):
            tagging.cloud()
        # The failure must not have poisoned the cache entry.
        assert len(tagging.cache) == 0
        assert [entry.tag for entry in tagging.cloud().entries] == ["snow"]
        assert calls["n"] == 2
        assert len(tagging.cache) == 1


class TestRelationalFailureInjection:
    @pytest.fixture
    def db(self):
        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)")
        database.execute("INSERT INTO t (id, v) VALUES (1, 10)")
        return database

    def test_failed_insert_leaves_table_intact(self, db):
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t (id, v) VALUES (2, NULL)")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1
        db.execute("INSERT INTO t (id, v) VALUES (2, 20)")  # still usable

    def test_multi_row_insert_fails_atomically_per_row(self, db):
        # The second row violates the PK; the first row of the statement
        # has already landed (statement-level atomicity needs BEGIN).
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t (id, v) VALUES (3, 30), (1, 99)")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2
        # With a transaction, the partial insert rolls back entirely.
        db.execute("BEGIN")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t (id, v) VALUES (4, 40), (1, 99)")
        db.execute("ROLLBACK")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_failed_update_preserves_indexes(self, db):
        db.execute("CREATE INDEX idx_v ON t(v)")
        with pytest.raises(IntegrityError):
            db.execute("UPDATE t SET v = NULL WHERE id = 1")
        assert db.execute("SELECT id FROM t WHERE v = 10").rows == [(1,)]

    def test_bad_sql_leaves_catalog_unchanged(self, db):
        from repro.errors import SqlSyntaxError

        with pytest.raises(SqlSyntaxError):
            db.execute("CREATE TABLE broken (x NOTATYPE)")
        assert not db.has_table("broken")


class TestSmrFailureInjection:
    def test_failed_register_does_not_half_write(self):
        smr = SensorMetadataRepository()
        with pytest.raises(SmrError):
            smr.register("satellite", "Sat:1", [("name", "x")])
        assert smr.page_count == 0
        assert smr.sql("SELECT COUNT(*) FROM station").scalar() == 0

    def test_bulk_loader_continues_after_bad_rows(self):
        smr = SensorMetadataRepository()
        records = (
            [{"title": f"Station:OK{i}", "name": "ok"} for i in range(3)]
            + [{"latitude": 999.0, "longitude": 0.0, "title": "Station:BAD"}]
            + [{"title": "Station:OK9", "name": "late"}]
        )
        report = BulkLoader(smr).load_records("station", records)
        assert report.loaded == 4
        assert len(report.errors) == 1
        # The keyword index only carries the loaded pages.
        assert smr.text_index.document_count == 4


class TestTaggingFailureInjection:
    def test_invalid_tag_does_not_bump_version(self):
        store = TagStore()
        version = store.version
        with pytest.raises(TaggingError):
            store.create("Page:1", "   ")
        assert store.version == version

    def test_engine_error_does_not_break_later_queries(self):
        from repro import build_demo_engine

        engine = build_demo_engine(seed=2, stations=8, sensors=16)
        with pytest.raises(QueryError):
            engine.search(engine.parse("kind=station sort=not_a_property"))
        # The engine still answers normal queries.
        assert len(engine.search(engine.parse("kind=station limit=0"))) == 8


class TestWebErrorMapping:
    def test_every_repro_error_maps_to_400(self):
        import io

        from repro import build_demo_engine
        from repro.web import create_app

        engine = build_demo_engine(seed=2, stations=5, sensors=10)
        app = create_app(engine)
        for path, query in [
            ("/api/search", "q="),
            ("/api/page/Ghost:Page", ""),
            ("/api/values", "prop="),
        ]:
            environ = {
                "REQUEST_METHOD": "GET",
                "PATH_INFO": path,
                "QUERY_STRING": query,
                "wsgi.input": io.BytesIO(b""),
            }
            captured = {}
            app(environ, lambda s, h: captured.update(status=s))
            assert captured["status"] == "400 Bad Request", path
