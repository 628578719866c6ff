"""Tests for the cost-based planner, the index structures behind it,
and the engine's generation-stamped spatial index.

Covers the tree structures (the B+-tree, against a dict-of-sets model
under any insert/delete sequence, and the R-tree) directly, index
maintenance under SQL mutations for every ``USING`` kind, the catalog's
version-keyed statistics cache, golden EXPLAIN output per access path,
and the bbox regression the spatial memo must survive: a write between
two spatial queries."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, RelationalError
from repro.relational import Database
from repro.relational.indexes import BPlusTreeIndex, RTreeIndex
from repro.smr import SensorMetadataRepository


class TestBPlusTree:
    def test_insert_lookup_many(self):
        index = BPlusTreeIndex("idx", "k")
        keys = list(range(2000))
        random.Random(7).shuffle(keys)
        for key in keys:
            index.insert(key, key * 10)
        assert len(index) == 2000
        assert index.lookup(1234) == {12340}
        assert index.lookup(99999) == set()
        assert index.statistics()["depth"] >= 2  # splits actually happened

    def test_items_sorted(self):
        index = BPlusTreeIndex("idx", "k")
        for key in [5, 1, 9, 3, 7]:
            index.insert(key, key)
        assert [key for key, _ in index.items()] == [1, 3, 5, 7, 9]

    def test_range_half_open_and_bounded(self):
        index = BPlusTreeIndex("idx", "k")
        for key in range(100):
            index.insert(key, key)
        assert index.range(low=95) == {95, 96, 97, 98, 99}
        assert index.range(low=95, include_low=False) == {96, 97, 98, 99}
        assert index.range(high=3) == {0, 1, 2, 3}
        assert index.range(low=10, high=12) == {10, 11, 12}
        assert index.range() == set(range(100))

    def test_duplicates_and_delete(self):
        index = BPlusTreeIndex("idx", "k")
        index.insert("a", 1)
        index.insert("a", 2)
        index.insert("b", 3)
        assert index.lookup("a") == {1, 2}
        index.delete("a", 1)
        assert index.lookup("a") == {2}
        index.delete("a", 2)
        assert index.lookup("a") == set()
        assert index.lookup("b") == {3}

    def test_delete_survives_bulk(self):
        index = BPlusTreeIndex("idx", "k")
        for key in range(500):
            index.insert(key, key)
        for key in range(0, 500, 2):
            index.delete(key, key)
        assert len(index) == 250
        assert index.range(low=0, high=10) == {1, 3, 5, 7, 9}

    def test_nulls_not_indexed(self):
        index = BPlusTreeIndex("idx", "k")
        index.insert(None, 1)
        assert len(index) == 0
        assert index.lookup(None) == set()


# (insert?, key, row id) steps over few distinct keys and row ids, so a
# sequence repeats both and its deletes empty whole leaves of an order-4
# tree; None is a NULL key. Sixty steps or more grow most trees to two or
# three levels.
_MODEL_KEYS = st.one_of(st.none(), st.integers(0, 24))
_MODEL_STEPS = st.lists(
    st.tuples(st.booleans(), _MODEL_KEYS, st.integers(0, 5)), min_size=60, max_size=150
)
_MODEL_BOUND = st.one_of(st.none(), st.integers(-1, 26))


class TestBPlusTreeModel:
    """The one ordered index against a dict-of-sets model.

    After every step: ``lookup`` of every key, ``range`` under every
    open/closed combination of open, half-open and drawn bounds,
    ``items()``, ``len()`` and the entry and distinct-key counts of
    ``statistics()``."""

    @staticmethod
    def _check(index, model, bounds):
        entries = sorted((key, rowid) for key, rowids in model.items() for rowid in rowids)
        assert list(index.items()) == entries
        assert len(index) == len(entries)
        stats = index.statistics()
        assert (stats["entries"], stats["distinct_keys"]) == (len(entries), len(model))
        for key in range(-1, 26):
            assert index.lookup(key) == model.get(key, set())
        assert index.lookup(None) == set()
        for low, high in bounds:
            for include_low in (True, False):
                for include_high in (True, False):
                    expected = set()
                    for key, rowids in model.items():
                        if low is not None and (key < low or (key == low and not include_low)):
                            continue
                        if high is not None and (
                            key > high or (key == high and not include_high)
                        ):
                            continue
                        expected |= rowids
                    assert index.range(low, high, include_low, include_high) == expected, (
                        low, high, include_low, include_high,
                    )

    @given(_MODEL_STEPS, _MODEL_BOUND, _MODEL_BOUND)
    @settings(max_examples=80, deadline=None)
    def test_matches_model_after_every_step(self, steps, low, high):
        bounds = [(None, None), (low, None), (None, high), (low, high)]
        index = BPlusTreeIndex("idx", "k", order=4)
        model = {}
        for insert, key, rowid in steps:
            if insert:
                index.insert(key, rowid)
                if key is not None:
                    model.setdefault(key, set()).add(rowid)
            else:
                index.delete(key, rowid)
                if key in model:
                    model[key].discard(rowid)
                    if not model[key]:
                        del model[key]
            self._check(index, model, bounds)

    def test_deletes_empty_a_leaf(self):
        index = BPlusTreeIndex("idx", "k", order=4)
        for key in range(20):
            index.insert(key, key)
        assert index.depth >= 2
        # Ascending inserts leave two keys per leaf: keys 4-7 fill two
        # whole leaves, which these deletes empty, and 6 lands in one.
        for key in range(4, 9):
            index.delete(key, key)
        model = {key: {key} for key in range(20) if not 4 <= key < 9}
        edges = [None, 3, 4, 6, 8, 9]
        bounds = [(low, high) for low in edges for high in edges]
        self._check(index, model, bounds)
        index.insert(6, 60)
        self._check(index, {**model, 6: {60}}, bounds)


class TestRTree:
    @staticmethod
    def _brute(points, x_low, x_high, y_low, y_high):
        return {
            rowid
            for rowid, (x, y) in points.items()
            if x_low <= x <= x_high and y_low <= y <= y_high
        }

    def test_box_matches_brute_force(self):
        rng = random.Random(11)
        index = RTreeIndex("idx", ("lat", "lon"))
        points = {}
        for rowid in range(600):
            point = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            points[rowid] = point
            index.insert(point, rowid)
        for _ in range(25):
            x_low = rng.uniform(-90, 60)
            y_low = rng.uniform(-180, 120)
            x_high, y_high = x_low + 30, y_low + 60
            assert index.box(x_low, x_high, y_low, y_high) == self._brute(
                points, x_low, x_high, y_low, y_high
            )

    def test_open_bounds(self):
        index = RTreeIndex("idx", ("x", "y"))
        index.insert((1.0, 1.0), 1)
        index.insert((5.0, 5.0), 2)
        assert index.box(None, None, None, None) == {1, 2}
        assert index.box(2.0, None, None, None) == {2}

    def test_delete_then_query(self):
        rng = random.Random(3)
        index = RTreeIndex("idx", ("x", "y"))
        points = {i: (rng.uniform(0, 100), rng.uniform(0, 100)) for i in range(300)}
        for rowid, point in points.items():
            index.insert(point, rowid)
        for rowid in list(points)[:150]:
            index.delete(points.pop(rowid), rowid)
        assert index.box(0, 100, 0, 100) == set(points)
        stats = index.statistics()
        assert stats["entries"] == 150


class TestIndexMaintenance:
    """Every index kind stays consistent under INSERT/UPDATE/DELETE."""

    @pytest.fixture(params=["btree", "hash"])
    def db(self, request):
        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        database.execute(f"CREATE INDEX idx_v ON t(v) USING {request.param}")
        for i in range(200):
            database.execute(f"INSERT INTO t (id, v) VALUES ({i}, {i % 20})")
        return database

    def test_insert_visible(self, db):
        db.execute("INSERT INTO t (id, v) VALUES (1000, 5)")
        rows = db.execute("SELECT id FROM t WHERE v = 5").rows
        assert (1000,) in rows and len(rows) == 11

    def test_delete_invisible(self, db):
        db.execute("DELETE FROM t WHERE v = 7")
        assert db.execute("SELECT id FROM t WHERE v = 7").rows == []
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 190

    def test_update_moves_entry(self, db):
        db.execute("UPDATE t SET v = 99 WHERE id = 3")
        assert db.execute("SELECT id FROM t WHERE v = 99").rows == [(3,)]
        assert (3,) not in db.execute("SELECT id FROM t WHERE v = 3").rows

    def test_rtree_maintenance(self):
        database = Database()
        database.execute("CREATE TABLE g (id INTEGER PRIMARY KEY, lat REAL, lon REAL)")
        database.execute("CREATE INDEX idx_geo ON g(lat, lon) USING rtree")
        for i in range(50):
            database.execute(
                f"INSERT INTO g (id, lat, lon) VALUES ({i}, {float(i)}, {float(i)})"
            )
        box = "lat >= 10.0 AND lat <= 12.0 AND lon >= 0.0 AND lon <= 90.0"
        assert database.execute(f"SELECT id FROM g WHERE {box}").rows == [
            (10,), (11,), (12,),
        ]
        database.execute("UPDATE g SET lat = 11.5 WHERE id = 40")
        database.execute("DELETE FROM g WHERE id = 11")
        assert database.execute(f"SELECT id FROM g WHERE {box}").rows == [
            (10,), (12,), (40,),
        ]

    def test_rtree_requires_two_columns(self):
        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL)")
        with pytest.raises(CatalogError):
            database.execute("CREATE INDEX idx ON t(v) USING rtree")

    def test_btree_requires_one_column(self):
        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a REAL, b REAL)")
        with pytest.raises(CatalogError):
            database.execute("CREATE INDEX idx ON t(a, b) USING btree")

    def test_unknown_kind_rejected(self):
        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL)")
        for kind in ("bitmap", "sorted"):
            with pytest.raises(CatalogError, match=f"unknown index kind '{kind}'"):
                database.execute(f"CREATE INDEX idx ON t(v) USING {kind}")


class TestCatalog:
    def test_stats_refresh_on_version(self):
        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        table = database.table("t")
        database.execute("INSERT INTO t (id, v) VALUES (1, 10)")
        stats = database.catalog.stats(table)
        assert stats.row_count == 1
        assert database.catalog.stats(table) is stats  # cached: same version
        database.execute("INSERT INTO t (id, v) VALUES (2, 20)")
        fresh = database.catalog.stats(table)
        assert fresh is not stats and fresh.row_count == 2

    def test_statistics_collected_only_for_an_index_path(self, monkeypatch):
        import repro.relational.planner as planner

        smr = SensorMetadataRepository()
        for i in range(4):
            smr.register("sensor", f"Sensor:S{i}", [("name", f"s{i}"), ("accuracy", 0.1 * i)])
        collected = []
        collect = planner.collect_stats
        monkeypatch.setattr(
            planner, "collect_stats", lambda table: collected.append(table) or collect(table)
        )
        smr.register("sensor", "Sensor:S4", [("name", "s4"), ("accuracy", 0.4)])
        explain = "EXPLAIN SELECT title FROM sensor WHERE accuracy < 0.25"
        assert smr.sql(explain).rows[0][0] == "SeqScan(sensor) [rows=5.0 cost=5.00]"
        assert len(smr.sql("SELECT title FROM sensor WHERE accuracy < 0.25")) == 3
        assert collected == []  # no index covers accuracy: priced from len(table)
        smr.db.execute("CREATE INDEX idx_accuracy ON sensor(accuracy) USING btree")
        smr.register("sensor", "Sensor:S5", [("name", "s5"), ("accuracy", 0.5)])
        assert len(smr.sql("SELECT title FROM sensor WHERE accuracy < 0.25")) == 3
        assert smr.sql(explain).rows[0][0] == "SeqScan(sensor) [rows=6.0 cost=6.00]"
        assert len(collected) == 1  # priced the B+-tree once after the write, then cached

    def test_snapshot_includes_index_structure(self):
        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        database.execute("CREATE INDEX idx_v ON t(v) USING btree")
        for i in range(10):
            database.execute(f"INSERT INTO t (id, v) VALUES ({i}, {i})")
        snapshot = database.catalog_stats()
        table_stats = snapshot["t"]
        assert table_stats["row_count"] == 10
        assert "idx_v" in table_stats["indexes"]
        btree = table_stats["indexes"]["idx_v"]
        assert btree["kind"] == "btree" and "depth" in btree
        assert btree["columns"] == ["v"]


class TestExplainGoldens:
    """One golden EXPLAIN line per access path the planner can choose."""

    @pytest.fixture
    def db(self):
        database = Database()
        database.execute(
            "CREATE TABLE s (id INTEGER PRIMARY KEY, v REAL, tag TEXT, "
            "lat REAL, lon REAL)"
        )
        database.execute("CREATE INDEX idx_v ON s(v) USING btree")
        database.execute("CREATE INDEX idx_tag ON s(tag) USING hash")
        database.execute("CREATE INDEX idx_geo ON s(lat, lon) USING rtree")
        for i in range(128):
            database.execute(
                f"INSERT INTO s (id, v, tag, lat, lon) VALUES "
                f"({i}, {float(i)}, 't{i % 32}', {float(i % 90)}, {float(i % 180)})"
            )
        return database

    def _first_line(self, db, where):
        rows = db.execute(f"EXPLAIN SELECT * FROM s WHERE {where}").rows
        return rows[0][0]

    def test_index_eq_golden(self, db):
        line = self._first_line(db, "tag = 't3'")
        assert line.startswith("IndexScan(s.tag = 't3' via idx_tag)")
        assert "cost=" in line and "rows=" in line

    def test_range_golden(self, db):
        line = self._first_line(db, "v >= 120.0")
        assert line.startswith("RangeIndexScan(s: v >= 120.0 via idx_v)")

    def test_between_merges_bounds(self, db):
        line = self._first_line(db, "v BETWEEN 10.0 AND 12.0")
        assert line.startswith("RangeIndexScan(s: v >= 10.0 AND v <= 12.0 via idx_v)")

    def test_rtree_golden(self, db):
        line = self._first_line(
            db, "lat >= 10.0 AND lat <= 12.0 AND lon >= 0.0 AND lon <= 20.0"
        )
        assert line.startswith("RTreeProbe(s:")
        assert "via idx_geo" in line

    def test_negative_literal_extracted(self, db):
        line = self._first_line(
            db, "lat >= -10.0 AND lat <= 12.0 AND lon >= -20.0 AND lon <= 20.0"
        )
        assert "lat >= -10.0" in line and "lon >= -20.0" in line

    def test_seq_when_unselective(self, db):
        assert self._first_line(db, "v > -1.0").startswith("SeqScan(s)")

    def test_seq_without_predicate(self, db):
        rows = db.execute("EXPLAIN SELECT * FROM s").rows
        assert rows[0][0].startswith("SeqScan(s)")

    @pytest.mark.parametrize("where", ["v = 'x'", "v >= 'abc'", "tag = 3"])
    def test_mistyped_literal_keeps_seq(self, db, where):
        assert self._first_line(db, where).startswith("SeqScan(s)")

    def test_mistyped_bound_stays_out_of_the_merge(self, db):
        line = self._first_line(db, "v >= 'abc' AND v >= 120.0")
        assert line.startswith("RangeIndexScan(s: v >= 120.0 via idx_v)")

    def test_mistyped_literal_answers_like_the_scan(self, db):
        assert db.execute("SELECT id FROM s WHERE v = 'x'").rows == []
        with pytest.raises(RelationalError, match="cannot compare 0.0 >= 'abc'"):
            db.execute("SELECT id FROM s WHERE v >= 'abc'")
        with pytest.raises(RelationalError, match="cannot compare 't0' < 3"):
            db.execute("SELECT id FROM s WHERE tag < 3")


class TestEngineSpatialIndex:
    @staticmethod
    def _smr(n=40):
        smr = SensorMetadataRepository()
        for i in range(n):
            smr.register(
                "station",
                f"Station:S{i}",
                [
                    ("name", f"S{i}"),
                    ("latitude", 40.0 + (i % 20) * 0.5),
                    ("longitude", 5.0 + (i % 10) * 0.5),
                ],
            )
        return smr

    def test_probe_matches_fallback_scan(self):
        from repro.core import AdvancedSearchEngine

        smr = self._smr()
        engine = AdvancedSearchEngine(smr, cache=None)
        query = engine.parse("bbox=41,5,45,8 limit=0")
        scanned = {
            title for title, point in smr.locations().items() if query.bbox.contains(point)
        }
        assert scanned
        assert {r.title for r in engine.search(query)} == scanned

    def test_stale_generation_invalidation(self):
        from repro.core import AdvancedSearchEngine

        smr = self._smr()
        engine = AdvancedSearchEngine(smr, cache=None)
        query = engine.parse("bbox=41,5,45,8")
        before = {r.title for r in engine.search(query)}
        smr.register(
            "station",
            "Station:LATE",
            [("name", "LATE"), ("latitude", 42.0), ("longitude", 6.0)],
        )
        after = {r.title for r in engine.search(query)}
        assert "Station:LATE" in after and "Station:LATE" not in before
        # The other direction: an edit moves the page out of the box.
        smr.register(
            "station",
            "Station:LATE",
            [("name", "LATE"), ("latitude", -60.0), ("longitude", 6.0)],
        )
        assert "Station:LATE" not in {r.title for r in engine.search(query)}

    def test_memo_hit_reparses_nothing(self, monkeypatch):
        import repro.smr.repository as repository
        from repro.core import AdvancedSearchEngine

        smr = self._smr()
        engine = AdvancedSearchEngine(smr, cache=None)
        query = engine.parse("bbox=41,5,45,8")
        calls = []
        original = repository.parse_location

        def counting(annotations):
            calls.append(annotations)
            return original(annotations)

        monkeypatch.setattr(repository, "parse_location", counting)
        engine.search(query)
        assert calls == []  # a search parses no location
        smr.register(
            "station", "Station:S3", [("name", "S3"), ("latitude", 42.0), ("longitude", 6.0)]
        )
        assert len(calls) == 1  # a write parses its own page, once
        engine.search(query)
        assert len(calls) == 1

    def test_spatial_index_info(self):
        from repro.core import AdvancedSearchEngine

        smr = self._smr()
        engine = AdvancedSearchEngine(smr, cache=None)
        info = engine.spatial_index_info()
        assert info["generation"] == info["current_generation"] == smr.mutation_count
        assert info["kind"] == "rtree" and info["entries"] == 40
        smr.register("station", "Station:S0", [("name", "S0"), ("latitude", 95.0)])
        info = engine.spatial_index_info()
        assert info["generation"] == info["current_generation"] == smr.mutation_count
        assert info["entries"] == 39  # the edit unlocated one page

    def test_explain_search_strategies(self):
        from repro.core import AdvancedSearchEngine

        smr = self._smr()
        engine = AdvancedSearchEngine(smr, cache=None)
        plan = engine.explain_search(
            engine.parse("keyword=S1 kind=station name=S3 bbox=41,5,45,8")
        )
        strategies = [c["strategy"] for c in plan["constraints"]]
        assert strategies == [
            "InvertedIndexScan",
            "KindTitleLookup",
            "SqlFilter",
            "RTreeProbe",
        ]
        sql_tables = plan["constraints"][2]["tables"]
        assert any("plan" in entry for entry in sql_tables)
