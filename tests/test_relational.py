"""Tests for the relational engine: types, schema, storage, SQL end-to-end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CatalogError,
    IntegrityError,
    RelationalError,
    SqlSyntaxError,
)
from repro.relational import Column, Database, DataType, TableSchema
from repro.relational.types import coerce_value


class TestTypes:
    def test_from_name(self):
        assert DataType.from_name("integer") is DataType.INTEGER
        assert DataType.from_name("TEXT") is DataType.TEXT

    def test_unknown_type(self):
        with pytest.raises(IntegrityError):
            DataType.from_name("varchar")

    def test_coerce_none_passthrough(self):
        assert coerce_value(None, DataType.INTEGER) is None

    def test_integer_coercion(self):
        assert coerce_value(5, DataType.INTEGER) == 5
        assert coerce_value(5.0, DataType.INTEGER) == 5
        with pytest.raises(IntegrityError):
            coerce_value(5.5, DataType.INTEGER)
        with pytest.raises(IntegrityError):
            coerce_value("5", DataType.INTEGER)
        with pytest.raises(IntegrityError):
            coerce_value(True, DataType.INTEGER)

    def test_real_coercion(self):
        assert coerce_value(2, DataType.REAL) == 2.0
        assert isinstance(coerce_value(2, DataType.REAL), float)
        with pytest.raises(IntegrityError):
            coerce_value("x", DataType.REAL)

    def test_text_and_boolean(self):
        assert coerce_value("a", DataType.TEXT) == "a"
        assert coerce_value(True, DataType.BOOLEAN) is True
        with pytest.raises(IntegrityError):
            coerce_value(1, DataType.TEXT)
        with pytest.raises(IntegrityError):
            coerce_value(1, DataType.BOOLEAN)


class TestSchema:
    def test_valid_schema(self):
        schema = TableSchema(
            "t", [Column("id", DataType.INTEGER, primary_key=True), Column("x", DataType.TEXT)]
        )
        assert schema.primary_key == "id"
        assert schema.column_names == ["id", "x"]
        assert schema.position("x") == 1

    def test_duplicate_column(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a", DataType.TEXT), Column("a", DataType.TEXT)])

    def test_multiple_primary_keys(self):
        with pytest.raises(CatalogError):
            TableSchema(
                "t",
                [
                    Column("a", DataType.INTEGER, primary_key=True),
                    Column("b", DataType.INTEGER, primary_key=True),
                ],
            )

    def test_invalid_name(self):
        with pytest.raises(CatalogError):
            TableSchema("1bad", [Column("a", DataType.TEXT)])

    def test_empty_columns(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [])

    def test_validate_row_missing_defaults_null(self):
        schema = TableSchema("t", [Column("a", DataType.TEXT), Column("b", DataType.INTEGER)])
        assert schema.validate_row({"a": "x"}) == ("x", None)

    def test_validate_row_not_null(self):
        schema = TableSchema("t", [Column("a", DataType.TEXT, nullable=False)])
        with pytest.raises(IntegrityError):
            schema.validate_row({})

    def test_validate_row_unknown_column(self):
        schema = TableSchema("t", [Column("a", DataType.TEXT)])
        with pytest.raises(CatalogError):
            schema.validate_row({"zzz": 1})


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE stations ("
        "id INTEGER PRIMARY KEY, name TEXT NOT NULL, elev REAL, site TEXT, online BOOLEAN)"
    )
    database.execute(
        "INSERT INTO stations (id, name, elev, site, online) VALUES "
        "(1, 'WAN-001', 2400.0, 'Wannengrat', true),"
        "(2, 'DAV-002', 1560.0, 'Davos', true),"
        "(3, 'ZER-003', NULL, 'Zermatt', false),"
        "(4, 'WAN-004', 2610.0, 'Wannengrat', true)"
    )
    database.execute("CREATE TABLE sensors (id INTEGER PRIMARY KEY, station_id INTEGER, type TEXT)")
    database.execute(
        "INSERT INTO sensors (id, station_id, type) VALUES "
        "(1, 1, 'wind'), (2, 1, 'temp'), (3, 2, 'snow'), (4, 99, 'orphan')"
    )
    return database


class TestDdlAndDml:
    def test_create_duplicate_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE stations (id INTEGER)")

    def test_drop_table(self, db):
        db.execute("DROP TABLE sensors")
        assert not db.has_table("sensors")
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE sensors")
        db.execute("DROP TABLE IF EXISTS sensors")  # silent

    def test_insert_rowcount(self, db):
        result = db.execute("INSERT INTO sensors (id, station_id, type) VALUES (10, 3, 'co2')")
        assert result.rowcount == 1

    def test_insert_duplicate_pk(self, db):
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO stations (id, name) VALUES (1, 'dup')")

    def test_insert_not_null_violation(self, db):
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO stations (id) VALUES (9)")

    def test_insert_type_violation(self, db):
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO stations (id, name) VALUES ('x', 'bad-id')")

    def test_insert_arity_mismatch(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("INSERT INTO stations (id, name) VALUES (1)")

    def test_update_with_expression(self, db):
        count = db.execute("UPDATE stations SET elev = elev + 100 WHERE site = 'Wannengrat'")
        assert count.rowcount == 2
        assert db.execute("SELECT elev FROM stations WHERE id = 1").scalar() == 2500.0

    def test_update_pk_conflict(self, db):
        with pytest.raises(IntegrityError):
            db.execute("UPDATE stations SET id = 2 WHERE id = 1")

    def test_delete(self, db):
        assert db.execute("DELETE FROM sensors WHERE station_id = 1").rowcount == 2
        assert db.execute("SELECT COUNT(*) FROM sensors").scalar() == 2

    def test_delete_all(self, db):
        assert db.execute("DELETE FROM sensors").rowcount == 4


class TestSelectBasics:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM stations WHERE id = 1")
        assert result.columns == ["id", "name", "elev", "site", "online"]
        assert result.first() == (1, "WAN-001", 2400.0, "Wannengrat", True)

    def test_select_without_from(self, db):
        assert db.execute("SELECT 1 + 2 * 3 AS x").scalar() == 7

    def test_projection_alias(self, db):
        result = db.execute("SELECT name AS station_name FROM stations WHERE id = 2")
        assert result.columns == ["station_name"]

    def test_where_comparison(self, db):
        rows = db.execute("SELECT name FROM stations WHERE elev > 2000").rows
        assert {r[0] for r in rows} == {"WAN-001", "WAN-004"}

    def test_where_null_never_matches(self, db):
        assert db.execute("SELECT name FROM stations WHERE elev > 0").rows == [
            ("WAN-001",),
            ("DAV-002",),
            ("WAN-004",),
        ]

    def test_is_null(self, db):
        assert db.execute("SELECT name FROM stations WHERE elev IS NULL").rows == [("ZER-003",)]
        assert len(db.execute("SELECT name FROM stations WHERE elev IS NOT NULL").rows) == 3

    def test_like(self, db):
        rows = db.execute("SELECT name FROM stations WHERE name LIKE 'WAN%'").rows
        assert {r[0] for r in rows} == {"WAN-001", "WAN-004"}

    def test_not_like(self, db):
        rows = db.execute("SELECT name FROM stations WHERE name NOT LIKE 'WAN%'").rows
        assert {r[0] for r in rows} == {"DAV-002", "ZER-003"}

    def test_like_underscore(self, db):
        rows = db.execute("SELECT name FROM stations WHERE name LIKE 'WAN-00_'").rows
        assert {r[0] for r in rows} == {"WAN-001", "WAN-004"}

    def test_in_list(self, db):
        rows = db.execute("SELECT name FROM stations WHERE id IN (1, 3)").rows
        assert {r[0] for r in rows} == {"WAN-001", "ZER-003"}

    def test_not_in(self, db):
        rows = db.execute("SELECT name FROM stations WHERE id NOT IN (1, 2, 3)").rows
        assert rows == [("WAN-004",)]

    def test_between(self, db):
        rows = db.execute("SELECT name FROM stations WHERE elev BETWEEN 1500 AND 2500").rows
        assert {r[0] for r in rows} == {"WAN-001", "DAV-002"}

    def test_boolean_predicate(self, db):
        rows = db.execute("SELECT name FROM stations WHERE online = false").rows
        assert rows == [("ZER-003",)]

    def test_and_or_not(self, db):
        rows = db.execute(
            "SELECT name FROM stations WHERE site = 'Wannengrat' AND elev > 2500 OR id = 2"
        ).rows
        assert {r[0] for r in rows} == {"WAN-004", "DAV-002"}
        rows = db.execute("SELECT name FROM stations WHERE NOT online").rows
        assert rows == [("ZER-003",)]

    def test_string_functions(self, db):
        assert db.execute("SELECT LOWER(name) FROM stations WHERE id=1").scalar() == "wan-001"
        assert db.execute("SELECT UPPER(site) FROM stations WHERE id=2").scalar() == "DAVOS"
        assert db.execute("SELECT LENGTH(name) FROM stations WHERE id=1").scalar() == 7

    def test_concat(self, db):
        value = db.execute("SELECT site || '/' || name FROM stations WHERE id=1").scalar()
        assert value == "Wannengrat/WAN-001"

    def test_division_by_zero_is_null(self, db):
        assert db.execute("SELECT 1 / 0").scalar() is None

    def test_unknown_column_fails(self, db):
        with pytest.raises(RelationalError):
            db.execute("SELECT bogus FROM stations")

    def test_unknown_table_fails(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM nope")


class TestOrderLimitDistinct:
    def test_order_asc_with_nulls_last(self, db):
        rows = db.execute("SELECT name FROM stations ORDER BY elev").rows
        assert rows == [("DAV-002",), ("WAN-001",), ("WAN-004",), ("ZER-003",)]

    def test_order_desc_nulls_first(self, db):
        rows = db.execute("SELECT name FROM stations ORDER BY elev DESC").rows
        assert rows[0] == ("ZER-003",)
        assert rows[1] == ("WAN-004",)

    def test_multi_key_order(self, db):
        rows = db.execute("SELECT name FROM stations ORDER BY site ASC, elev DESC").rows
        assert rows == [("DAV-002",), ("WAN-004",), ("WAN-001",), ("ZER-003",)]

    def test_order_by_unprojected_column(self, db):
        rows = db.execute("SELECT name FROM stations ORDER BY id DESC").rows
        assert rows[0] == ("WAN-004",)

    def test_limit_offset(self, db):
        rows = db.execute("SELECT id FROM stations ORDER BY id LIMIT 2 OFFSET 1").rows
        assert rows == [(2,), (3,)]

    def test_distinct(self, db):
        rows = db.execute("SELECT DISTINCT site FROM stations ORDER BY site").rows
        assert rows == [("Davos",), ("Wannengrat",), ("Zermatt",)]


class TestAggregates:
    def test_count_star_vs_column(self, db):
        assert db.execute("SELECT COUNT(*) FROM stations").scalar() == 4
        assert db.execute("SELECT COUNT(elev) FROM stations").scalar() == 3

    def test_sum_avg_min_max(self, db):
        row = db.execute("SELECT SUM(elev), AVG(elev), MIN(elev), MAX(elev) FROM stations").first()
        assert row[0] == pytest.approx(6570.0)
        assert row[1] == pytest.approx(2190.0)
        assert row[2] == 1560.0
        assert row[3] == 2610.0

    def test_aggregate_on_empty_input(self, db):
        row = db.execute("SELECT COUNT(*), SUM(elev) FROM stations WHERE id > 100").first()
        assert row == (0, None)

    def test_group_by(self, db):
        rows = db.execute(
            "SELECT site, COUNT(*) FROM stations GROUP BY site ORDER BY site"
        ).rows
        assert rows == [("Davos", 1), ("Wannengrat", 2), ("Zermatt", 1)]

    def test_group_by_having(self, db):
        rows = db.execute(
            "SELECT site, COUNT(*) AS n FROM stations GROUP BY site HAVING COUNT(*) > 1"
        ).rows
        assert rows == [("Wannengrat", 2)]

    def test_count_distinct(self, db):
        assert db.execute("SELECT COUNT(DISTINCT site) FROM stations").scalar() == 3

    def test_order_by_aggregate(self, db):
        rows = db.execute(
            "SELECT site, COUNT(*) AS n FROM stations GROUP BY site ORDER BY n DESC, site"
        ).rows
        assert rows[0] == ("Wannengrat", 2)

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT site FROM stations WHERE COUNT(*) > 1")

    def test_nested_aggregate_rejected(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT SUM(COUNT(*)) FROM stations")

    def test_group_key_with_null(self, db):
        rows = db.execute("SELECT elev, COUNT(*) FROM stations GROUP BY elev").rows
        assert (None, 1) in rows


class TestJoins:
    def test_inner_join(self, db):
        rows = db.execute(
            "SELECT s.name, x.type FROM stations s JOIN sensors x ON s.id = x.station_id "
            "ORDER BY s.name, x.type"
        ).rows
        assert rows == [("DAV-002", "snow"), ("WAN-001", "temp"), ("WAN-001", "wind")]

    def test_left_join_null_padding(self, db):
        rows = db.execute(
            "SELECT s.name, x.type FROM stations s LEFT JOIN sensors x ON s.id = x.station_id "
            "WHERE x.type IS NULL ORDER BY s.name"
        ).rows
        assert rows == [("WAN-004", None), ("ZER-003", None)]

    def test_join_with_aggregation(self, db):
        rows = db.execute(
            "SELECT s.site, COUNT(*) AS n FROM stations s JOIN sensors x "
            "ON s.id = x.station_id GROUP BY s.site ORDER BY n DESC"
        ).rows
        assert rows == [("Wannengrat", 2), ("Davos", 1)]

    def test_non_equi_join_falls_back_to_nested_loop(self, db):
        rows = db.execute(
            "SELECT s.name, x.id FROM stations s JOIN sensors x ON x.station_id < s.id "
            "WHERE s.id = 2"
        ).rows
        assert {r[1] for r in rows} == {1, 2}

    def test_three_way_join(self, db):
        db.execute("CREATE TABLE readings (sensor_id INTEGER, value REAL)")
        db.execute("INSERT INTO readings (sensor_id, value) VALUES (1, 3.4), (1, 3.5), (3, 120.0)")
        rows = db.execute(
            "SELECT s.name, AVG(r.value) FROM stations s "
            "JOIN sensors x ON s.id = x.station_id "
            "JOIN readings r ON x.id = r.sensor_id "
            "GROUP BY s.name ORDER BY s.name"
        ).rows
        assert rows == [("DAV-002", 120.0), ("WAN-001", pytest.approx(3.45))]

    def test_ambiguous_column_rejected(self, db):
        with pytest.raises(RelationalError):
            db.execute("SELECT id FROM stations s JOIN sensors x ON s.id = x.station_id")

    def test_qualified_star(self, db):
        result = db.execute(
            "SELECT x.* FROM stations s JOIN sensors x ON s.id = x.station_id WHERE s.id = 2"
        )
        assert result.columns == ["id", "station_id", "type"]
        assert result.rows == [(3, 2, "snow")]


class TestIndexes:
    def test_index_scan_equality(self, db):
        db.execute("CREATE INDEX idx_site ON stations(site)")
        rows = db.execute("SELECT name FROM stations WHERE site = 'Wannengrat' ORDER BY name").rows
        assert rows == [("WAN-001",), ("WAN-004",)]

    def test_index_maintained_on_update_delete(self, db):
        db.execute("CREATE INDEX idx_site ON stations(site)")
        db.execute("UPDATE stations SET site = 'Davos' WHERE id = 1")
        db.execute("DELETE FROM stations WHERE id = 4")
        rows = db.execute("SELECT name FROM stations WHERE site = 'Wannengrat'").rows
        assert rows == []
        rows = db.execute("SELECT name FROM stations WHERE site = 'Davos' ORDER BY name").rows
        assert rows == [("DAV-002",), ("WAN-001",)]

    def test_sorted_index(self, db):
        # The B+-tree is the one ordered index.
        db.execute("CREATE INDEX idx_elev ON stations(elev) USING btree")
        index = db.table("stations").indexes["idx_elev"]
        assert index.kind == "btree"
        assert index.range(low=2000) == index.lookup(2400.0) | index.lookup(2610.0)

    def test_duplicate_index_name(self, db):
        db.execute("CREATE INDEX idx ON stations(site)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX idx ON stations(name)")

    def test_index_on_unknown_column(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX idx2 ON stations(bogus)")

    def test_pk_index_used(self, db):
        # The automatic primary-key index answers equality lookups.
        index = db.table("stations").indexes["stations_pk"]
        assert index.columns == ("id",)
        assert index.lookup(2) != set()

    def test_delete_by_key_drops_one_row_through_the_pk_index(self, db):
        db.execute("CREATE INDEX idx_site ON stations(site)")
        table = db.table("stations")
        assert table.delete_by_key(1) == 1
        assert table.delete_by_key(1) == 0
        assert table.indexes["stations_pk"].lookup(1) == set()
        assert db.execute("SELECT id FROM stations WHERE site = 'Wannengrat'").rows == [(4,)]
        db.execute("CREATE TABLE notes (body TEXT)")
        with pytest.raises(CatalogError):
            db.table("notes").delete_by_key("x")


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELEC * FROM t",
            "SELECT FROM t",
            "SELECT * FROM",
            "INSERT stations VALUES (1)",
            "CREATE TABLE t (a VARCHAR)",
            "SELECT * FROM t WHERE",
            "SELECT 'unterminated",
            "SELECT * FROM t LIMIT 2.5",
            "SELECT AVG(*) FROM t",
            "SELECT a FROM t GROUP BY",
        ],
    )
    def test_rejected(self, db, sql):
        with pytest.raises(SqlSyntaxError):
            db.execute(sql)

    def test_comments_allowed(self, db):
        assert db.execute("SELECT COUNT(*) FROM stations -- trailing comment").scalar() == 4

    def test_trailing_semicolon(self, db):
        assert db.execute("SELECT COUNT(*) FROM stations;").scalar() == 4


class TestResultSet:
    def test_scalar_requires_1x1(self, db):
        with pytest.raises(RelationalError):
            db.execute("SELECT * FROM stations").scalar()

    def test_iteration_and_len(self, db):
        result = db.execute("SELECT id FROM stations")
        assert len(result) == 4
        assert sorted(row[0] for row in result) == [1, 2, 3, 4]

    def test_first_on_empty(self, db):
        assert db.execute("SELECT id FROM stations WHERE id > 99").first() is None


class TestPropertyBased:
    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_sum_and_order_agree_with_python(self, values):
        db = Database()
        db.execute("CREATE TABLE v (i INTEGER PRIMARY KEY, x INTEGER)")
        for i, value in enumerate(values):
            db.execute(f"INSERT INTO v (i, x) VALUES ({i}, {value})")
        assert db.execute("SELECT SUM(x) FROM v").scalar() == sum(values)
        ordered = [row[0] for row in db.execute("SELECT x FROM v ORDER BY x").rows]
        assert ordered == sorted(values)

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_group_counts_agree_with_python(self, labels):
        from collections import Counter

        db = Database()
        db.execute("CREATE TABLE l (i INTEGER PRIMARY KEY, tag TEXT)")
        for i, label in enumerate(labels):
            db.execute(f"INSERT INTO l (i, tag) VALUES ({i}, '{label}')")
        rows = db.execute("SELECT tag, COUNT(*) FROM l GROUP BY tag").rows
        assert dict(rows) == dict(Counter(labels))
