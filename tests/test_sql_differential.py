"""Differential testing: our SQL engine vs. the sqlite3 oracle.

Hypothesis generates random table contents and structured queries from
the dialect subset both engines share; any disagreement on the result
multiset is a bug in our engine (sqlite is the reference).
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Database

COLUMNS = ["a", "b", "tag"]


def make_engines(rows):
    """Load identical data into our engine and sqlite; return both."""
    ours = Database()
    ours.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b REAL, tag TEXT)")
    ref = sqlite3.connect(":memory:")
    ref.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b REAL, tag TEXT)")
    for i, (a, b, tag) in enumerate(rows):
        a_sql = "NULL" if a is None else str(a)
        b_sql = "NULL" if b is None else repr(b)
        tag_sql = "NULL" if tag is None else f"'{tag}'"
        statement = f"INSERT INTO t (id, a, b, tag) VALUES ({i}, {a_sql}, {b_sql}, {tag_sql})"
        ours.execute(statement)
        ref.execute(statement)
    return ours, ref


def normalize(rows):
    """Compare as multisets with float tolerance."""
    def canon(value):
        if isinstance(value, float):
            return round(value, 9)
        return value

    return sorted(
        (tuple(canon(v) for v in row) for row in rows),
        key=lambda r: tuple((v is None, str(type(v)), str(v)) for v in r),
    )


rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-50, 50)),
        st.one_of(st.none(), st.floats(-100, 100, allow_nan=False).map(lambda f: round(f, 3))),
        st.one_of(st.none(), st.sampled_from(["x", "y", "z", "long tag"])),
    ),
    min_size=0,
    max_size=25,
)

comparison = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def mistyped_literal(draw, column):
    """A literal of another type than ``column``'s: text for the numeric
    columns, a number for ``tag``. The text is never numeric-looking, so
    sqlite's affinity rules cannot turn it into a number."""
    if column == "tag":
        return str(draw(st.integers(-50, 50)))
    return f"'{draw(st.sampled_from(['x', 'abc']))}'"


@st.composite
def where_clause(draw, mistyped_order=False):
    """A WHERE clause over ``t``.

    ``mistyped_eq`` compares a column with a literal of another type by
    ``=`` or ``!=``: no row matches ``=`` and both engines agree. With
    ``mistyped_order`` the whole clause may instead be an ordering
    comparison with such a literal, which this engine refuses with a
    ``RelationalError`` on the first non-NULL row it reads. sqlite orders
    values across types instead, so only the indexed/unindexed
    differential asks for it.
    """
    if mistyped_order and draw(st.integers(0, 5)) == 0:
        column = draw(st.sampled_from(COLUMNS))
        op = draw(st.sampled_from(["<", "<=", ">", ">="]))
        return f"{column} {op} {draw(mistyped_literal(column))}"
    kind = draw(
        st.sampled_from(
            [
                "num_cmp", "tag_cmp", "null", "between", "in", "and", "or",
                "not", "column_cmp", "arith_cmp", "concat", "mistyped_eq",
            ]
        )
    )
    if kind == "mistyped_eq":
        column = draw(st.sampled_from(COLUMNS))
        op = draw(st.sampled_from(["=", "!="]))
        return f"{column} {op} {draw(mistyped_literal(column))}"
    if kind == "num_cmp":
        column = draw(st.sampled_from(["a", "b"]))
        op = draw(comparison)
        value = draw(st.integers(-50, 50))
        return f"{column} {op} {value}"
    if kind == "column_cmp":
        left, right = draw(st.permutations(["a", "b"]))
        return f"{left} {draw(comparison)} {right}"
    if kind == "arith_cmp":
        # No '/': sqlite divides integers. '%' takes the dividend's sign in
        # both engines; sqlite casts REAL operands of '%' to integers, so
        # only the INTEGER column a is a dividend, by a divisor that may be
        # negative or zero (NULL).
        arith = draw(st.sampled_from(["+", "-", "*", "%"]))
        operand = draw(st.integers(-3, 3) if arith == "%" else st.integers(1, 3))
        return f"a {arith} {operand} {draw(comparison)} b"
    if kind == "concat":
        return f"tag || 'x' {draw(st.sampled_from(['=', '!=']))} 'xx'"
    if kind == "not":
        return f"NOT ({draw(where_clause())})"
    if kind == "tag_cmp":
        op = draw(st.sampled_from(["=", "!="]))
        value = draw(st.sampled_from(["x", "y", "z"]))
        return f"tag {op} '{value}'"
    if kind == "null":
        column = draw(st.sampled_from(COLUMNS))
        negated = draw(st.booleans())
        return f"{column} IS {'NOT ' if negated else ''}NULL"
    if kind == "between":
        low = draw(st.integers(-50, 0))
        high = draw(st.integers(0, 50))
        negated = "NOT " if draw(st.booleans()) else ""
        return f"a {negated}BETWEEN {low} AND {high}"
    if kind == "in":
        values = draw(st.lists(st.integers(-10, 10), min_size=1, max_size=4))
        negated = "NOT " if draw(st.booleans()) else ""
        return f"a {negated}IN ({', '.join(map(str, values))})"
    left = draw(where_clause())
    right = draw(where_clause())
    joiner = "AND" if kind == "and" else "OR"
    return f"({left}) {joiner} ({right})"


class TestDifferentialSelect:
    @given(rows_strategy, where_clause())
    @settings(max_examples=120, deadline=None)
    def test_where_agrees_with_sqlite(self, rows, clause):
        ours, ref = make_engines(rows)
        query = f"SELECT id FROM t WHERE {clause}"
        mine = normalize(ours.execute(query).rows)
        theirs = normalize(ref.execute(query).fetchall())
        assert mine == theirs, query

    @given(rows_strategy, where_clause())
    @settings(max_examples=60, deadline=None)
    def test_projected_expressions_agree_with_sqlite(self, rows, clause):
        ours, ref = make_engines(rows)
        query = f"SELECT id, a + 1, COALESCE(tag, 'none') FROM t WHERE {clause}"
        mine = normalize(ours.execute(query).rows)
        theirs = normalize(ref.execute(query).fetchall())
        assert mine == theirs, query

    @given(rows_strategy, st.sampled_from(["", " DESC"]))
    @settings(max_examples=60, deadline=None)
    def test_order_by_hidden_column_with_tie_breaker_agrees(self, rows, direction):
        """The sort key is not projected; ``id`` breaks ties, so the
        whole row order is defined and must match sqlite's."""
        ours, ref = make_engines(rows)
        query = f"SELECT id FROM t WHERE a IS NOT NULL ORDER BY a{direction}, id"
        assert ours.execute(query).rows == ref.execute(query).fetchall(), query

    @given(rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_aggregates_agree_with_sqlite(self, rows):
        ours, ref = make_engines(rows)
        query = "SELECT COUNT(*), COUNT(a), SUM(a), MIN(a), MAX(a) FROM t"
        mine = normalize(ours.execute(query).rows)
        theirs = normalize(ref.execute(query).fetchall())
        assert mine == theirs

    @given(rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_group_by_agrees_with_sqlite(self, rows):
        ours, ref = make_engines(rows)
        query = "SELECT tag, COUNT(*) FROM t GROUP BY tag"
        mine = normalize(ours.execute(query).rows)
        theirs = normalize(ref.execute(query).fetchall())
        assert mine == theirs

    @given(rows_strategy, st.sampled_from(["a", "b", "tag"]))
    @settings(max_examples=60, deadline=None)
    def test_order_by_non_null_prefix_agrees(self, rows, column):
        """Ordering of non-NULL values matches sqlite (NULL placement is
        engine-specific: we follow PostgreSQL, sqlite sorts NULLs first)."""
        ours, ref = make_engines(rows)
        query = f"SELECT {column} FROM t WHERE {column} IS NOT NULL ORDER BY {column}"
        mine = [row[0] for row in ours.execute(query).rows]
        theirs = [row[0] for row in ref.execute(query).fetchall()]
        assert mine == pytest.approx(theirs) if column != "tag" else mine == theirs

    @given(rows_strategy, st.integers(0, 10), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_limit_offset_count_agrees(self, rows, limit, offset):
        ours, ref = make_engines(rows)
        query = f"SELECT id FROM t ORDER BY id LIMIT {limit} OFFSET {offset}"
        mine = ours.execute(query).rows
        theirs = ref.execute(query).fetchall()
        assert mine == theirs

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_like_agrees_with_sqlite(self, rows):
        ours, ref = make_engines(rows)
        query = "SELECT id FROM t WHERE tag LIKE '%on%'"
        assert normalize(ours.execute(query).rows) == normalize(ref.execute(query).fetchall())

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_distinct_agrees_with_sqlite(self, rows):
        ours, ref = make_engines(rows)
        query = "SELECT DISTINCT tag FROM t"
        assert normalize(ours.execute(query).rows) == normalize(ref.execute(query).fetchall())

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_self_join_agrees_with_sqlite(self, rows):
        ours, ref = make_engines(rows)
        query = (
            "SELECT x.id, y.id FROM t x JOIN t y ON x.a = y.a WHERE x.id < y.id"
        )
        assert normalize(ours.execute(query).rows) == normalize(ref.execute(query).fetchall())

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_left_join_agrees_with_sqlite(self, rows):
        ours, ref = make_engines(rows)
        query = (
            "SELECT x.id, y.id FROM t x LEFT JOIN t y "
            "ON x.a = y.a AND x.id != y.id"
        )
        # Our parser has no AND in ON; emulate with WHERE-compatible form.
        query = "SELECT x.id, y.id FROM t x LEFT JOIN t y ON x.a = y.a WHERE x.id != y.id OR y.id IS NULL"
        assert normalize(ours.execute(query).rows) == normalize(ref.execute(query).fetchall())

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_having_agrees_with_sqlite(self, rows):
        ours, ref = make_engines(rows)
        query = "SELECT tag, COUNT(*) FROM t GROUP BY tag HAVING COUNT(*) > 1"
        assert normalize(ours.execute(query).rows) == normalize(ref.execute(query).fetchall())

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_in_subquery_agrees_with_sqlite(self, rows):
        ours, ref = make_engines(rows)
        query = "SELECT id FROM t WHERE a IN (SELECT a FROM t WHERE b IS NOT NULL)"
        assert normalize(ours.execute(query).rows) == normalize(ref.execute(query).fetchall())

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_avg_agrees_with_sqlite(self, rows):
        ours, ref = make_engines(rows)
        query = "SELECT AVG(b) FROM t"
        mine = ours.execute(query).scalar()
        theirs = ref.execute(query).fetchone()[0]
        if mine is None or theirs is None:
            assert mine == theirs
        else:
            assert mine == pytest.approx(theirs)

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_update_then_count_agrees(self, rows):
        ours, ref = make_engines(rows)
        for statement in (
            "UPDATE t SET a = a + 1 WHERE a IS NOT NULL AND a < 0",
            "DELETE FROM t WHERE tag = 'x'",
        ):
            ours.execute(statement)
            ref.execute(statement)
        query = "SELECT COUNT(*), SUM(a) FROM t"
        assert normalize(ours.execute(query).rows) == normalize(ref.execute(query).fetchall())


def make_planner_pair(rows):
    """Identical data, one database with every index kind on the
    filterable columns and one with no secondary index at all — the
    physical plans differ maximally, the rows must not differ at all."""
    indexed = Database()
    unindexed = Database()
    ddl = "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b REAL, tag TEXT)"
    indexed.execute(ddl)
    unindexed.execute(ddl)
    indexed.execute("CREATE INDEX idx_a ON t(a) USING btree")
    indexed.execute("CREATE INDEX idx_b ON t(b) USING btree")
    indexed.execute("CREATE INDEX idx_tag ON t(tag) USING hash")
    for i, (a, b, tag) in enumerate(rows):
        a_sql = "NULL" if a is None else str(a)
        b_sql = "NULL" if b is None else repr(b)
        tag_sql = "NULL" if tag is None else f"'{tag}'"
        statement = f"INSERT INTO t (id, a, b, tag) VALUES ({i}, {a_sql}, {b_sql}, {tag_sql})"
        indexed.execute(statement)
        unindexed.execute(statement)
    return indexed, unindexed


def outcome(db, query):
    """What ``query`` gives: its rows, or its error's type and message."""
    try:
        return db.execute(query).rows
    except Exception as exc:  # noqa: BLE001 — the error is the outcome
        return type(exc).__name__, str(exc)


class TestPlannerDifferential:
    """A database with secondary indexes vs one without: byte-identical
    outcomes.

    No ORDER BY is added — the executor's contract is that every access
    path enumerates rowids in ascending order, so even the *row order*
    must match between a SeqScan and an index probe. A clause that
    raises must raise the same error from both."""

    @given(rows_strategy, where_clause(mistyped_order=True))
    @settings(max_examples=120, deadline=None)
    def test_where_rows_identical(self, rows, clause):
        indexed, unindexed = make_planner_pair(rows)
        query = f"SELECT id, a, b, tag FROM t WHERE {clause}"
        assert outcome(indexed, query) == outcome(unindexed, query), query

    @given(rows_strategy, where_clause(mistyped_order=True))
    @settings(max_examples=40, deadline=None)
    def test_rows_identical_after_mutation(self, rows, clause):
        indexed, unindexed = make_planner_pair(rows)
        for statement in (
            "UPDATE t SET a = a + 1, tag = 'y' WHERE a IS NOT NULL AND a < 0",
            "DELETE FROM t WHERE tag = 'x'",
            "UPDATE t SET b = 0.5 WHERE b IS NULL",
        ):
            indexed.execute(statement)
            unindexed.execute(statement)
        query = f"SELECT id, a, b, tag FROM t WHERE {clause}"
        assert outcome(indexed, query) == outcome(unindexed, query), query

    @given(
        st.lists(
            st.tuples(
                st.floats(-90, 90, allow_nan=False).map(lambda f: round(f, 3)),
                st.floats(-180, 180, allow_nan=False).map(lambda f: round(f, 3)),
            ),
            min_size=0,
            max_size=30,
        ),
        st.floats(-90, 90, allow_nan=False).map(lambda f: round(f, 3)),
        st.floats(0, 60, allow_nan=False).map(lambda f: round(f, 3)),
        st.floats(-180, 180, allow_nan=False).map(lambda f: round(f, 3)),
        st.floats(0, 120, allow_nan=False).map(lambda f: round(f, 3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_rtree_bbox_rows_identical(self, points, south, height, west, width):
        indexed = Database()
        unindexed = Database()
        ddl = "CREATE TABLE geo (id INTEGER PRIMARY KEY, lat REAL, lon REAL)"
        indexed.execute(ddl)
        unindexed.execute(ddl)
        indexed.execute("CREATE INDEX idx_geo ON geo(lat, lon) USING rtree")
        for i, (lat, lon) in enumerate(points):
            statement = f"INSERT INTO geo (id, lat, lon) VALUES ({i}, {lat!r}, {lon!r})"
            indexed.execute(statement)
            unindexed.execute(statement)
        north, east = round(south + height, 3), round(west + width, 3)
        query = (
            "SELECT id, lat, lon FROM geo WHERE "
            f"lat >= {south!r} AND lat <= {north!r} AND "
            f"lon >= {west!r} AND lon <= {east!r}"
        )
        assert indexed.execute(query).rows == unindexed.execute(query).rows, query
