"""Cost-based access-path planning over catalog statistics.

The paper's advanced search translates every property constraint into a
SQL predicate; which *access path* answers that predicate decides
whether a query over a large sensor-metadata corpus touches four rows or
four hundred thousand. This module is the decision procedure:

- :class:`Catalog` keeps per-table, per-column statistics — row count,
  NDV, min/max and an equi-width *histogram-lite* for numeric columns —
  collected in one scan and refreshed lazily whenever the table's
  mutation ``version`` moves;
- a small cost model prices ``SeqScan`` against ``IndexScan`` (equality),
  ``RangeIndexScan`` and ``RTreeProbe`` per WHERE conjunct, charging a
  per-row scan cost for sequential reads and a probe-plus-fetch cost for
  index reads (random fetches are priced higher than sequential ones,
  so an unselective index loses to the scan it would shadow);
- :class:`Planner` enumerates the candidate paths a statement's
  top-level AND conjuncts admit, estimates each one's selectivity, and
  returns the cheapest as an :class:`AccessPlan` whose ``describe()``
  is the first line of ``EXPLAIN`` output (with estimated rows/cost).

Invariants:

- **Superset, never subset.** Every path returns a *superset* of the
  matching rows and the executor re-applies the full WHERE filter, so a
  planning mistake can cost time but never correctness — the property
  the indexed/unindexed differential tests in
  ``tests/test_sql_differential.py`` pin down.
- **Typed literals only.** An index path takes a literal of the
  column's declared type (:func:`typed_literal`); any other literal
  keeps the SeqScan, whose answer — rows or a ``RelationalError`` — is
  the result.
- **Three-valued NULL handling.** Statistics separate ``non_null`` from
  ``nulls`` per column; selectivity estimates scale by the non-NULL
  fraction because under SQL's 3VL *no* comparison predicate matches a
  NULL — an index probe may therefore skip NULL rows, which is exactly
  what re-filtering would do anyway, and a histogram never buckets
  NULLs.
- **Version-gated staleness.** The catalog refreshes a table's
  statistics lazily when its mutation ``version`` moves, and the planner
  asks for them only to price an index path: a SeqScan is priced from
  the live row count, so a filter no index covers collects nothing.
  Estimates may lag a write, plans may be momentarily suboptimal, but
  the superset rule above keeps results exact regardless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.relational.expr import Between, BinaryOp, ColumnRef, Expr, Literal, UnaryOp
from repro.relational.schema import TableSchema
from repro.relational.types import DataType

# ----------------------------------------------------------------------
# Cost model constants
# ----------------------------------------------------------------------

#: Examining one row during a sequential scan (read + predicate eval).
SEQ_ROW_COST = 1.0
#: Fetching one row by id out of an index result (random access +
#: rowid-sort overhead) — deliberately above SEQ_ROW_COST so an index
#: that matches most of the table prices worse than scanning it.
ROW_FETCH_COST = 2.0
#: Descending one level of a tree-shaped index.
LEVEL_COST = 0.5
#: One hash-directory probe.
HASH_PROBE_COST = 1.0
#: Selectivity guesses for range predicates on columns without numeric
#: statistics (e.g. TEXT): one bounded side / both sides bounded.
DEFAULT_HALF_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_RANGE_SELECTIVITY = 1.0 / 6.0
#: Equi-width histogram resolution ("histogram-lite").
HISTOGRAM_BUCKETS = 8


# ----------------------------------------------------------------------
# Access paths (execution-facing; EXPLAIN renders them)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AccessPath:
    """How the base table will be read.

    ``kind`` is 'seq' (full scan), 'index_eq' (equality lookup),
    'index_range' (ordered-index range scan) or 'rtree' (2-D box probe
    over the ``column``/``column2`` pair).
    """

    kind: str
    column: Optional[str] = None
    value: Any = None
    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True
    # R-tree box probes only:
    column2: Optional[str] = None
    x_low: Optional[float] = None
    x_high: Optional[float] = None
    y_low: Optional[float] = None
    y_high: Optional[float] = None
    #: The index the planner chose (None for a sequential scan).
    index_name: Optional[str] = None

    def describe(self, table: str) -> str:
        """EXPLAIN line for this access path over ``table``."""
        via = f" via {self.index_name}" if self.index_name else ""
        if self.kind == "seq":
            return f"SeqScan({table})"
        if self.kind == "index_eq":
            return f"IndexScan({table}.{self.column} = {self.value!r}{via})"
        if self.kind == "rtree":
            bounds = _bound_text(self.column, self.x_low, self.x_high) + _bound_text(
                self.column2, self.y_low, self.y_high
            )
            return f"RTreeProbe({table}: {' AND '.join(bounds)}{via})"
        low_op = ">=" if self.include_low else ">"
        high_op = "<=" if self.include_high else "<"
        bounds = []
        if self.low is not None:
            bounds.append(f"{self.column} {low_op} {self.low!r}")
        if self.high is not None:
            bounds.append(f"{self.column} {high_op} {self.high!r}")
        return f"RangeIndexScan({table}: {' AND '.join(bounds)}{via})"


def _bound_text(column: Optional[str], low: Optional[float], high: Optional[float]) -> List[str]:
    parts = []
    if low is not None:
        parts.append(f"{column} >= {low!r}")
    if high is not None:
        parts.append(f"{column} <= {high!r}")
    return parts


@dataclass(frozen=True)
class AccessPlan:
    """A costed access path: what EXPLAIN prints and the executor runs."""

    path: AccessPath
    cost: float
    rows: float  # estimated rows the access path returns (pre-filter)

    def describe(self, table: str) -> str:
        """The access-path EXPLAIN line annotated with estimates."""
        return f"{self.path.describe(table)} [rows={self.rows:.1f} cost={self.cost:.2f}]"


# ----------------------------------------------------------------------
# Catalog statistics
# ----------------------------------------------------------------------


@dataclass
class ColumnStats:
    """One column's statistics snapshot."""

    non_null: int = 0
    nulls: int = 0
    ndv: int = 0
    min_value: Any = None
    max_value: Any = None
    #: Equi-width (low, high, count) buckets; numeric columns only.
    histogram: List[Tuple[float, float, int]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form for the /api/stats catalog snapshot."""
        return {
            "non_null": self.non_null,
            "nulls": self.nulls,
            "ndv": self.ndv,
            "min": self.min_value,
            "max": self.max_value,
            "histogram": [list(bucket) for bucket in self.histogram],
        }


@dataclass
class TableStats:
    """Statistics for one table at one mutation version."""

    row_count: int
    version: int
    columns: Dict[str, ColumnStats]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form for the /api/stats catalog snapshot."""
        return {
            "row_count": self.row_count,
            "version": self.version,
            "columns": {name: stats.as_dict() for name, stats in self.columns.items()},
        }


def collect_stats(table) -> TableStats:
    """One-pass statistics collection over ``table``'s live rows."""
    names = table.schema.column_names
    values: List[List[Any]] = [[] for _ in names]
    nulls = [0] * len(names)
    rows = 0
    for _, row in table.scan():
        rows += 1
        for position, value in enumerate(row):
            if value is None:
                nulls[position] += 1
            else:
                values[position].append(value)
    columns: Dict[str, ColumnStats] = {}
    for position, name in enumerate(names):
        seen = values[position]
        stats = ColumnStats(non_null=len(seen), nulls=nulls[position])
        if seen:
            stats.ndv = len(set(seen))
            numeric = [v for v in seen if isinstance(v, (int, float)) and not isinstance(v, bool)]
            if len(numeric) == len(seen):
                stats.min_value = min(numeric)
                stats.max_value = max(numeric)
                stats.histogram = _build_histogram(numeric)
            else:
                try:
                    stats.min_value = min(seen)
                    stats.max_value = max(seen)
                except TypeError:
                    pass  # mixed-type column: no ordering statistics
        columns[name] = stats
    return TableStats(row_count=rows, version=table.version, columns=columns)


def _build_histogram(values: List[float]) -> List[Tuple[float, float, int]]:
    low, high = float(min(values)), float(max(values))
    if low == high:
        return [(low, high, len(values))]
    width = (high - low) / HISTOGRAM_BUCKETS
    counts = [0] * HISTOGRAM_BUCKETS
    for value in values:
        bucket = min(int((float(value) - low) / width), HISTOGRAM_BUCKETS - 1)
        counts[bucket] += 1
    return [
        (low + i * width, low + (i + 1) * width, counts[i])
        for i in range(HISTOGRAM_BUCKETS)
    ]


class Catalog:
    """Per-table statistics, refreshed lazily on table mutation.

    Tables carry a monotone ``version`` counter (bumped by every insert,
    delete, update, rollback replay and schema change); a cached
    :class:`TableStats` whose version matches is served as-is, so the
    planner costs nothing on a read-only workload and re-scans a table
    at most once per write burst, and only when an index path is priced.
    """

    def __init__(self, tables: Dict[str, Any]):
        self._tables = tables  # shared with the Database catalog
        self._cache: Dict[str, Tuple[Any, TableStats]] = {}

    def stats(self, table) -> TableStats:
        """Current statistics for ``table``, re-collected when stale."""
        name = table.schema.name
        cached = self._cache.get(name)
        if cached is not None and cached[0] is table and cached[1].version == table.version:
            return cached[1]
        stats = collect_stats(table)
        self._cache[name] = (table, stats)
        return stats

    def snapshot(self) -> Dict[str, Any]:
        """Catalog statistics + per-index structure stats for /api/stats."""
        report: Dict[str, Any] = {}
        for name in sorted(self._tables):
            table = self._tables[name]
            entry = self.stats(table).as_dict()
            entry["indexes"] = table.index_statistics()
            report[name] = entry
        return report


# ----------------------------------------------------------------------
# Predicate extraction (top-level AND conjuncts only)
# ----------------------------------------------------------------------


_MISSING = object()


def literal_value(expr: Expr) -> Any:
    """The constant an expression denotes, or ``_MISSING``.

    Accepts :class:`Literal` and the parser's spelling of negative
    numbers, ``UnaryOp('-', Literal)`` — without this, ``lon >= -20``
    would never match an extractable bound.
    """
    if isinstance(expr, Literal):
        return expr.value
    if (
        isinstance(expr, UnaryOp)
        and expr.op == "-"
        and isinstance(expr.operand, Literal)
        and isinstance(expr.operand.value, (int, float))
        and not isinstance(expr.operand.value, bool)
    ):
        return -expr.operand.value
    return _MISSING


def conjuncts(expr: Expr) -> List[Expr]:
    """Flatten top-level ANDs; predicates under OR cannot restrict a scan."""
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def typed_literal(schema: TableSchema, column: str, value: Any) -> bool:
    """Whether an index path may take ``column <op> value``.

    The column must exist and ``value`` must be a literal of its declared
    type (any number for INTEGER and REAL). An ordered index bisects its
    keys with the literal, so a literal of another type would raise a bare
    ``TypeError`` inside the probe, where the scan matches no row (``=``)
    or raises :class:`~repro.errors.RelationalError` (``<``, ``>=``...).
    Such a predicate keeps the SeqScan, and the SeqScan's answer is the
    result.
    """
    if value is None or not schema.has_column(column):
        return False
    dtype = schema.column(column).dtype
    if dtype is DataType.TEXT:
        return isinstance(value, str)
    if dtype is DataType.BOOLEAN:
        return isinstance(value, bool)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def equality_on_alias(expr: Expr, alias: str) -> Optional[Tuple[str, Any]]:
    """Match ``col = literal`` (either side) where col belongs to ``alias``."""
    if not (isinstance(expr, BinaryOp) and expr.op == "="):
        return None
    left, right = expr.left, expr.right
    if isinstance(right, ColumnRef) and not isinstance(left, ColumnRef):
        left, right = right, left
    if isinstance(left, ColumnRef) and not isinstance(right, ColumnRef):
        value = literal_value(right)
        if value is _MISSING:
            return None
        if left.table is None or left.table == alias.lower():
            return left.name, value
    return None


def range_on_alias(expr: Expr, alias: str) -> Optional[Tuple[str, str, Any]]:
    """Match ``col <op> literal`` (either side) for range operators."""
    if not isinstance(expr, BinaryOp) or expr.op not in ("<", "<=", ">", ">="):
        return None
    left, right = expr.left, expr.right
    op = expr.op
    if isinstance(right, ColumnRef) and not isinstance(left, ColumnRef):
        # Flip `literal < col` into `col > literal`.
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        left, right, op = right, left, flipped[op]
    if isinstance(left, ColumnRef) and not isinstance(right, ColumnRef):
        value = literal_value(right)
        if value is _MISSING:
            return None
        if left.table is None or left.table == alias.lower():
            return left.name, op, value
    return None


@dataclass
class _Bounds:
    """Merged range bounds for one column across all conjuncts."""

    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    def tighten_low(self, value: Any, inclusive: bool) -> None:
        if self.low is None or value > self.low or (value == self.low and not inclusive):
            self.low, self.include_low = value, inclusive

    def tighten_high(self, value: Any, inclusive: bool) -> None:
        if self.high is None or value < self.high or (value == self.high and not inclusive):
            self.high, self.include_high = value, inclusive


def collect_bounds(
    where: Optional[Expr], alias: str, schema: TableSchema
) -> Dict[str, _Bounds]:
    """Per-column merged bounds from the statement's AND conjuncts.

    ``v > 1 AND v <= 5 AND 2 <= v`` merges into one ``(2, 5]`` interval;
    ``BETWEEN`` contributes both bounds at once. A bound that fails
    :func:`typed_literal` against ``schema`` contributes nothing.
    """
    bounds: Dict[str, _Bounds] = {}
    if where is None:
        return bounds
    for conjunct in conjuncts(where):
        if isinstance(conjunct, Between) and not conjunct.negated:
            low = literal_value(conjunct.low)
            high = literal_value(conjunct.high)
            ref = conjunct.operand
            if (
                isinstance(ref, ColumnRef)
                and (ref.table is None or ref.table == alias.lower())
                and typed_literal(schema, ref.name, low)
                and typed_literal(schema, ref.name, high)
            ):
                entry = bounds.setdefault(ref.name.lower(), _Bounds())
                entry.tighten_low(low, True)
                entry.tighten_high(high, True)
            continue
        matched = range_on_alias(conjunct, alias)
        if matched is None:
            continue
        column, op, value = matched
        if not typed_literal(schema, column, value):
            continue
        entry = bounds.setdefault(column.lower(), _Bounds())
        if op in (">", ">="):
            entry.tighten_low(value, op == ">=")
        else:
            entry.tighten_high(value, op == "<=")
    return bounds


# ----------------------------------------------------------------------
# Selectivity estimation
# ----------------------------------------------------------------------


def equality_selectivity(stats: TableStats, column: str) -> float:
    """Fraction of rows matching ``column = <literal>`` (uniform NDV model)."""
    if stats.row_count == 0:
        return 0.0
    column_stats = stats.columns.get(column)
    if column_stats is None or column_stats.ndv == 0:
        return 0.0
    return (column_stats.non_null / stats.row_count) / column_stats.ndv


def range_selectivity(stats: TableStats, column: str, bounds: _Bounds) -> float:
    """Fraction of rows inside ``bounds``, via the histogram when numeric."""
    if stats.row_count == 0:
        return 0.0
    column_stats = stats.columns.get(column)
    if column_stats is None or column_stats.non_null == 0:
        return 0.0
    non_null_fraction = column_stats.non_null / stats.row_count
    if column_stats.histogram and _numeric(bounds.low) and _numeric(bounds.high):
        matched = _histogram_overlap(column_stats.histogram, bounds)
        return non_null_fraction * (matched / column_stats.non_null)
    if bounds.low is not None and bounds.high is not None:
        return non_null_fraction * DEFAULT_RANGE_SELECTIVITY
    return non_null_fraction * DEFAULT_HALF_RANGE_SELECTIVITY


def _numeric(value: Any) -> bool:
    # None means "unbounded on this side", which the histogram handles.
    return value is None or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    )


def _histogram_overlap(histogram: List[Tuple[float, float, int]], bounds: _Bounds) -> float:
    low = -math.inf if bounds.low is None else float(bounds.low)
    high = math.inf if bounds.high is None else float(bounds.high)
    if low > high:
        return 0.0
    matched = 0.0
    for bucket_low, bucket_high, count in histogram:
        if count == 0:
            continue
        if bucket_high == bucket_low:  # degenerate single-value bucket
            if low <= bucket_low <= high:
                matched += count
            continue
        overlap = min(high, bucket_high) - max(low, bucket_low)
        if overlap <= 0:
            continue
        matched += count * min(1.0, overlap / (bucket_high - bucket_low))
    return matched


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------


def probe_cost(index) -> float:
    """Cost of reaching the first matching entry in ``index``."""
    if index.kind == "btree":
        return index.depth * LEVEL_COST
    if index.kind == "rtree":
        # Box probes may descend several overlapping subtrees.
        return index.depth * LEVEL_COST * 2.0
    return HASH_PROBE_COST


class Planner:
    """Chooses the cheapest access path for a base-table scan."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def plan_scan(self, table, alias: str, where: Optional[Expr]) -> AccessPlan:
        """The cheapest access path for scanning ``table`` under ``where``.

        The SeqScan is priced from ``len(table)``, the live row count the
        statistics report. Statistics are fetched only for an index path,
        so a filter no index covers costs no collection after a write.
        """
        rows = len(table)
        candidates = [AccessPlan(AccessPath("seq"), cost=rows * SEQ_ROW_COST, rows=rows)]
        if where is not None and rows > 0:
            candidates.extend(self._equality_plans(table, alias, where))
            bounds = collect_bounds(where, alias, table.schema)
            candidates.extend(self._range_plans(table, bounds))
            candidates.extend(self._rtree_plans(table, bounds))
        # Cheapest wins; ties break toward fewer estimated rows, then
        # toward index paths (seq sorts last via the kind key).
        return min(candidates, key=lambda plan: (plan.cost, plan.rows, plan.path.kind == "seq"))

    # -- candidate enumeration ------------------------------------------

    def _equality_plans(self, table, alias, where) -> List[AccessPlan]:
        plans = []
        for conjunct in conjuncts(where):
            matched = equality_on_alias(conjunct, alias)
            if matched is None:
                continue
            column, value = matched
            if not typed_literal(table.schema, column, value):
                continue
            for index in table.indexes.values():
                if not index.supports_eq or index.columns != (column.lower(),):
                    continue
                stats = self.catalog.stats(table)
                est = equality_selectivity(stats, column.lower()) * stats.row_count
                plans.append(
                    AccessPlan(
                        AccessPath(
                            "index_eq", column=column, value=value, index_name=index.name
                        ),
                        cost=probe_cost(index) + est * ROW_FETCH_COST,
                        rows=est,
                    )
                )
        return plans

    def _range_plans(self, table, bounds) -> List[AccessPlan]:
        plans = []
        for column, interval in bounds.items():
            for index in table.indexes.values():
                if not index.supports_range or index.columns != (column,):
                    continue
                stats = self.catalog.stats(table)
                selectivity = range_selectivity(stats, column, interval)
                est = selectivity * stats.row_count
                plans.append(
                    AccessPlan(
                        AccessPath(
                            "index_range",
                            column=column,
                            low=interval.low,
                            high=interval.high,
                            include_low=interval.include_low,
                            include_high=interval.include_high,
                            index_name=index.name,
                        ),
                        cost=probe_cost(index) + est * ROW_FETCH_COST,
                        rows=est,
                    )
                )
        return plans

    def _rtree_plans(self, table, bounds) -> List[AccessPlan]:
        plans = []
        for index in table.indexes.values():
            if not index.supports_box:
                continue
            column_x, column_y = index.columns
            bounds_x = bounds.get(column_x)
            bounds_y = bounds.get(column_y)
            if bounds_x is None and bounds_y is None:
                continue
            empty = _Bounds()
            bx = bounds_x or empty
            by = bounds_y or empty
            if not all(_numeric(v) for v in (bx.low, bx.high, by.low, by.high)):
                continue
            stats = self.catalog.stats(table)
            sel_x = (
                range_selectivity(stats, column_x, bounds_x) if bounds_x is not None else 1.0
            )
            sel_y = (
                range_selectivity(stats, column_y, bounds_y) if bounds_y is not None else 1.0
            )
            est = sel_x * sel_y * stats.row_count
            plans.append(
                AccessPlan(
                    AccessPath(
                        "rtree",
                        column=column_x,
                        column2=column_y,
                        x_low=bx.low,
                        x_high=bx.high,
                        y_low=by.low,
                        y_high=by.high,
                        index_name=index.name,
                    ),
                    cost=probe_cost(index) + est * ROW_FETCH_COST,
                    rows=est,
                )
            )
        return plans
