"""Query execution for the SQL subset.

SELECT pipelines are built left-deep in statement order:

    base scan (access path chosen by the cost-based planner)
    -> joins (hash join for equi-joins, nested loop otherwise; LEFT
       joins null-pad)
    -> WHERE filter
    -> grouping/aggregation (hash aggregate)
    -> projection (+ DISTINCT)
    -> ORDER BY (stable multi-key, NULLs last ascending)
    -> OFFSET/LIMIT

Rows are flat tuples: a joined row is its tables' rows concatenated in
FROM/JOIN order. Each expression (WHERE, ON, projection, GROUP BY keys,
aggregate arguments, HAVING, ORDER BY keys) is compiled
once per statement by :func:`~repro.relational.expr.compile_expr`, with
column names resolved to tuple positions before the first row is read.
A single-table SELECT without grouping runs scan, WHERE and projection
in one loop, so a scan allocates nothing per row except the output tuple
of a kept row. ORDER BY keys read each output row's source row, which
travels beside it through the sort.

No per-statement state lives on the ``Executor``: readers sharing one
(as ``smr.sql()`` readers do under the read lock) cannot see each
other's rows.

Access-path selection lives in :mod:`repro.relational.planner`; this
module re-exports :class:`AccessPath` for compatibility. Every index
path returns a superset of the matching row ids and the WHERE filter
above re-checks each row, so an indexed table and an unindexed one
always agree on results — only on cost.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import CatalogError, RelationalError
from repro.relational.expr import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    Compiled,
    Expr,
    InList,
    InSubquery,
    Layout,
    Literal,
    Star,
    collect_aggregates,
    compile_expr,
    compile_row,
    rewrite,
)
from repro.relational.planner import AccessPath, Planner
from repro.relational.sql_parser import Join, SelectStmt
from repro.relational.storage import Table

__all__ = ["AccessPath", "Executor"]


def _count_plan(kind: str) -> None:
    """Record the chosen access path in planner_plans_total{access_path}."""
    from repro import obs

    registry = obs.get_registry()
    if not registry.enabled:
        return
    registry.counter(
        "planner_plans_total",
        "Base-table access paths chosen, by kind.",
        labels=("access_path",),
    ).labels(kind).inc()


class Executor:
    """Executes parsed SELECT statements against a table catalog.

    ``planner`` is the cost-based :class:`~repro.relational.planner.Planner`
    that chooses each base-table access path.
    """

    def __init__(self, catalog: Dict[str, Table], planner: Planner):
        self._catalog = catalog
        self._planner = planner

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def select(self, stmt: SelectStmt) -> Tuple[List[str], List[Tuple[Any, ...]]]:
        """Run ``stmt``; returns ``(column_names, rows)``."""
        stmt = self._materialize_subqueries(stmt)
        if stmt.table is None:
            return self._select_without_from(stmt)
        layout = self._layout(stmt)
        named = self._expand_items(stmt, layout)
        columns = [name for name, _ in named]
        rows = self._scan_base(stmt)
        for depth, join in enumerate(stmt.joins, start=1):
            rows = self._apply_join(rows, layout[:depth], join)
        where = compile_expr(stmt.where, layout) if stmt.where is not None else None
        aggregates = self._all_aggregates(stmt)
        if stmt.group_by or aggregates:
            rows = [row for row in rows if where is None or where(row) is True]
            output, sources, source_layout = self._grouped_projection(
                stmt, layout, named, rows, aggregates
            )
        else:
            project = compile_row([expr for _, expr in named], layout)
            source_layout = (layout, ())
            if stmt.order_by:
                # ORDER BY may read columns the projection drops, so each
                # kept row stays beside its output row.
                sources = [row for row in rows if where is None or where(row) is True]
                output = [project(row) for row in sources]
            elif where is None:
                sources, output = None, [project(row) for row in rows]
            else:
                sources, output = None, [project(row) for row in rows if where(row) is True]
        if stmt.distinct:
            unique = _distinct(output)
            if len(unique) != len(output):
                sources = None  # merged rows have no single source row
            output = unique
        if stmt.order_by:
            output = self._order(stmt, columns, output, sources, source_layout)
        output = output[stmt.offset :]
        if stmt.limit is not None:
            output = output[: stmt.limit]
        return columns, output

    # ------------------------------------------------------------------
    # Subqueries
    # ------------------------------------------------------------------

    def resolve_subqueries(self, expr: Expr) -> Expr:
        """Replace every uncorrelated ``IN (SELECT ...)`` with its values.

        The subquery runs once; correlated subqueries (referencing outer
        columns) fail inside the nested select with an unknown-column
        error, which is this engine's documented limitation.
        """

        def transform(node: Expr) -> Expr:
            if isinstance(node, InSubquery):
                _, rows = self.select(node.subquery)
                values = tuple(Literal(row[0]) for row in rows)
                return InList(node.operand, values, node.negated)
            return node

        return rewrite(expr, transform)

    def _materialize_subqueries(self, stmt: SelectStmt) -> SelectStmt:
        from dataclasses import replace as _replace

        changes = {}
        if stmt.where is not None:
            changes["where"] = self.resolve_subqueries(stmt.where)
        if stmt.having is not None:
            changes["having"] = self.resolve_subqueries(stmt.having)
        return _replace(stmt, **changes) if changes else stmt

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------

    def _table(self, name: str) -> Table:
        table = self._catalog.get(name.lower())
        if table is None:
            raise CatalogError(f"unknown table {name!r}")
        return table

    def _layout(self, stmt: SelectStmt) -> List[Tuple[str, List[str]]]:
        """The statement's ``(alias, columns)`` bindings in FROM/JOIN order."""
        refs = [stmt.table, *(join.table for join in stmt.joins)]
        return [(ref.alias, self._table(ref.name).schema.column_names) for ref in refs]

    def _scan_base(self, stmt: SelectStmt) -> Iterable[tuple]:
        """The base table's rows through the chosen access path, in
        ascending row-id order whichever path it is."""
        ref = stmt.table
        table = self._table(ref.name)
        plan = self._planner.plan_scan(table, ref.alias, stmt.where)
        _count_plan(plan.path.kind)
        rowids = self._execute_access_path(table, plan.path)
        if rowids is None:
            return table.rows()
        return [table.get(rowid) for rowid in sorted(rowids)]

    def _execute_access_path(self, table: Table, path: AccessPath) -> Optional[Set[int]]:
        """Return restricted row ids, or None for a full scan."""
        if path.kind == "seq":
            return None
        index = table.indexes[path.index_name]
        if path.kind == "index_eq":
            return index.lookup(path.value)
        if path.kind == "rtree":
            return index.box(path.x_low, path.x_high, path.y_low, path.y_high)
        return index.range(
            low=path.low,
            high=path.high,
            include_low=path.include_low,
            include_high=path.include_high,
        )

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------

    def explain(self, stmt: SelectStmt) -> List[str]:
        """Describe the physical plan for ``stmt``, one operator per line."""
        lines: List[str] = []
        if stmt.table is None:
            lines.append("Result(constant)")
        else:
            table = self._table(stmt.table.name)
            plan = self._planner.plan_scan(table, stmt.table.alias, stmt.where)
            lines.append(plan.describe(stmt.table.name))
            for join in stmt.joins:
                if _equi_join_columns(join.on, join.table.alias) is not None:
                    kind = "HashJoin"
                else:
                    kind = "NestedLoopJoin"
                left = " LEFT" if join.kind == "left" else ""
                lines.append(f"{kind}{left}({join.table.name} ON {join.on.key()})")
        if stmt.where is not None:
            lines.append(f"Filter({stmt.where.key()})")
        if stmt.group_by or self._all_aggregates(stmt):
            keys = ", ".join(expr.key() for expr in stmt.group_by) or "<all rows>"
            lines.append(f"HashAggregate(by {keys})")
        if stmt.having is not None:
            lines.append(f"Having({stmt.having.key()})")
        if stmt.distinct:
            lines.append("Distinct")
        if stmt.order_by:
            keys = ", ".join(
                f"{expr.key()} {'DESC' if desc else 'ASC'}" for expr, desc in stmt.order_by
            )
            lines.append(f"Sort({keys})")
        if stmt.limit is not None or stmt.offset:
            lines.append(f"Limit({stmt.limit} offset {stmt.offset})")
        return lines

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def _apply_join(self, rows: Iterable[tuple], outer: Layout, join: Join) -> List[tuple]:
        table = self._table(join.table.name)
        alias = join.table.alias
        columns = table.schema.column_names
        inner_rows = list(table.rows())
        null_row = (None,) * len(columns)
        left = join.kind == "left"
        joined: List[tuple] = []
        equi = _equi_join_columns(join.on, alias)
        # An inner column the table lacks takes the nested loop, whose
        # compiled ON raises the resolver's error once a row reaches it.
        if equi is not None and equi[1].name.lower() in columns:
            outer_ref, inner_ref = equi
            inner_pos = columns.index(inner_ref.name.lower())
            buckets: Dict[Any, List[tuple]] = {}
            for row in inner_rows:
                key = row[inner_pos]
                if key is not None:
                    buckets.setdefault(key, []).append(row)
            probe = compile_expr(outer_ref, outer)
            for row in rows:
                key = probe(row)
                matches = buckets.get(key, ()) if key is not None else ()
                for match in matches:
                    joined.append(row + match)
                if left and not matches:
                    joined.append(row + null_row)
            return joined
        on = compile_expr(join.on, [*outer, (alias, columns)])
        for row in rows:
            matched = False
            for inner in inner_rows:
                candidate = row + inner
                if on(candidate) is True:
                    joined.append(candidate)
                    matched = True
            if left and not matched:
                joined.append(row + null_row)
        return joined

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------

    def _expand_items(self, stmt: SelectStmt, layout: Layout) -> List[Tuple[str, Expr]]:
        """Expand ``*`` and name every output column."""
        expanded: List[Tuple[str, Expr]] = []
        for item in stmt.items:
            if isinstance(item.expr, Star):
                wanted = item.expr.table
                matched = False
                for alias, columns in layout:
                    if wanted is not None and alias != wanted.lower():
                        continue
                    matched = True
                    for column in columns:
                        expanded.append((column, ColumnRef(column, table=alias)))
                if not matched:
                    raise RelationalError(f"'*' refers to unknown table {wanted!r}")
            else:
                name = item.alias or _default_name(item.expr)
                expanded.append((name, item.expr))
        return expanded

    def _grouped_projection(
        self,
        stmt: SelectStmt,
        layout: Layout,
        named: List[Tuple[str, Expr]],
        rows: List[tuple],
        aggregates: List[Aggregate],
    ) -> Tuple[List[tuple], List[tuple], Tuple[Layout, List[str]]]:
        """Group, aggregate, filter by HAVING and project.

        Returns the output rows, each group's representative row (its
        first member with the aggregate values appended) and the layout
        those representatives follow. The empty global group (no rows, no
        GROUP BY) has no member, so its representative is the aggregate
        values alone, under a layout with no table.
        """
        groups: Dict[tuple, List[tuple]] = {}
        if stmt.group_by:
            keys = [compile_expr(expr, layout) for expr in stmt.group_by]
            for row in rows:
                key = tuple([_hashable(fn(row)) for fn in keys])
                groups.setdefault(key, []).append(row)
        else:
            groups[()] = rows  # one global group, even when empty
        agg_keys = [agg.key() for agg in aggregates]
        arguments = [
            None if isinstance(agg.arg, Star) else compile_expr(agg.arg, layout)
            for agg in aggregates
        ]
        source_layout = (layout if rows else [], agg_keys)
        having = (
            compile_expr(stmt.having, *source_layout) if stmt.having is not None else None
        )
        project = compile_row([expr for _, expr in named], *source_layout)
        output: List[tuple] = []
        sources: List[tuple] = []
        for key in sorted(groups, key=_group_sort_key):
            members = groups[key]
            values = tuple(
                _compute_aggregate(agg, argument, members)
                for agg, argument in zip(aggregates, arguments)
            )
            representative = members[0] + values if members else values
            if having is not None and having(representative) is not True:
                continue
            output.append(project(representative))
            sources.append(representative)
        return output, sources, source_layout

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------

    def _order(
        self,
        stmt: SelectStmt,
        columns: List[str],
        rows: List[tuple],
        sources: Optional[List[tuple]],
        source_layout: Tuple[Layout, Sequence[str]],
    ) -> List[tuple]:
        """Sort ``rows`` by ORDER BY; each row's source row rides beside it.

        A key naming an output column reads the output row; any other key
        is compiled against ``source_layout`` and reads the source row.
        ``sources`` is None when no source row is left to read (DISTINCT
        merged rows), and then such a key raises if there is a row to sort.
        """
        # First occurrence of each output name, like list.index.
        positions: Dict[str, int] = {}
        for i, name in enumerate(columns):
            positions.setdefault(name, i)
        decorated = list(zip(rows, sources if sources is not None else [None] * len(rows)))
        # Stable multi-key sort: apply keys right-to-left.
        for expr, descending in reversed(stmt.order_by):
            if isinstance(expr, ColumnRef) and expr.table is None and expr.name in positions:
                read, side = itemgetter(positions[expr.name]), 0
            elif sources is not None:
                read, side = compile_expr(expr, *source_layout), 1
            elif decorated:
                raise RelationalError(
                    f"ORDER BY expression {expr.key()} does not name an output column"
                )
            else:
                continue
            decorated.sort(key=lambda pair: _null_safe_key(read(pair[side])), reverse=descending)
        return [row for row, _ in decorated]

    # ------------------------------------------------------------------
    # Degenerate SELECT (no FROM)
    # ------------------------------------------------------------------

    def _select_without_from(self, stmt: SelectStmt) -> Tuple[List[str], List[tuple]]:
        named = []
        for item in stmt.items:
            if isinstance(item.expr, Star):
                raise RelationalError("SELECT * requires a FROM clause")
            named.append((item.alias or _default_name(item.expr), item.expr))
        row = compile_row([expr for _, expr in named], [])(())
        return [name for name, _ in named], [row]

    @staticmethod
    def _all_aggregates(stmt: SelectStmt) -> List[Aggregate]:
        found: Dict[str, Aggregate] = {}
        for item in stmt.items:
            if not isinstance(item.expr, Star):
                for agg in collect_aggregates(item.expr):
                    found[agg.key()] = agg
        if stmt.having is not None:
            for agg in collect_aggregates(stmt.having):
                found[agg.key()] = agg
        for expr, _ in stmt.order_by:
            for agg in collect_aggregates(expr):
                found[agg.key()] = agg
        return list(found.values())


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _equi_join_columns(on: Expr, new_alias: str) -> Optional[Tuple[ColumnRef, ColumnRef]]:
    """Match ``outer.col = new.col`` in either orientation.

    Requires both sides qualified so the probe side is unambiguous.
    """
    if not (isinstance(on, BinaryOp) and on.op == "="):
        return None
    left, right = on.left, on.right
    if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
        return None
    if left.table is None or right.table is None:
        return None
    new_alias = new_alias.lower()
    if right.table == new_alias and left.table != new_alias:
        return left, right
    if left.table == new_alias and right.table != new_alias:
        return right, left
    return None


def _default_name(expr: Expr) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, Aggregate):
        return expr.key().lower().replace(" ", "_")
    return expr.key()


def _hashable(value: Any) -> Any:
    return ("\0null",) if value is None else value


def _group_sort_key(key: tuple) -> tuple:
    return tuple(
        (1, "") if isinstance(part, tuple) else (0, _comparable(part)) for part in key
    )


def _comparable(value: Any) -> Any:
    # Mixed-type group keys sort by (type name, repr) to stay deterministic.
    return (type(value).__name__, repr(value))


def _null_safe_key(value: Any):
    # NULL compares as the largest value: last under ASC, first under DESC
    # (the sort passes reverse=descending, flipping the order for DESC).
    if value is None:
        return (1, (0, 0.0))
    return (0, _typed(value))


def _typed(value: Any) -> tuple:
    # Rank values by type so mixed-type columns still sort deterministically.
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (1, float(value))
    return (2, str(value))


def _compute_aggregate(
    agg: Aggregate, argument: Optional[Compiled], members: Sequence[tuple]
) -> Any:
    if argument is None:  # COUNT(*)
        return len(members)
    values = [argument(row) for row in members]
    values = [value for value in values if value is not None]
    if agg.distinct:
        seen = []
        for value in values:
            if value not in seen:
                seen.append(value)
        values = seen
    func = agg.func
    if func == "COUNT":
        return len(values)
    if not values:
        return None
    if func == "SUM":
        return sum(values)
    if func == "AVG":
        return sum(values) / len(values)
    if func == "MIN":
        return min(values)
    if func == "MAX":
        return max(values)
    raise RelationalError(f"unknown aggregate {func!r}")


def _distinct(rows: List[tuple]) -> List[tuple]:
    seen = set()
    unique = []
    for row in rows:
        key = tuple(_hashable(value) for value in row)
        if key not in seen:
            seen.add(key)
            unique.append(row)
    return unique
