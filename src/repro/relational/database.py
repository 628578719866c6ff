"""The user-facing relational database facade."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import CatalogError, RelationalError
from repro.relational.executor import Executor
from repro.relational.expr import Compiled, Expr, Layout, compile_expr
from repro.relational.planner import Catalog, Planner
from repro.relational.schema import TableSchema
from repro.relational.sql_parser import (
    AlterTableStmt,
    BeginStmt,
    CommitStmt,
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    DropTableStmt,
    ExplainStmt,
    InsertStmt,
    RollbackStmt,
    SelectStmt,
    UpdateStmt,
    parse_sql,
)
from repro.relational.storage import Table


class ResultSet:
    """Columns plus row tuples returned by :meth:`Database.execute`.

    Iterating yields row tuples; :meth:`as_dicts` gives name->value
    mappings. Mutating statements return an empty-column result whose
    :attr:`rowcount` reports affected rows.
    """

    def __init__(self, columns: List[str], rows: List[Tuple[Any, ...]], rowcount: int = 0):
        self.columns = columns
        self.rows = rows
        self.rowcount = rowcount if rowcount else len(rows)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def first(self) -> Optional[Tuple[Any, ...]]:
        """The first row, or None when empty."""
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """The single value of a 1×1 result (e.g. ``SELECT COUNT(*)``)."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise RelationalError(
                f"scalar() needs a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Rows as column-name -> value dicts."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:
        return f"ResultSet(columns={self.columns}, rows={len(self.rows)})"


class Database:
    """An in-memory SQL database.

    Every base-table scan goes through the cost-based planner in
    :mod:`repro.relational.planner`; a secondary index changes the
    physical plan, never the rows.

    >>> db = Database()
    >>> _ = db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
    >>> _ = db.execute("INSERT INTO t (id, name) VALUES (1, 'a')")
    >>> db.execute("SELECT name FROM t").rows
    [('a',)]
    """

    def __init__(self):
        self._tables: Dict[str, Table] = {}
        self.catalog = Catalog(self._tables)
        self._executor = Executor(self._tables, Planner(self.catalog))
        self._in_transaction = False
        self._created_in_transaction: list[str] = []

    # ------------------------------------------------------------------
    # Catalog access
    # ------------------------------------------------------------------

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def table(self, name: str) -> Table:
        """Return the storage object for direct (non-SQL) access."""
        table = self._tables.get(name.lower())
        if table is None:
            raise CatalogError(f"unknown table {name!r}")
        return table

    def has_table(self, name: str) -> bool:
        """True when a table named ``name`` exists."""
        return name.lower() in self._tables

    def catalog_stats(self) -> Dict[str, Any]:
        """Planner-catalog statistics plus per-index structure stats."""
        return self.catalog.snapshot()

    # ------------------------------------------------------------------
    # SQL entry point
    # ------------------------------------------------------------------

    def execute(self, sql: str) -> ResultSet:
        """Parse and run one SQL statement."""
        statement = parse_sql(sql)
        if isinstance(statement, SelectStmt):
            columns, rows = self._executor.select(statement)
            return ResultSet(columns, rows)
        if isinstance(statement, ExplainStmt):
            plan = self._executor.explain(statement.select)
            return ResultSet(["plan"], [(line,) for line in plan])
        if isinstance(statement, InsertStmt):
            return self._insert(statement)
        if isinstance(statement, UpdateStmt):
            return self._update(statement)
        if isinstance(statement, DeleteStmt):
            return self._delete(statement)
        if isinstance(statement, CreateTableStmt):
            return self._create_table(statement)
        if isinstance(statement, CreateIndexStmt):
            return self._create_index(statement)
        if isinstance(statement, DropTableStmt):
            return self._drop_table(statement)
        if isinstance(statement, AlterTableStmt):
            self.table(statement.table).add_column(statement.column)
            return ResultSet([], [], rowcount=0)
        if isinstance(statement, BeginStmt):
            return self._begin()
        if isinstance(statement, CommitStmt):
            return self._commit()
        if isinstance(statement, RollbackStmt):
            return self._rollback()
        raise RelationalError(f"unhandled statement {type(statement).__name__}")

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._in_transaction

    def _begin(self) -> ResultSet:
        if self._in_transaction:
            raise RelationalError("already in a transaction; COMMIT or ROLLBACK first")
        for table in self._tables.values():
            table.begin_undo()
        self._in_transaction = True
        self._created_in_transaction = []
        return ResultSet([], [], rowcount=0)

    def _commit(self) -> ResultSet:
        if not self._in_transaction:
            raise RelationalError("COMMIT outside a transaction")
        for table in self._tables.values():
            table.commit_undo()
        self._in_transaction = False
        self._created_in_transaction = []
        return ResultSet([], [], rowcount=0)

    def _rollback(self) -> ResultSet:
        if not self._in_transaction:
            raise RelationalError("ROLLBACK outside a transaction")
        for name in self._created_in_transaction:
            self._tables.pop(name, None)
        for table in self._tables.values():
            table.rollback_undo()
        self._in_transaction = False
        self._created_in_transaction = []
        return ResultSet([], [], rowcount=0)

    # ------------------------------------------------------------------
    # Convenience bulk API (used by the SMR loader)
    # ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        """Register a table from a prebuilt schema (non-SQL path)."""
        if schema.name in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(schema)
        if self._in_transaction:
            table.begin_undo()
            self._created_in_transaction.append(schema.name)
        self._tables[schema.name] = table

    def insert_row(self, table: str, values: Dict[str, Any]) -> int:
        """Insert one name->value row directly; returns its row id."""
        return self.table(table).insert(values)

    def insert_many(self, table: str, rows: Iterable[Dict[str, Any]]) -> int:
        """Insert many rows directly; returns how many were inserted."""
        storage = self.table(table)
        count = 0
        for values in rows:
            storage.insert(values)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Statement handlers
    # ------------------------------------------------------------------

    def _create_table(self, stmt: CreateTableStmt) -> ResultSet:
        self.create_table(TableSchema(stmt.name, stmt.columns))
        return ResultSet([], [], rowcount=0)

    def _create_index(self, stmt: CreateIndexStmt) -> ResultSet:
        self.table(stmt.table).create_index(stmt.name, stmt.columns, stmt.kind)
        return ResultSet([], [], rowcount=0)

    def _drop_table(self, stmt: DropTableStmt) -> ResultSet:
        name = stmt.name.lower()
        if name not in self._tables:
            if stmt.if_exists:
                return ResultSet([], [], rowcount=0)
            raise CatalogError(f"unknown table {stmt.name!r}")
        if self._in_transaction:
            raise RelationalError("DROP TABLE is not allowed inside a transaction")
        del self._tables[name]
        return ResultSet([], [], rowcount=0)

    def _insert(self, stmt: InsertStmt) -> ResultSet:
        table = self.table(stmt.table)
        count = 0
        for row_exprs in stmt.rows:
            values = {
                column: compile_expr(expr, [])(())
                for column, expr in zip(stmt.columns, row_exprs)
            }
            table.insert(values)
            count += 1
        return ResultSet([], [], rowcount=count)

    def _update(self, stmt: UpdateStmt) -> ResultSet:
        table = self.table(stmt.table)
        layout = [(stmt.table, table.schema.column_names)]
        where = self._compile_where(stmt.where, layout)
        assignments = [
            (column, compile_expr(expr, layout)) for column, expr in stmt.assignments
        ]
        targets = []
        for rowid, row in table.scan():
            if where is None or where(row) is True:
                targets.append((rowid, {column: fn(row) for column, fn in assignments}))
        for rowid, changes in targets:
            table.update(rowid, changes)
        return ResultSet([], [], rowcount=len(targets))

    def _delete(self, stmt: DeleteStmt) -> ResultSet:
        table = self.table(stmt.table)
        where = self._compile_where(stmt.where, [(stmt.table, table.schema.column_names)])
        targets = [
            rowid for rowid, row in table.scan() if where is None or where(row) is True
        ]
        for rowid in targets:
            table.delete(rowid)
        return ResultSet([], [], rowcount=len(targets))

    def _compile_where(self, where: Optional[Expr], layout: Layout) -> Optional[Compiled]:
        """A mutation's WHERE, subqueries materialized, compiled once."""
        if where is None:
            return None
        return compile_expr(self._executor.resolve_subqueries(where), layout)
