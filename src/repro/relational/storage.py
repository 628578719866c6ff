"""Row storage: heap tables with stable row ids and index maintenance."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import CatalogError, IntegrityError
from repro.relational.index import HashIndex, make_index
from repro.relational.indexes import SecondaryIndex
from repro.relational.schema import TableSchema


class Table:
    """A heap of row tuples addressed by stable integer row ids.

    Deletions leave tombstones (``None`` slots) so row ids stay valid for
    the indexes; :meth:`scan` skips them. A unique hash index is created
    automatically over the primary key.

    ``version`` is a monotone mutation counter: every insert, delete,
    update, rollback replay and schema change bumps it, which is how the
    planner's catalog knows its cached statistics for this table are
    stale without scanning anything.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: List[Optional[Tuple[Any, ...]]] = []
        self._live = 0
        self.version = 0
        self.indexes: Dict[str, SecondaryIndex] = {}
        # Undo log for transactions: None when autocommitting, else a list
        # of ('insert', rowid) / ('delete', rowid, row) / ('update', rowid,
        # old_row) entries replayed in reverse on rollback.
        self._undo: Optional[List[tuple]] = None
        if schema.primary_key:
            self._pk_index = HashIndex(f"{schema.name}_pk", schema.primary_key)
            self.indexes[self._pk_index.name] = self._pk_index
        else:
            self._pk_index = None

    # ------------------------------------------------------------------
    # Index keys
    # ------------------------------------------------------------------

    def _index_key(self, row: Tuple[Any, ...], index: SecondaryIndex) -> Any:
        """The key ``index`` stores for ``row``: one value, or a tuple
        across the index's columns (the R-tree's (x, y) pair)."""
        columns = index.columns
        if len(columns) == 1:
            return row[self.schema.position(columns[0])]
        return tuple(row[self.schema.position(column)] for column in columns)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, values: Dict[str, Any]) -> int:
        """Validate and insert a row; returns its row id."""
        row = self.schema.validate_row(values)
        if self._pk_index is not None:
            key = row[self.schema.position(self.schema.primary_key)]
            if self._pk_index.lookup(key):
                raise IntegrityError(
                    f"duplicate primary key {key!r} in table {self.schema.name!r}"
                )
        rowid = len(self._rows)
        self._rows.append(row)
        self._live += 1
        self.version += 1
        for index in self.indexes.values():
            index.insert(self._index_key(row, index), rowid)
        if self._undo is not None:
            self._undo.append(("insert", rowid))
        return rowid

    def delete(self, rowid: int) -> None:
        """Tombstone a row (no-op if already deleted)."""
        row = self._fetch(rowid)
        if row is None:
            return
        for index in self.indexes.values():
            index.delete(self._index_key(row, index), rowid)
        self._rows[rowid] = None
        self._live -= 1
        self.version += 1
        if self._undo is not None:
            self._undo.append(("delete", rowid, row))

    def delete_by_key(self, key: Any) -> int:
        """Tombstone the row whose primary key equals ``key``.

        One probe of the primary-key hash index instead of a scan of
        every slot; returns the number of rows deleted (0 or 1).
        """
        if self._pk_index is None:
            raise CatalogError(f"table {self.schema.name!r} has no primary key")
        rowids = self._pk_index.lookup(key)
        for rowid in rowids:
            self.delete(rowid)
        return len(rowids)

    def update(self, rowid: int, changes: Dict[str, Any]) -> None:
        """Apply ``changes`` (column -> new value) to one row."""
        row = self._fetch(rowid)
        if row is None:
            raise IntegrityError(f"row {rowid} of table {self.schema.name!r} is deleted")
        current = {name: row[i] for i, name in enumerate(self.schema.column_names)}
        current.update(changes)
        new_row = self.schema.validate_row(current)
        if self._pk_index is not None:
            pk_pos = self.schema.position(self.schema.primary_key)
            if new_row[pk_pos] != row[pk_pos] and self._pk_index.lookup(new_row[pk_pos]):
                raise IntegrityError(
                    f"duplicate primary key {new_row[pk_pos]!r} in table {self.schema.name!r}"
                )
        for index in self.indexes.values():
            old_key = self._index_key(row, index)
            new_key = self._index_key(new_row, index)
            if old_key != new_key:
                index.delete(old_key, rowid)
                index.insert(new_key, rowid)
        self._rows[rowid] = new_row
        self.version += 1
        if self._undo is not None:
            self._undo.append(("update", rowid, row))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def _fetch(self, rowid: int) -> Optional[Tuple[Any, ...]]:
        if not 0 <= rowid < len(self._rows):
            raise IntegrityError(f"row id {rowid} out of range for table {self.schema.name!r}")
        return self._rows[rowid]

    def get(self, rowid: int) -> Tuple[Any, ...]:
        """The live row at ``rowid``; raises for deleted/unknown ids."""
        row = self._fetch(rowid)
        if row is None:
            raise IntegrityError(f"row {rowid} of table {self.schema.name!r} is deleted")
        return row

    def scan(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """Yield ``(rowid, row)`` for every live row."""
        for rowid, row in enumerate(self._rows):
            if row is not None:
                yield rowid, row

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        """Every live row tuple in row-id order, without the row ids.

        Skips tombstones in C (a live row has at least one column, so it
        is never an empty, falsy tuple), which is what lets a SELECT's
        scan loop touch nothing per row but the row itself.
        """
        return filter(None, self._rows)

    def __len__(self) -> int:
        return self._live

    # ------------------------------------------------------------------
    # Transactions (undo log)
    # ------------------------------------------------------------------

    def begin_undo(self) -> None:
        """Start logging mutations for a possible rollback."""
        if self._undo is not None:
            raise IntegrityError(f"table {self.schema.name!r} is already in a transaction")
        self._undo = []

    def commit_undo(self) -> None:
        """Discard the undo log, making the transaction's work permanent."""
        self._undo = None

    def rollback_undo(self) -> None:
        """Replay the undo log in reverse, restoring the pre-BEGIN state."""
        if self._undo is None:
            return
        log = self._undo
        self._undo = None  # mutations below must not be re-logged
        if log:
            self.version += 1
        for entry in reversed(log):
            if entry[0] == "insert":
                _, rowid = entry
                row = self._rows[rowid]
                if row is not None:
                    for index in self.indexes.values():
                        index.delete(self._index_key(row, index), rowid)
                    self._rows[rowid] = None
                    self._live -= 1
            elif entry[0] == "delete":
                _, rowid, row = entry
                self._rows[rowid] = row
                self._live += 1
                for index in self.indexes.values():
                    index.insert(self._index_key(row, index), rowid)
            else:  # update
                _, rowid, old_row = entry
                current = self._rows[rowid]
                for index in self.indexes.values():
                    if current is None:
                        continue
                    old_key = self._index_key(current, index)
                    new_key = self._index_key(old_row, index)
                    if old_key != new_key:
                        index.delete(old_key, rowid)
                        index.insert(new_key, rowid)
                self._rows[rowid] = old_row

    # ------------------------------------------------------------------
    # Schema evolution
    # ------------------------------------------------------------------

    def add_column(self, column) -> None:
        """ALTER TABLE ADD COLUMN: appended, existing rows get NULL."""
        from repro.relational.schema import TableSchema

        if column.primary_key:
            raise IntegrityError("cannot add a PRIMARY KEY column to an existing table")
        if not column.nullable:
            raise IntegrityError(
                "added columns must be nullable (existing rows have no value)"
            )
        self.schema = TableSchema(self.schema.name, [*self.schema.columns, column])
        self._rows = [None if row is None else (*row, None) for row in self._rows]
        self.version += 1

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------

    def create_index(
        self, name: str, columns: Union[str, Sequence[str]], kind: str = "hash"
    ) -> None:
        """Create and backfill a secondary index over ``columns``."""
        if name in self.indexes:
            raise CatalogError(f"index {name!r} already exists on table {self.schema.name!r}")
        if isinstance(columns, str):
            columns = (columns,)
        for column in columns:
            self.schema.column(column)  # validates the column exists
        index = make_index(kind, name, columns)
        for rowid, row in self.scan():
            index.insert(self._index_key(row, index), rowid)
        self.indexes[name] = index
        self.version += 1

    def index_statistics(self) -> Dict[str, Any]:
        """Per-index structure statistics for the catalog snapshot."""
        report: Dict[str, Any] = {}
        for name in sorted(self.indexes):
            index = self.indexes[name]
            stats = index.statistics()
            stats["columns"] = list(index.columns)
            report[name] = stats
        return report
