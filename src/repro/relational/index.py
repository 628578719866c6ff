"""The flat hash index and the ``CREATE INDEX ... USING <kind>`` factory.

One structure per predicate shape, every one a
:class:`~repro.relational.indexes.SecondaryIndex`:

- ``hash`` builds :class:`HashIndex`, a flat value -> {rowid} dict for
  equality probes — the same structure every primary key gets;
- ``btree`` builds the B+-tree, the one ordered index (equality and
  ranges);
- ``rtree`` builds the R-tree over a two-column point key (boxes).

NULLs are not indexed — ``WHERE col = NULL`` never matches in SQL, and
range scans skip NULLs too.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Set

from repro.errors import CatalogError
from repro.relational.indexes import BPlusTreeIndex, RTreeIndex, SecondaryIndex


class HashIndex(SecondaryIndex):
    """value -> {rowid} map for equality lookups."""

    kind = "flat_hash"
    supports_eq = True

    def __init__(self, name: str, column: str):
        super().__init__(name, (column,))
        self._buckets: dict[Any, Set[int]] = {}

    def insert(self, value: Any, rowid: int) -> None:
        """Index ``rowid`` under ``value`` (NULLs are not indexed)."""
        if value is None:
            return
        self._buckets.setdefault(value, set()).add(rowid)

    def delete(self, value: Any, rowid: int) -> None:
        """Drop ``rowid`` from ``value``'s bucket (no-op if absent)."""
        if value is None:
            return
        bucket = self._buckets.get(value)
        if bucket:
            bucket.discard(rowid)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: Any) -> Set[int]:
        """Row ids whose column equals ``value`` (empty set for NULL)."""
        if value is None:
            return set()
        return set(self._buckets.get(value, ()))

    def statistics(self) -> Dict[str, Any]:
        """Size statistics for the catalog snapshot (flat: depth 1)."""
        return {
            "kind": self.kind,
            "entries": len(self),
            "distinct_keys": len(self._buckets),
            "depth": 1,
        }

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


INDEX_KINDS = ("hash", "btree", "rtree")


def make_index(kind: str, name: str, columns: Sequence[str]) -> SecondaryIndex:
    """Factory used by ``CREATE INDEX``; see :data:`INDEX_KINDS`.

    ``columns`` is the indexed column list — exactly two for ``rtree``
    (x/longitude-like and y/latitude-like), exactly one otherwise.
    """
    if kind not in INDEX_KINDS:
        raise CatalogError(f"unknown index kind {kind!r}; use one of {', '.join(INDEX_KINDS)}")
    columns = tuple(column.lower() for column in columns)
    if kind == "rtree":
        if len(columns) != 2:
            raise CatalogError(
                f"index {name!r}: USING rtree needs exactly two columns, got {list(columns)}"
            )
        return RTreeIndex(name, columns)
    if len(columns) != 1:
        raise CatalogError(
            f"index {name!r}: USING {kind} indexes exactly one column, got {list(columns)}"
        )
    if kind == "hash":
        return HashIndex(name, columns[0])
    return BPlusTreeIndex(name, columns[0])
