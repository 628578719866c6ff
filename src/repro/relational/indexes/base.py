"""The common secondary-index interface the storage layer maintains.

Every index maps a *key* (one column's value, or a tuple for the
two-column spatial case) to a set of integer row ids. NULL keys — a NULL
value, or any NULL component of a composite key — are never indexed:
``WHERE col = NULL`` matches nothing in SQL and range/box scans skip
NULLs, so the executor's residual WHERE filter stays correct when an
index returns a superset of the matching rows.

Capability flags (``supports_eq`` / ``supports_range`` /
``supports_box``) tell the planner which access paths an index can
serve; ``statistics()`` feeds its cost model and the ``/api/stats``
exposition.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple


class SecondaryIndex:
    """Abstract base for hash/tree/spatial secondary indexes."""

    kind: str = "abstract"
    #: Which predicate shapes this index can answer.
    supports_eq: bool = False
    supports_range: bool = False
    supports_box: bool = False

    def __init__(self, name: str, columns: Tuple[str, ...]):
        self.name = name
        self.columns = tuple(column.lower() for column in columns)

    # -- maintenance ----------------------------------------------------

    def insert(self, key: Any, rowid: int) -> None:
        """Index ``rowid`` under ``key`` (NULL keys are not indexed)."""
        raise NotImplementedError

    def delete(self, key: Any, rowid: int) -> None:
        """Drop ``rowid`` from ``key``'s entry (no-op if absent)."""
        raise NotImplementedError

    # -- probes ---------------------------------------------------------

    def lookup(self, key: Any) -> Set[int]:
        """Row ids whose key equals ``key`` (empty set for NULL)."""
        raise NotImplementedError

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Set[int]:
        """Row ids with ``low <?= key <?= high`` (open bounds allowed)."""
        raise NotImplementedError

    def box(
        self,
        x_low: Optional[float] = None,
        x_high: Optional[float] = None,
        y_low: Optional[float] = None,
        y_high: Optional[float] = None,
    ) -> Set[int]:
        """Row ids whose 2-D key lies inside the (inclusive) box."""
        raise NotImplementedError

    # -- introspection --------------------------------------------------

    def statistics(self) -> Dict[str, Any]:
        """Size/depth/fill-factor numbers for the planner and /api/stats."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


def null_key(key: Any) -> bool:
    """True when ``key`` (or any component of a composite key) is NULL."""
    if isinstance(key, tuple):
        return any(part is None for part in key)
    return key is None
