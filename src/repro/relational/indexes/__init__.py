"""Real secondary index structures behind one ``SecondaryIndex`` interface.

The paper's advanced-search interface (Fig. 7) composes keyword, SQL
property, SPARQL and bounding-box constraints; resolving the expensive
ones by scanning the corpus caps how large a sensor-metadata repository
the demo can serve. This package supplies the disk-shaped (node-based,
bounded-fanout) but in-memory tree structures the cost-based planner in
:mod:`repro.relational.planner` prices by depth and fill factor:

- :class:`~repro.relational.indexes.btree.BPlusTreeIndex` — a B+-tree
  with linked leaves, the one ordered index: equality, range predicates
  and ordered iteration (``CREATE INDEX ... USING btree``);
- :class:`~repro.relational.indexes.rtree.RTreeIndex` — a quadratic-split
  R-tree over 2-D points so the engine's bounding-box constraint becomes
  an index probe instead of a corpus scan (``USING rtree``).

Equality-only ``USING hash`` indexes are the flat
:class:`~repro.relational.index.HashIndex` every primary key uses. All
of them maintain themselves incrementally under insert/delete/update
(storage calls :meth:`insert`/:meth:`delete` per row mutation) and
report ``statistics()`` (entries, depth, fill factor) that surface on
``/api/stats`` and feed the planner's cost model.
"""

from repro.relational.indexes.base import SecondaryIndex
from repro.relational.indexes.btree import BPlusTreeIndex
from repro.relational.indexes.rtree import RTreeIndex

__all__ = [
    "SecondaryIndex",
    "BPlusTreeIndex",
    "RTreeIndex",
]
