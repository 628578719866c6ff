"""RDF-schema to database-schema mapping.

The paper's Query Management module processes queries "while taking into
account the mapping of RDF schema to database schema": the same metadata
lives as RDF property triples and as relational columns. A
:class:`SchemaMapping` declares, per page kind (wiki namespace), which
semantic property lands in which typed column — and can translate in both
directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SmrError
from repro.rdf.term import IRI
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType, coerce_value
from repro.wiki.site import property_to_iri


@dataclass(frozen=True)
class PropertyMapping:
    """One semantic property -> one relational column."""

    property_name: str
    column: str
    dtype: DataType

    @property
    def property_iri(self) -> IRI:
        return property_to_iri(self.property_name)


class SchemaMapping:
    """The full mapping: one relational table per page kind.

    Every table gets an implicit ``title TEXT PRIMARY KEY`` column keyed
    by the wiki page title, which is what joins the two worlds together.
    """

    def __init__(self):
        self._tables: Dict[str, List[PropertyMapping]] = {}

    def declare(self, kind: str, mappings: List[PropertyMapping]) -> None:
        """Register the columns of page-kind ``kind`` (e.g. 'station')."""
        kind = kind.lower()
        if kind in self._tables:
            raise SmrError(f"kind {kind!r} already declared")
        seen = set()
        for mapping in mappings:
            if mapping.column in seen or mapping.column == "title":
                raise SmrError(f"duplicate or reserved column {mapping.column!r} in {kind!r}")
            seen.add(mapping.column)
        self._tables[kind] = list(mappings)

    @property
    def kinds(self) -> List[str]:
        return sorted(self._tables)

    def mappings_for(self, kind: str) -> List[PropertyMapping]:
        """The property mappings declared for ``kind``."""
        try:
            return list(self._tables[kind.lower()])
        except KeyError:
            raise SmrError(f"unknown kind {kind!r}; declared: {self.kinds}") from None

    def table_schema(self, kind: str) -> TableSchema:
        """The relational schema for ``kind``."""
        columns = [Column("title", DataType.TEXT, primary_key=True)]
        columns.extend(
            Column(m.column, m.dtype) for m in self.mappings_for(kind)
        )
        return TableSchema(kind.lower(), columns)

    def row_from_annotations(
        self, kind: str, title: str, annotations: List[Tuple[str, Any]]
    ) -> Dict[str, Any]:
        """Project a page's (attribute, value) pairs onto the table row.

        Unmapped annotations are ignored (they still live in the RDF
        graph); mapped values are lightly coerced to the declared type.
        """
        row: Dict[str, Any] = {"title": title}
        by_property = {m.property_name.lower(): m for m in self.mappings_for(kind)}
        for prop, value in annotations:
            mapping = by_property.get(prop.lower())
            if mapping is None:
                continue
            row[mapping.column] = _coerce(value, mapping.dtype, mapping.column)
        return row

    def column_for_property(self, kind: str, prop: str) -> Optional[str]:
        """The column storing ``prop`` in ``kind``, or None."""
        for mapping in self.mappings_for(kind):
            if mapping.property_name.lower() == prop.lower():
                return mapping.column
        return None

    def mapped_kinds(self, prop: str) -> List[str]:
        """The kinds whose table has a column for ``prop``, in :attr:`kinds` order."""
        return [kind for kind in self.kinds if self.column_for_property(kind, prop) is not None]

    def property_for_column(self, kind: str, column: str) -> Optional[str]:
        """The property stored in ``column`` of ``kind``, or None."""
        for mapping in self.mappings_for(kind):
            if mapping.column == column.lower():
                return mapping.property_name
        return None


def _coerce(value: Any, dtype: DataType, column: str) -> Any:
    """Best-effort coercion from annotation values to column types.

    A number a REAL column cannot hold (an integer too large for a float)
    raises :class:`~repro.errors.IntegrityError`, so the write is refused
    before any store changes.
    """
    if value is None:
        return None
    if dtype is DataType.TEXT:
        return value if isinstance(value, str) else str(value)
    if dtype is DataType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                return None
        return None
    if dtype is DataType.REAL:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return coerce_value(value, dtype, column)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                return None
        return None
    if dtype is DataType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            if value.lower() in ("true", "yes", "1"):
                return True
            if value.lower() in ("false", "no", "0"):
                return False
        return None
    return None  # pragma: no cover
