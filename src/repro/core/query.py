"""The advanced query model and its compact string syntax.

A :class:`SearchQuery` captures everything the Fig. 7 form offers:
keyword text, a metadata kind, property filters with comparison
operators, sort-by / order-by, limit, relaxed matching (which powers the
match-degree coloring on maps) and an optional geographic bounding box
for map-based browsing.

The string syntax used by examples and the web API::

    keyword=wind kind=sensor sensor_type=wind speed sort=pagerank
    elevation_m>=2000 status!=offline order=desc limit=20

Space-separated ``field<op>value`` clauses; the reserved fields are
``keyword``, ``kind``, ``sort``, ``order``, ``limit``, ``offset``,
``relaxed`` and
``bbox`` (south,west,north,east) — anything else becomes a property
filter. A value may contain spaces; it extends until the next clause.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Any, List, Optional, Tuple

from repro.errors import QueryError
from repro.geo.bbox import BoundingBox
from repro.wiki.wikitext import coerce_annotation_value

OPERATORS = ("<=", ">=", "!=", "=", "<", ">", "~")  # ~ is LIKE/contains

SORT_RELEVANCE = "relevance"
SORT_PAGERANK = "pagerank"
_RESERVED = {"keyword", "kind", "sort", "order", "limit", "offset", "relaxed", "bbox"}


@dataclass(frozen=True)
class PropertyFilter:
    """One predicate: ``prop <op> value``; ``~`` means substring match."""

    prop: str
    op: str
    value: Any

    def __post_init__(self):
        if self.op not in OPERATORS:
            raise QueryError(f"unknown operator {self.op!r}; use one of {OPERATORS}")
        if not self.prop:
            raise QueryError("property filter needs a property name")

    def describe(self) -> str:
        """Human-readable form, e.g. ``elevation_m >= 2000``."""
        return f"{self.prop} {self.op} {self.value!r}"


@dataclass(frozen=True)
class SearchQuery:
    """A fully specified advanced search."""

    keyword: str = ""
    kind: Optional[str] = None
    filters: Tuple[PropertyFilter, ...] = ()
    sort: str = SORT_RELEVANCE  # 'relevance', 'pagerank', or a property name
    descending: bool = True
    limit: Optional[int] = 20
    offset: int = 0
    relaxed: bool = False  # OR semantics + partial match degrees
    bbox: Optional[BoundingBox] = None

    def __post_init__(self):
        if self.limit is not None and self.limit <= 0:
            raise QueryError(f"limit must be positive, got {self.limit}")
        if self.offset < 0:
            raise QueryError(f"offset must be non-negative, got {self.offset}")
        if not self.keyword and not self.filters and self.kind is None and self.bbox is None:
            raise QueryError("empty query: give a keyword, kind, filter or bbox")

    @property
    def is_spatial(self) -> bool:
        return self.bbox is not None

    def with_limit(self, limit: Optional[int]) -> "SearchQuery":
        """A copy of this query with a different limit."""
        return replace(self, limit=limit)

    def describe(self) -> str:
        """Human-readable echo of the whole query (shown with results)."""
        parts = []
        if self.keyword:
            parts.append(f"keyword={self.keyword!r}")
        if self.kind:
            parts.append(f"kind={self.kind}")
        parts.extend(f.describe() for f in self.filters)
        parts.append(f"sort={self.sort} {'desc' if self.descending else 'asc'}")
        if self.relaxed:
            parts.append("relaxed")
        if self.bbox:
            parts.append("bbox")
        return ", ".join(parts)


_CLAUSE_RE = re.compile(
    r"(?P<prop>[A-Za-z_][A-Za-z0-9_]*)\s*(?P<op><=|>=|!=|=|<|>|~)"
)


def parse_query(text: str) -> SearchQuery:
    """Parse the compact query-string syntax into a :class:`SearchQuery`."""
    matches = list(_CLAUSE_RE.finditer(text))
    if not matches:
        # Bare text is a keyword search.
        if text.strip():
            return SearchQuery(keyword=text.strip())
        raise QueryError("empty query string")
    leading = text[: matches[0].start()].strip()
    keyword_parts = [leading] if leading else []
    kind = None
    sort = SORT_RELEVANCE
    descending = True
    limit: Optional[int] = 20
    offset = 0
    relaxed = False
    bbox = None
    filters: List[PropertyFilter] = []
    for i, match in enumerate(matches):
        prop = match.group("prop").lower()
        op = match.group("op")
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        raw_value = text[match.end() : end].strip()
        if prop in _RESERVED and op != "=":
            raise QueryError(f"reserved field {prop!r} only supports '='")
        if prop == "keyword":
            keyword_parts.append(raw_value)
        elif prop == "kind":
            kind = raw_value.lower()
        elif prop == "sort":
            sort = raw_value.lower()
        elif prop == "order":
            if raw_value.lower() not in ("asc", "desc"):
                raise QueryError(f"order must be 'asc' or 'desc', got {raw_value!r}")
            descending = raw_value.lower() == "desc"
        elif prop == "limit":
            try:
                limit = int(raw_value)
            except ValueError:
                raise QueryError(f"limit must be an integer, got {raw_value!r}") from None
            if limit == 0:
                limit = None  # limit=0 means "no limit"
        elif prop == "offset":
            try:
                offset = int(raw_value)
            except ValueError:
                raise QueryError(f"offset must be an integer, got {raw_value!r}") from None
        elif prop == "relaxed":
            relaxed = raw_value.lower() in ("true", "1", "yes")
        elif prop == "bbox":
            bbox = _parse_bbox(raw_value)
        else:
            filters.append(PropertyFilter(prop, op, coerce_annotation_value(raw_value)))
    return SearchQuery(
        keyword=" ".join(part for part in keyword_parts if part),
        kind=kind,
        filters=tuple(filters),
        sort=sort,
        descending=descending,
        limit=limit,
        offset=offset,
        relaxed=relaxed,
        bbox=bbox,
    )


def _parse_bbox(raw: str) -> BoundingBox:
    parts = raw.split(",")
    if len(parts) != 4:
        raise QueryError(f"bbox needs 'south,west,north,east', got {raw!r}")
    try:
        south, west, north, east = (float(part) for part in parts)
    except ValueError:
        raise QueryError(f"bbox needs four numbers, got {raw!r}") from None
    return BoundingBox(south, west, north, east)
