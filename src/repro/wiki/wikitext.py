"""Parsing the Semantic MediaWiki markup subset.

Three constructs matter to the search system:

- ``[[Target]]`` / ``[[Target|label]]`` — an ordinary page link;
- ``[[property::value]]`` / ``[[property::value|label]]`` — a semantic
  annotation: an (attribute, value) pair that also links to ``value``
  when the value names a page;
- ``[[Category:Name]]`` — category membership.

Everything else is treated as plain text (with the markup stripped for
indexing). Values are typed heuristically: integers and finite decimals
become numbers, ``true``/``false`` booleans, everything else stays a
string.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, List, Tuple

_LINK_RE = re.compile(r"\[\[([^\[\]]+)\]\]")


@dataclass
class ParsedWikitext:
    """The structured content extracted from one page's wikitext.

    Attributes
    ----------
    links:
        Ordinary link targets, in order of appearance (duplicates kept —
        callers that need a set can build one).
    annotations:
        ``(property, typed_value)`` pairs from ``[[prop::value]]`` markup.
    categories:
        Category names from ``[[Category:...]]``.
    plain_text:
        The text with markup replaced by its visible label, for keyword
        indexing.
    """

    links: List[str] = field(default_factory=list)
    annotations: List[Tuple[str, Any]] = field(default_factory=list)
    categories: List[str] = field(default_factory=list)
    plain_text: str = ""

    def annotation_values(self, prop: str) -> List[Any]:
        """Every value annotated for ``prop`` (case-insensitive name)."""
        wanted = prop.lower()
        return [value for name, value in self.annotations if name.lower() == wanted]


def coerce_annotation_value(raw: str) -> Any:
    """Type a raw annotation value: int, float, bool, or stripped string.

    A spelling ``float()`` reads as infinite or NaN (``inf``, ``NaN``,
    ``Infinity``, ``1e400``) stays the string it was, so no store holds a
    non-finite float and every JSON body can carry the value.

    >>> [coerce_annotation_value(raw) for raw in (" 42 ", "2.5", "True", "NaN", "1e400")]
    [42, 2.5, True, 'NaN', '1e400']
    """
    text = raw.strip()
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        number = float(text)
    except ValueError:
        return text
    return number if math.isfinite(number) else text


def parse_wikitext(text: str) -> ParsedWikitext:
    """Parse ``text`` into a :class:`ParsedWikitext`."""
    result = ParsedWikitext()
    plain_parts: List[str] = []
    cursor = 0
    for match in _LINK_RE.finditer(text):
        plain_parts.append(text[cursor : match.start()])
        cursor = match.end()
        inner = match.group(1)
        label = None
        if "|" in inner:
            inner, label = inner.split("|", 1)
        inner = inner.strip()
        if "::" in inner:
            prop, _, raw_value = inner.partition("::")
            prop = prop.strip()
            value = coerce_annotation_value(raw_value)
            if prop:
                result.annotations.append((prop, value))
                if isinstance(value, str) and value:
                    result.links.append(value)
            plain_parts.append(label.strip() if label else str(value))
        elif inner.lower().startswith("category:"):
            category = inner.split(":", 1)[1].strip()
            if category:
                result.categories.append(category)
            # Category tags render as nothing in the page body.
        else:
            if inner:
                result.links.append(inner)
            plain_parts.append(label.strip() if label else inner)
    plain_parts.append(text[cursor:])
    result.plain_text = re.sub(r"\s+", " ", "".join(plain_parts)).strip()
    return result


def render_annotations(annotations: List[Tuple[str, Any]], links: List[str] = ()) -> str:
    """Build wikitext carrying ``annotations`` and extra plain ``links``.

    The inverse convenience of :func:`parse_wikitext`, used by the bulk
    loader to materialize metadata records as wiki pages.
    """
    parts = [f"[[{prop}::{value}]]" for prop, value in annotations]
    parts.extend(f"[[{target}]]" for target in links)
    return "\n".join(parts)
