"""Autocomplete and the dynamic drop-downs of the query interface (Fig. 7).

Three completion surfaces, weighted so popular entries surface first:

- page titles (weighted by PageRank — important pages complete first);
- semantic property names (weighted by usage count);
- property *values*, per (kind, property) — these are the paper's
  "drop-down menus that change dynamically based on the chosen
  properties of schema".

Invariants:

- **Titles and properties read what every write keeps.** A title
  completion ranks :meth:`~repro.wiki.site.WikiSite.titles_with_prefix`,
  a bisect over the wiki's kept sorted keys, and a property completion
  filters :meth:`~repro.wiki.site.WikiSite.property_counts`; both are
  current after every ``register()`` and read under ``smr.lock.read()``,
  so the first read after a write costs what a repeat read costs. Both
  order matches by weight descending, then by lower-case text.
- **Drop-down values stamped with the generation they were built from.**
  The values dict is one ``(generation, value)`` memo, where the
  generation is :attr:`~repro.core.ranking.PageRankRanker.generation`.
  It is read before a rebuild, and the first read after a write or a
  forced ranker refresh rebuilds the memo, so no caller has to
  invalidate anything. A rebuilt memo is published in one assignment: a
  concurrent reader sees the old value or the new one, never a half-built
  dict.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from repro.core.ranking import Generation, PageRankRanker
from repro.errors import QueryError
from repro.smr.repository import SensorMetadataRepository

#: One (kind, property) drop-down: distinct values with usage counts.
ValueCounts = List[Tuple[Any, int]]


class AutocompleteService:
    """Completions over one SMR; only the drop-down values are memoized."""

    def __init__(self, smr: SensorMetadataRepository, ranker: PageRankRanker):
        self.smr = smr
        self.ranker = ranker
        # (generation, (kind, property) -> values); ``None`` until first built.
        self._values: Optional[
            Tuple[Generation, Dict[Tuple[Optional[str], str], ValueCounts]]
        ] = None

    # ------------------------------------------------------------------
    # Titles
    # ------------------------------------------------------------------

    def complete_title(self, prefix: str, limit: int = 10) -> List[str]:
        """Page-title completions, most important pages first.

        A title weighs ``1.0 + 1000 * score`` by its PageRank; equal
        weights order by lower-case title. Matching ignores case.
        """
        scores = self.ranker.scores()  # before the lock: it may take the refresh lock
        with self.smr.lock.read():
            titles = self.smr.wiki.titles_with_prefix(prefix)
        weighted = sorted(
            titles, key=lambda title: (-(1.0 + scores.get(title, 0.0) * 1000.0), title.lower())
        )
        return weighted[:limit]

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    def complete_property(self, prefix: str, limit: int = 10) -> List[str]:
        """Lower-case property-name completions, most used first, then alphabetical."""
        lowered = prefix.lower()
        with self.smr.lock.read():
            counts = self.smr.wiki.property_counts()
        names = sorted(
            (-count, name) for name, count in counts.items() if name.startswith(lowered)
        )
        return [name for _, name in names[:limit]]

    # ------------------------------------------------------------------
    # Dynamic drop-downs (values per property)
    # ------------------------------------------------------------------

    def values_for(
        self, prop: str, kind: Optional[str] = None, limit: Optional[int] = None
    ) -> ValueCounts:
        """Distinct values of ``prop`` with usage counts, most common first.

        ``kind`` narrows to one metadata kind — exactly how the demo's
        drop-downs repopulate when the user picks a schema property.
        """
        if not prop:
            raise QueryError("values_for() needs a property name")
        key = (kind.lower() if kind else None, prop.lower())
        generation = self.ranker.generation
        memo = self._values
        if memo is None or memo[0] != generation:
            memo = self._values = (generation, {})
        values = memo[1].get(key)
        if values is None:
            counts: Counter = Counter()
            titles = self.smr.titles(kind) if kind else self.smr.titles()
            for title in titles:
                for name, value in self.smr.annotations(title):
                    if name.lower() == key[1]:
                        counts[value] += 1
            values = sorted(counts.items(), key=lambda item: (-item[1], str(item[0])))
            memo[1][key] = values
        return values[:limit] if limit is not None else list(values)

    def complete_value(
        self, prop: str, prefix: str, kind: Optional[str] = None, limit: int = 10
    ) -> List[str]:
        """String-value completions of ``prop`` starting with ``prefix``."""
        lowered = prefix.lower()
        matches = [
            str(value)
            for value, _ in self.values_for(prop, kind)
            if isinstance(value, str) and value.lower().startswith(lowered)
        ]
        return matches[:limit]
