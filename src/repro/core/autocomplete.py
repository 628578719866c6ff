"""Autocomplete and the dynamic drop-downs of the query interface (Fig. 7).

Three completion surfaces, all trie-backed and weighted so popular
entries surface first:

- page titles (weighted by PageRank — important pages complete first);
- semantic property names (weighted by usage count);
- property *values*, per (kind, property) — these are the paper's
  "drop-down menus that change dynamically based on the chosen
  properties of schema".

Invariant — **stamped with the generation they were built from.** The
title trie (with its case map), the property trie and the values dict
are each one ``(generation, value)`` memo, where the generation is
:attr:`~repro.core.ranking.PageRankRanker.generation`. It is read before
a rebuild, and the first read after a write or a forced ranker refresh
rebuilds the memo, so no caller has to invalidate anything. A rebuilt
memo is published in one assignment: a concurrent reader sees the old
value or the new one, never a half-built trie.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from repro.core.ranking import Generation, PageRankRanker
from repro.errors import QueryError
from repro.smr.repository import SensorMetadataRepository
from repro.text.trie import Trie

#: One (kind, property) drop-down: distinct values with usage counts.
ValueCounts = List[Tuple[Any, int]]


class AutocompleteService:
    """Lazy, generation-stamped completion indexes over one SMR."""

    def __init__(self, smr: SensorMetadataRepository, ranker: PageRankRanker):
        self.smr = smr
        self.ranker = ranker
        # Each memo is (generation, value); ``None`` until first built.
        self._titles: Optional[Tuple[Generation, Tuple[Trie, Dict[str, str]]]] = None
        self._properties: Optional[Tuple[Generation, Trie]] = None
        self._values: Optional[
            Tuple[Generation, Dict[Tuple[Optional[str], str], ValueCounts]]
        ] = None

    # ------------------------------------------------------------------
    # Titles
    # ------------------------------------------------------------------

    def complete_title(self, prefix: str, limit: int = 10) -> List[str]:
        """Page-title completions, most important pages first."""
        generation = self.ranker.generation
        memo = self._titles
        if memo is None or memo[0] != generation:
            trie = Trie()
            case: Dict[str, str] = {}  # lower-case -> original title
            scores = self.ranker.scores()
            for title in self.smr.titles():
                trie.insert(title, weight=1.0 + scores.get(title, 0.0) * 1000.0)
                case[title.lower()] = title
            memo = self._titles = (generation, (trie, case))
        trie, case = memo[1]
        return [case.get(item, item) for item in trie.complete(prefix, limit=limit)]

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    def complete_property(self, prefix: str, limit: int = 10) -> List[str]:
        """Semantic-property-name completions, most used first."""
        generation = self.ranker.generation
        memo = self._properties
        if memo is None or memo[0] != generation:
            trie = Trie()
            usage: Counter = Counter()
            for title in self.smr.titles():
                for prop, _ in self.smr.annotations(title):
                    usage[prop.lower()] += 1
            for prop, count in usage.items():
                trie.insert(prop, weight=float(count))
            memo = self._properties = (generation, trie)
        return memo[1].complete(prefix, limit=limit)

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
