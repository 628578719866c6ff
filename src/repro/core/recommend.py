"""The recommendation mechanism.

"A recommendation mechanism is embedded to our system. This presents
relevant pages based on the combination of query inputs and properties
that are high-scored by the PageRank algorithm."

Given a result set, the recommender walks each result's semantic
neighborhood — pages its annotations point to, and pages that annotate it
— and scores every neighbor by

    sum over connections of  PageRank(neighbor) x weight(property),

where ``weight`` is the property-importance measure from
:class:`~repro.core.ranking.PageRankRanker` (total PageRank mass of pages
carrying that property). Pages already in the result set are excluded;
each recommendation records *why* it was proposed.

Invariant — **stamped with the generation it was built from.** The
backward step reads a reverse-link map (target page -> the pages whose
annotations name it). The map is one ``(generation, map)`` memo, where
the generation is :attr:`~repro.core.ranking.PageRankRanker.generation`.
It is built under ``smr.lock.read()``, because it reads ``smr.wiki``
directly, with the generation read inside that lock before the build.
The first read after a write or a forced ranker refresh rebuilds it,
and the rebuilt map is published in one assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.ranking import Generation, PageRankRanker
from repro.core.results import SearchResults
from repro.smr.repository import SensorMetadataRepository

#: target title-key -> [(property, source title)].
ReverseLinks = Dict[str, List[Tuple[str, str]]]


@dataclass
class Recommendation:
    """One proposed page with its provenance."""

    title: str
    score: float
    reasons: List[Tuple[str, str]] = field(default_factory=list)  # (via_property, from_title)

    def describe(self) -> str:
        """One-line summary: title, score, and the first few reasons."""
        via = ", ".join(f"{prop} of {src}" for prop, src in self.reasons[:3])
        return f"{self.title} (score {self.score:.3g}; via {via})"


class Recommender:
    """Semantic-neighborhood recommendations weighted by PageRank."""

    def __init__(self, smr: SensorMetadataRepository, ranker: PageRankRanker):
        self.smr = smr
        self.ranker = ranker
        self._reverse: Optional[Tuple[Generation, ReverseLinks]] = None

    def _reverse_links(self) -> ReverseLinks:
        """target title-key -> [(property, source title)] across the wiki."""
        with self.smr.lock.read():
            generation = self.ranker.generation
            memo = self._reverse
            if memo is not None and memo[0] == generation:
                return memo[1]
            wiki = self.smr.wiki
            reverse: ReverseLinks = {}
            for title in wiki.titles():
                for prop, value in wiki.annotations(title):
                    if isinstance(value, str) and wiki.has(value):
                        key = value.strip().lower()
                        reverse.setdefault(key, []).append((prop.lower(), title))
        self._reverse = (generation, reverse)
        return reverse

    def recommend(
        self, results: SearchResults, k: int = 5, fanout: int = 10
    ) -> List[Recommendation]:
        """Return up to ``k`` pages related to the top ``fanout`` results."""
        if k <= 0:
            return []
        exclude = {title.strip().lower() for title in results.titles}
        weights = self.ranker.property_weights()
        max_weight = max(weights.values(), default=1.0) or 1.0
        scores: Dict[str, Recommendation] = {}

        def credit(neighbor: str, prop: str, source: str) -> None:
            key = neighbor.strip().lower()
            if key in exclude or not self.smr.wiki.has(neighbor):
                return
            canonical = self.smr.wiki.get(neighbor).title
            gain = self.ranker.score(canonical) * (
                weights.get(prop.lower(), 0.0) / max_weight
            )
            entry = scores.get(key)
            if entry is None:
                entry = Recommendation(canonical, 0.0)
                scores[key] = entry
            entry.score += gain
            entry.reasons.append((prop.lower(), source))

        for result in results.results[:fanout]:
            # Forward: pages this result's annotations point to.
            for prop, value in self.smr.annotations(result.title):
                if isinstance(value, str):
                    credit(value, prop, result.title)
            # Backward: pages whose annotations point at this result.
            for prop, source in self._reverse_links().get(
                result.title.strip().lower(), []
            ):
                credit(source, prop, result.title)

        ranked = sorted(scores.values(), key=lambda rec: (-rec.score, rec.title))
        return ranked[:k]
