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

Invariant — **no memo of its own, so no generation to miss.** The
backward step reads ``WikiSite.backlinks``, the index every save keeps
current, under ``smr.lock.read()`` because it reads ``smr.wiki``
directly. The property weights come from the ranker, stamped with its
generation, so a read after a write or a forced ranker refresh sees
both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.ranking import PageRankRanker
from repro.core.results import SearchResults
from repro.smr.repository import SensorMetadataRepository


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

    def _naming(self, title: str) -> List[Tuple[str, str]]:
        """``(property, source title)`` per annotation whose value names ``title``.

        Sources in title order, each one's annotations in their order.
        """
        key = title.strip().lower()
        with self.smr.lock.read():
            wiki = self.smr.wiki
            return [
                (prop.lower(), source)
                for source in wiki.backlinks(title)
                for prop, value in wiki.parsed(source).annotations
                if isinstance(value, str) and value.strip().lower() == key
            ]

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
            for prop, source in self._naming(result.title):
                credit(source, prop, result.title)

        ranked = sorted(scores.values(), key=lambda rec: (-rec.score, rec.title))
        return ranked[:k]
