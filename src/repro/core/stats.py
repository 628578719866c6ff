"""Corpus statistics: the platform overview numbers the demo's landing
pages show ("which institutions participate mostly, which is the most
popular project..." — the trends the tag clouds visualize, in exact form).

:func:`corpus_statistics` computes per-kind counts, property coverage,
and link-structure statistics (degree distributions, dangling fraction)
for one repository.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.linalg import CsrMatrix
from repro.smr.repository import SensorMetadataRepository


@dataclass
class LinkStats:
    """Degree statistics of one link structure."""

    edges: int
    dangling_fraction: float
    max_out_degree: int
    mean_out_degree: float


@dataclass
class CorpusStatistics:
    """Everything :func:`corpus_statistics` reports."""

    page_count: int
    pages_per_kind: Dict[str, int]
    property_usage: Dict[str, int]  # property -> pages using it
    property_coverage: Dict[str, float]  # property -> fraction of pages
    web_links: LinkStats
    semantic_links: LinkStats
    top_values: Dict[str, List[Tuple[str, int]]] = field(default_factory=dict)

    def format_report(self) -> str:
        """Render the statistics as an aligned text report."""
        lines = [f"pages: {self.page_count}"]
        for kind, count in sorted(self.pages_per_kind.items()):
            lines.append(f"  {kind:<12} {count}")
        lines.append(
            f"web links: {self.web_links.edges} edges, "
            f"{self.web_links.dangling_fraction:.0%} dangling, "
            f"max out-degree {self.web_links.max_out_degree}"
        )
        lines.append(
            f"semantic links: {self.semantic_links.edges} edges, "
            f"{self.semantic_links.dangling_fraction:.0%} dangling"
        )
        lines.append("property coverage:")
        for prop, coverage in sorted(
            self.property_coverage.items(), key=lambda item: -item[1]
        )[:10]:
            lines.append(f"  {prop:<20} {coverage:.0%}")
        return "\n".join(lines)


def _link_stats(adjacency: CsrMatrix) -> LinkStats:
    """The degree statistics of a 0/1 adjacency matrix, one entry per link."""
    n = adjacency.nrows or 1
    degrees = np.diff(adjacency.indptr)
    return LinkStats(
        edges=adjacency.nnz,
        dangling_fraction=int(np.count_nonzero(degrees == 0)) / n,
        max_out_degree=int(degrees.max(initial=0)),
        mean_out_degree=int(degrees.sum()) / n,
    )


def corpus_statistics(
    smr: SensorMetadataRepository, top_values_for: Tuple[str, ...] = ()
) -> CorpusStatistics:
    """Compute the statistics of ``smr``.

    ``top_values_for`` lists properties whose most-frequent values should
    be included (e.g. ``("project", "institution")`` for the "who
    participates most" trends).
    """
    titles = smr.titles()
    pages_per_kind: Counter = Counter(smr.kind_of(title) for title in titles)
    property_pages: Dict[str, set] = {}
    for title in titles:
        for prop, _ in smr.annotations(title):
            property_pages.setdefault(prop.lower(), set()).add(title)
    usage = {prop: len(pages) for prop, pages in property_pages.items()}
    total = len(titles) or 1
    coverage = {prop: count / total for prop, count in usage.items()}
    top_values: Dict[str, List[Tuple[str, int]]] = {}
    for prop in top_values_for:
        values = Counter(
            str(value) for value in smr.wiki.property_values(prop)
        )
        top_values[prop.lower()] = values.most_common(5)
    with smr.lock.read():  # reading smr.wiki bypasses the facade's locks
        web, semantic = smr.wiki.link_adjacency()
    return CorpusStatistics(
        page_count=len(titles),
        pages_per_kind=dict(pages_per_kind),
        property_usage=usage,
        property_coverage=coverage,
        web_links=_link_stats(web),
        semantic_links=_link_stats(semantic),
        top_values=top_values,
    )
