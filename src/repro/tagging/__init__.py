"""The Dynamic Tagging System (paper, Section IV and Fig. 4).

The pipeline reproduces the architecture figure module for module:

    Interface -> Parser (SMR I/O) -> Cache -> Matrix Transformation
    (cosine similarity, 50 % threshold) -> Graph -> Max Clique
    (Bron-Kerbosch) -> Font Size Calculation (Eq. 6) -> tag cloud

- :mod:`repro.tagging.store` — tag storage + the Parser that fetches
  property values from the SMR as tags;
- :mod:`repro.tagging.similarity` — the Matrix Transformation module
  and the cosine similarity it is built on;
- :mod:`repro.tagging.graphmod` — the Graph module;
- :mod:`repro.tagging.cliques` — Bron-Kerbosch with pivoting and
  degeneracy ordering;
- :mod:`repro.tagging.fontsize` — Eq. 6 verbatim;
- :mod:`repro.tagging.cloud` — the assembled tag cloud;
- :mod:`repro.tagging.interface` — the user-facing command surface,
  whose Cache is :class:`repro.perf.GenerationalLruCache` stamped with
  the tag store's version.
"""

from repro.tagging.store import TagStore
from repro.tagging.similarity import SimilarityMatrix, build_similarity
from repro.tagging.graphmod import TagGraph
from repro.tagging.cliques import bron_kerbosch, degeneracy_order
from repro.tagging.fontsize import font_sizes
from repro.tagging.cloud import TagCloud, TagCloudBuilder, TagEntry
from repro.tagging.interface import TaggingSystem

__all__ = [
    "TagStore",
    "SimilarityMatrix",
    "build_similarity",
    "TagGraph",
    "bron_kerbosch",
    "degeneracy_order",
    "font_sizes",
    "TagCloud",
    "TagCloudBuilder",
    "TagEntry",
    "TaggingSystem",
]
