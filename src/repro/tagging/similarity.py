"""The Matrix Transformation module (Fig. 4).

"The stored tags are given as input to the Matrix Transformation module.
This module then computes tag matrices based on using the cosine
similarity measure (two tags considered similar for a threshold above
50%). Each matrix is considered as a graph in which 1 denotes a link from
one tag to another and 0 denotes no linking between tags."

Each tag's vector is the set of pages it annotates (binary occurrence
vector); the cosine of two tags is then their page-overlap normalized by
the geometric mean of their frequencies — co-occurring tags are similar.

The matrix is built by a vectorized tile kernel over a tag↔page
incidence CSR (:func:`_similarity_tile`): for binary vectors the legacy
per-pair :func:`cosine_similarity` reduces to ``overlap / (sqrt(|a|) *
sqrt(|b|))``, and the kernel performs those exact float operations, so
the result is bitwise identical to the historical dict-based loop
(pinned in ``tests/test_tagging.py``). One call computes every row.
:func:`cosine_similarity` itself stays as that loop's reference and as
the page-to-page measure of :meth:`repro.tagging.TaggingSystem.similar_pages`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping

import numpy as np

from repro.errors import TaggingError
from repro.tagging.store import TagStore

DEFAULT_THRESHOLD = 0.5  # the paper's "above 50%"


def cosine_similarity(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Return the cosine of two sparse vectors (0.0 when either is empty).

    The result is clamped to [0, 1] for non-negative inputs; negative
    components are allowed and can push it to [-1, 1].
    """
    if not a or not b:
        return 0.0
    # Iterate over the smaller dict for the dot product.
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    dot = sum(value * large.get(key, 0.0) for key, value in small.items())
    norm_a = math.sqrt(sum(value * value for value in a.values()))
    norm_b = math.sqrt(sum(value * value for value in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


@dataclass
class SimilarityMatrix:
    """Pairwise tag similarities plus the thresholded 0/1 adjacency."""

    tags: List[str]
    similarities: np.ndarray  # dense, symmetric, unit diagonal
    adjacency: np.ndarray  # 0/1, zero diagonal
    threshold: float

    def similarity(self, tag_a: str, tag_b: str) -> float:
        """The cosine between two tags; raises for unknown tags."""
        try:
            i, j = self.tags.index(tag_a), self.tags.index(tag_b)
        except ValueError as exc:
            raise TaggingError(f"unknown tag in similarity lookup: {exc}") from None
        return float(self.similarities[i, j])

    def linked(self, tag_a: str, tag_b: str) -> bool:
        """True when the two tags exceed the similarity threshold."""
        i, j = self.tags.index(tag_a), self.tags.index(tag_b)
        return bool(self.adjacency[i, j])


def _incidence_arrays(store: TagStore, tags: List[str]) -> Dict[str, np.ndarray]:
    """Tag→page and page→tag incidence CSR arrays plus per-tag norms.

    Page ids are positions in the sorted union of annotated pages; both
    directions are needed because a tile computes one tag's overlaps by
    walking its pages and counting the *other* tags on each page.
    """
    page_ids: Dict[str, int] = {}
    tag_pages: List[List[int]] = []
    for tag in tags:
        pages = store.pages_of(tag)
        ids = []
        for page in pages:
            pid = page_ids.setdefault(page, len(page_ids))
            ids.append(pid)
        tag_pages.append(ids)
    n, m = len(tags), len(page_ids)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, ids in enumerate(tag_pages):
        indptr[i + 1] = indptr[i] + len(ids)
    indices = np.zeros(int(indptr[-1]), dtype=np.int64)
    for i, ids in enumerate(tag_pages):
        indices[indptr[i] : indptr[i + 1]] = ids
    # transpose: page -> tags, via a counting sort over the same pairs
    tindptr = np.zeros(m + 1, dtype=np.int64)
    if indices.size:
        np.add.at(tindptr, indices + 1, 1)
        np.cumsum(tindptr, out=tindptr)
    tindices = np.zeros(indices.size, dtype=np.int64)
    cursor = tindptr[:-1].copy()
    for i in range(n):
        for pid in indices[indptr[i] : indptr[i + 1]]:
            tindices[cursor[pid]] = i
            cursor[pid] += 1
    counts = (indptr[1:] - indptr[:-1]).astype(float)
    return {
        "indptr": indptr,
        "indices": indices,
        "tindptr": tindptr,
        "tindices": tindices,
        "sqrtc": np.sqrt(counts),
    }


def _similarity_tile(
    arrays: Dict[str, np.ndarray], start: int, stop: int
) -> np.ndarray:
    """Rows ``[start, stop)`` of the cosine matrix over incidence slabs.

    For binary page vectors the cosine is ``overlap / (sqrt(|a|) *
    sqrt(|b|))`` — the same float divides and multiplies, in the same
    order, as :func:`cosine_similarity` on 1.0-valued dicts, so tiles
    are bitwise identical to the legacy pairwise loop.
    Empty tags get 0.0 rows/columns (the legacy empty-vector contract);
    the diagonal is left as computed — the caller overwrites it with
    exact 1.0, as the legacy ``np.eye`` seed did.
    """
    indptr = arrays["indptr"]
    indices = arrays["indices"]
    tindptr = arrays["tindptr"]
    tindices = arrays["tindices"]
    sqrtc = arrays["sqrtc"]
    n = sqrtc.size
    out = np.zeros((stop - start, n))
    for row, i in enumerate(range(start, stop)):
        lo, hi = indptr[i], indptr[i + 1]
        if hi == lo:
            continue  # empty tag: cosine 0.0 against everything
        cotags = np.concatenate(
            [tindices[tindptr[p] : tindptr[p + 1]] for p in indices[lo:hi]]
        )
        overlap = np.bincount(cotags, minlength=n).astype(float)
        denom = sqrtc[i] * sqrtc
        nonzero = denom > 0.0
        out[row, nonzero] = overlap[nonzero] / denom[nonzero]
    return out


def build_similarity(
    store: TagStore, threshold: float = DEFAULT_THRESHOLD
) -> SimilarityMatrix:
    """Compute the tag similarity matrix from a tag store.

    ``threshold`` is exclusive, per the paper's "above 50 %": a cosine of
    exactly 0.5 does *not* link two tags.
    """
    if not 0.0 <= threshold <= 1.0:
        raise TaggingError(f"threshold must lie in [0, 1], got {threshold}")
    tags = store.tags()
    n = len(tags)
    arrays = _incidence_arrays(store, tags)
    similarities = _similarity_tile(arrays, 0, n)
    if n:
        np.fill_diagonal(similarities, 1.0)
    adjacency = (similarities > threshold).astype(float)
    if n:
        np.fill_diagonal(adjacency, 0.0)
    return SimilarityMatrix(tags, similarities, adjacency, threshold)
