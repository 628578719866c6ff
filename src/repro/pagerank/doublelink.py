"""The double linking structure of the paper (Section III).

Every metadata page carries two kinds of links: ordinary web-page links and
semantic links induced by RDF properties. The paper extends PageRank "to
consider these two links simultaneously". We reproduce that by blending the
two row-normalized transition matrices,

    M = alpha * P_web + (1 - alpha) * P_sem,

with a per-page fallback: a page that has links of only one kind follows
that kind with probability 1 (otherwise blending with an all-zero row would
leak probability mass and silently demote such pages — the very problem the
paper calls "non-trivial": *not all of the metadata pages have semantic
attributes*). Pages with neither kind of link remain dangling and are
handled by the Eq. 1 correction.

:func:`blend_transition` is the one blend: it takes the two 0/1 adjacency
matrices as CSR and builds ``M`` with a handful of numpy calls, so the
ranker can blend the link targets the wiki keeps without building a
:class:`~repro.pagerank.webgraph.LinkGraph`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import LinalgError
from repro.linalg import CsrMatrix
from repro.pagerank.webgraph import LinkGraph, PageRankProblem


def blend_transition(web: CsrMatrix, semantic: CsrMatrix, alpha: float = 0.5) -> CsrMatrix:
    """The blended transition matrix ``M`` of two 0/1 adjacency matrices.

    ``web`` and ``semantic`` index the same pages. ``alpha`` is the
    weight of the *web* structure: a row with both kinds of link gives
    weight ``alpha`` to its web links and ``1 - alpha`` to its semantic
    links, and a row with one kind gives that kind 1.0 (the per-page
    fallback). Each entry is its kind's ``weight / degree``. At the
    extremes the fallback is disabled: the other kind has weight 0
    everywhere and stores no entry, so ``alpha=1`` is exactly classic
    PageRank over web links and ``alpha=0`` semantic-only, the pure
    single-structure ablation variants.

    All web entries precede all semantic entries, so the stable sort of
    :meth:`CsrMatrix.from_coo_arrays` sums a link of both kinds as the
    web share plus the semantic share, the order a per-page loop adds
    them in: the arrays are those of that loop, byte for byte.
    """
    if not 0.0 <= alpha <= 1.0:
        raise LinalgError(f"alpha must lie in [0, 1], got {alpha}")
    if web.shape != semantic.shape or web.nrows != web.ncols:
        raise LinalgError(
            f"both structures must be square over the same pages: {web.shape} vs {semantic.shape}"
        )
    web_degree, semantic_degree = np.diff(web.indptr), np.diff(semantic.indptr)
    kinds = []
    if alpha > 0.0:
        kinds.append((web, np.where(semantic_degree > 0, alpha, 1.0), web_degree))
    if alpha < 1.0:
        kinds.append((semantic, np.where(web_degree > 0, 1.0 - alpha, 1.0), semantic_degree))
    rows, cols, data = [], [], []
    for adjacency, weight, degree in kinds:
        row_of = adjacency.row_index()
        rows.append(row_of)
        cols.append(adjacency.indices)
        data.append((weight / np.maximum(degree, 1))[row_of])
    n = web.nrows
    return CsrMatrix.from_coo_arrays(
        n, n, np.concatenate(rows), np.concatenate(cols), np.concatenate(data)
    )


class DoubleLinkGraph:
    """A pair of link structures over the same set of pages.

    Parameters
    ----------
    web:
        The ordinary page-to-page link graph.
    semantic:
        The graph of semantic (RDF property) links.
    """

    def __init__(self, web: LinkGraph, semantic: LinkGraph):
        if web.n != semantic.n:
            raise LinalgError(
                f"both structures must cover the same pages: {web.n} vs {semantic.n}"
            )
        self.web = web
        self.semantic = semantic
        self.n = web.n

    def transition_matrix(self, alpha: float = 0.5) -> CsrMatrix:
        """Return the blended transition matrix ``M`` (:func:`blend_transition`)."""
        return blend_transition(self.web.adjacency(), self.semantic.adjacency(), alpha)

    def to_problem(
        self,
        alpha: float = 0.5,
        teleport: float = 0.85,
        personalization: Optional[Sequence[float]] = None,
    ) -> PageRankProblem:
        """Build the :class:`PageRankProblem` for the blended structure."""
        return PageRankProblem(self.transition_matrix(alpha), teleport, personalization)

    def dangling_nodes(self) -> np.ndarray:
        """Pages with neither web nor semantic out-links."""
        return self.web.dangling_nodes() & self.semantic.dangling_nodes()

    def __repr__(self) -> str:
        return (
            f"DoubleLinkGraph(n={self.n}, web_edges={self.web.edge_count}, "
            f"semantic_edges={self.semantic.edge_count})"
        )


def combine_link_structures(
    web: LinkGraph,
    semantic: LinkGraph,
    alpha: float = 0.5,
    teleport: float = 0.85,
    personalization: Optional[Sequence[float]] = None,
) -> PageRankProblem:
    """One-call helper: blend two structures and return the PageRank problem."""
    return DoubleLinkGraph(web, semantic).to_problem(alpha, teleport, personalization)
