"""Link graphs and the PageRank transition matrices of Eqs. 1–2.

A :class:`LinkGraph` stores a directed graph over ``n`` pages. From it we
derive the row-normalized transition matrix ``P`` (``P_ij = A_ij / deg(i)``),
the dangling-page indicator ``d`` (pages with no out-links), and — through
:class:`PageRankProblem` — the stochastic, irreducible operator

    P'' = c (P + d uᵀ) + (1 - c) e uᵀ

of Eq. 2 that every solver in :mod:`repro.pagerank.solvers` targets.
``P''`` is never materialized: its action on a vector is a sparse product
plus two rank-1 corrections.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LinalgError
from repro.linalg import CooMatrix, CsrMatrix


class LinkGraph:
    """A directed graph over pages ``0 .. n-1``.

    Parallel edges collapse to a single link (the web adjacency matrix of
    the paper is 0/1); self-links are permitted but conventionally excluded
    by the generators.
    """

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise LinalgError(f"node count must be non-negative, got {n}")
        self.n = n
        self._out: list[set[int]] = [set() for _ in range(n)]
        for src, dst in edges:
            self.add_edge(src, dst)

    def add_edge(self, src: int, dst: int) -> None:
        """Add the directed link ``src -> dst`` (idempotent)."""
        if not (0 <= src < self.n and 0 <= dst < self.n):
            raise LinalgError(f"edge ({src}, {dst}) outside graph of {self.n} nodes")
        self._out[src].add(dst)

    def out_links(self, node: int) -> frozenset[int]:
        """Return the set of pages ``node`` links to."""
        return frozenset(self._out[node])

    def out_degree(self, node: int) -> int:
        """Number of pages ``node`` links to."""
        return len(self._out[node])

    @property
    def edge_count(self) -> int:
        return sum(len(links) for links in self._out)

    def edges(self) -> Iterable[Tuple[int, int]]:
        """Yield every ``(src, dst)`` link, sorted for determinism."""
        for src in range(self.n):
            for dst in sorted(self._out[src]):
                yield src, dst

    def dangling_nodes(self) -> np.ndarray:
        """Return the boolean dangling indicator ``d`` (no out-links)."""
        return np.array([len(links) == 0 for links in self._out], dtype=bool)

    def adjacency(self) -> CsrMatrix:
        """Return the 0/1 adjacency matrix ``A`` in CSR form."""
        coo = CooMatrix(self.n, self.n)
        for src, dst in self.edges():
            coo.add(src, dst, 1.0)
        return coo.to_csr()

    def transition_matrix(self) -> CsrMatrix:
        """Return ``P`` with ``P_ij = A_ij / deg(i)``; dangling rows stay zero."""
        coo = CooMatrix(self.n, self.n)
        for src in range(self.n):
            degree = len(self._out[src])
            if degree == 0:
                continue
            weight = 1.0 / degree
            for dst in sorted(self._out[src]):
                coo.add(src, dst, weight)
        return coo.to_csr()

    def reversed(self) -> "LinkGraph":
        """Return the graph with every edge direction flipped."""
        return LinkGraph(self.n, ((dst, src) for src, dst in self.edges()))

    def __repr__(self) -> str:
        return f"LinkGraph(n={self.n}, edges={self.edge_count})"


class PageRankProblem:
    """A fully specified PageRank instance (Eq. 2).

    Parameters
    ----------
    transition:
        Row-substochastic matrix ``P`` — row sums are 1 for pages with
        out-links and 0 for dangling pages.
    teleport:
        The coefficient ``c`` of Eq. 2; the paper uses ``0.85 <= c < 1``.
    personalization:
        The distribution ``u``; uniform ``1/n`` when omitted.
    """

    def __init__(
        self,
        transition: CsrMatrix,
        teleport: float = 0.85,
        personalization: Optional[Sequence[float]] = None,
    ):
        if transition.nrows != transition.ncols:
            raise LinalgError(f"transition matrix must be square, got {transition.shape}")
        if not 0.0 < teleport < 1.0:
            raise LinalgError(f"teleport coefficient must lie in (0, 1), got {teleport}")
        row_sums = transition.row_sums()
        if np.any(transition.data < -1e-12):
            raise LinalgError("transition matrix entries must be non-negative")
        if np.any(row_sums > 1.0 + 1e-9):
            raise LinalgError("transition matrix rows must sum to at most 1")
        self.transition = transition
        self.teleport = float(teleport)
        self.n = transition.nrows
        if personalization is None:
            if self.n == 0:
                raise LinalgError("cannot build a PageRank problem over zero pages")
            self.personalization = np.full(self.n, 1.0 / self.n)
        else:
            vec = np.asarray(personalization, dtype=float)
            if vec.shape != (self.n,):
                raise LinalgError(f"personalization must have length {self.n}, got {vec.shape}")
            if np.any(vec < 0) or not np.isclose(vec.sum(), 1.0):
                raise LinalgError("personalization must be a probability distribution")
            self.personalization = vec
        # Dangling rows are those whose transition row sums to ~0. The
        # flat index array makes the per-iteration dangling-mass gather a
        # short fancy-index instead of a full boolean scan — most pages
        # are not dangling, so this is the cheaper form on the hot path.
        self.dangling = row_sums < 1e-12
        self._dangling_idx = np.flatnonzero(self.dangling)
        self._transition_t = transition.transpose()

    @property
    def transition_t(self) -> CsrMatrix:
        """The cached transpose ``Pᵀ``.

        Built once at construction and shared: the linear-system solvers
        iterate on it, and row ``j`` of it is exactly the in-link list
        :mod:`repro.pagerank.contributions` reads to decompose page
        ``j``'s score.
        """
        return self._transition_t

    @classmethod
    def from_graph(
        cls,
        graph: LinkGraph,
        teleport: float = 0.85,
        personalization: Optional[Sequence[float]] = None,
    ) -> "PageRankProblem":
        """Build a problem straight from a :class:`LinkGraph`."""
        return cls(graph.transition_matrix(), teleport, personalization)

    def apply_google_matrix(self, x: np.ndarray) -> np.ndarray:
        """Return ``(P'')ᵀ x`` — one power-iteration step (Eq. 3).

        Expanding Eq. 2,

            (P'')ᵀ x = c Pᵀ x + c (dᵀ x) u + (1 - c) (eᵀ x) u

        so the dangling and teleport corrections are rank-1 updates and the
        sparse structure of ``P`` is preserved.
        """
        x = np.asarray(x, dtype=float)
        result = self.teleport * self._transition_t.matvec(x)
        dangling_mass = float(x[self._dangling_idx].sum())
        total_mass = float(x.sum())
        result += (self.teleport * dangling_mass + (1.0 - self.teleport) * total_mass) * self.personalization
        return result

    def residual(self, x: np.ndarray) -> float:
        """Return ``||(P'')ᵀ x - x||₁`` for a candidate solution ``x``."""
        x = np.asarray(x, dtype=float)
        return float(np.abs(self.apply_google_matrix(x) - x).sum())

    def __repr__(self) -> str:
        return (
            f"PageRankProblem(n={self.n}, c={self.teleport}, "
            f"dangling={int(self.dangling.sum())})"
        )
