"""Incremental PageRank updates: localized residual-driven relaxation.

The paper's operational motivation for picking Gauss–Seidel is that
"Pagerank scores need to be updated regularly as new metadata pages are
continuously created" (Section III). When only a handful of pages changed,
even a warm-started full solve sweeps every row of the Eq. 5 system

    A y = b,   A = I - c Pᵀ,   b = u.

This module relaxes *only the rows that are actually wrong*. Starting from
the previous solution ``y``, the residual ``r = b - A y`` is non-zero
(above round-off) only near the edit: rows whose in-links changed, new
pages, and pages reachable from them. Repeatedly relaxing the dirtiest
rows,

    y_i += r_i / A_ii,   then   r_k += c P_ik (r_i / A_ii)  for k ≠ i,

is the Gauss–Southwell / "push" scheme of Gleich's PageRank literature
(the paper's reference [8] lineage). Each relaxation removes ``|r_i|``
from the residual 1-norm and re-injects at most ``c |r_i|`` (row ``i`` of
``P`` sums to at most one), so the total residual decays geometrically —
the same contraction argument that makes power iteration converge, but
paid only on the dirty set.

:class:`repro.core.ranking.PageRankRanker` uses :func:`refine_incremental`
for small deltas and falls back to a full warm-started Gauss–Seidel solve
past a dirty-fraction threshold or when the relaxation budget runs out.

The push loop runs on plain floats: a relaxation touches a few entries,
where numpy's per-call cost would dwarf the arithmetic. It does the same
IEEE operations in the same order as the per-row numpy form (each
off-diagonal entry gets ``(c·v)·δ``; woken rows join the queue in CSR
column order), and residual norms are still summed by numpy, so ``y``
and every reported number are bit for bit those of the numpy form.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import LinalgError
from repro.pagerank.webgraph import PageRankProblem


@dataclass
class IncrementalResult:
    """Outcome of one localized refinement.

    ``relaxations`` counts single-row updates; ``sweep_equivalents``
    expresses the same work in full-matrix-sweep units (``relaxations/n``,
    rounded up) so it is directly comparable with the ``iterations`` of a
    cold or warm full solve.
    """

    relaxations: int
    dirty: int
    converged: bool
    final_residual: float
    #: Residual 1-norm sampled once per sweep-equivalent (every ``n``
    #: relaxations) plus the initial and final values — the incremental
    #: path's analogue of a solver's per-iteration residual series, fed
    #: to the shared convergence recorder for ``/debug/convergence``.
    residual_history: List[float] = field(default_factory=list)

    def sweep_equivalents(self, n: int) -> int:
        """Relaxation work in full-sweep units: ``ceil(relaxations / n)``."""
        if n <= 0:
            return 0
        return max(1, -(-self.relaxations // n)) if self.relaxations else 0


def initial_residual(problem: PageRankProblem, y: np.ndarray) -> np.ndarray:
    """The Eq. 5 residual ``b - (I - c Pᵀ) y`` for a candidate ``y``.

    One transpose-product — the only O(nnz) cost of the incremental path;
    everything after is proportional to the dirty set.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.n,):
        raise LinalgError(f"candidate must have length {problem.n}, got {y.shape}")
    return problem.personalization - y + problem.teleport * problem.transition.rmatvec(y)


def dirty_rows(residual: np.ndarray, rhs: np.ndarray, tol: float) -> np.ndarray:
    """Row indices whose residual exceeds the per-row convergence slice.

    The per-row threshold is ``tol * ||b||₁ / n``: once every row is below
    it, the residual 1-norm is below ``tol * ||b||₁``, matching the
    stopping convention of the stationary solvers.
    """
    n = residual.size
    rhs_norm = float(np.abs(rhs).sum()) or 1.0
    threshold = tol * rhs_norm / max(n, 1)
    return np.flatnonzero(np.abs(residual) > threshold)


def refine_incremental(
    problem: PageRankProblem,
    y: np.ndarray,
    tol: float = 1e-10,
    max_relaxations: Optional[int] = None,
    residual: Optional[np.ndarray] = None,
) -> IncrementalResult:
    """Refine ``y`` in place until ``||b - A y||₁ < tol * ||b||₁``.

    Parameters
    ----------
    y:
        Warm solution in the *linear-system gauge* (the un-normalized
        Eq. 5 vector, not the probability vector); modified in place.
    max_relaxations:
        Work budget in single-row updates; defaults to ``20 n``, beyond
        which a full sweep-based solve would have been cheaper anyway.
    residual:
        Pre-computed :func:`initial_residual`, to avoid doing the O(nnz)
        product twice when the caller already needed it for the
        dirty-fraction decision.
    """
    n = problem.n
    if max_relaxations is None:
        max_relaxations = 20 * n
    transition = problem.transition
    rhs = problem.personalization
    rhs_norm = float(np.abs(rhs).sum()) or 1.0
    threshold = tol * rhs_norm / max(n, 1)
    r = initial_residual(problem, y) if residual is None else residual
    queue = deque(int(i) for i in np.flatnonzero(np.abs(r) > threshold))
    dirty = len(queue)
    relaxations = 0
    history: List[float] = [float(np.abs(r).sum())]
    if queue:
        c = problem.teleport
        # Diagonal of A = I - c Pᵀ: unit except where P has self-links.
        diag = (1.0 - c * transition.diagonal()).tolist()
        indptr = transition.indptr.tolist()
        indices = transition.indices.tolist()
        data = transition.data.tolist()
        r_list = r.tolist()
        y_list = y.tolist()
        in_queue = [False] * n
        for i in queue:
            in_queue[i] = True
        # Sampling the norm every n relaxations keeps the bookkeeping O(1)
        # amortized per relaxation while still yielding one history point
        # per sweep-equivalent of work.
        next_sample = n
        while queue and relaxations < max_relaxations:
            i = queue.popleft()
            in_queue[i] = False
            r_i = r_list[i]
            if abs(r_i) <= threshold:
                continue
            delta = r_i / diag[i]
            y_list[i] += delta
            r_list[i] = 0.0
            relaxations += 1
            if relaxations >= next_sample:
                history.append(float(np.abs(np.array(r_list)).sum()))
                next_sample += n
            # A CSR row holds each column once, so waking row k as soon
            # as its entry is added equals the numpy form's mask taken
            # after the whole row.
            for p in range(indptr[i], indptr[i + 1]):
                k = indices[p]
                if k == i:  # self-link effect already in diag[i]
                    continue
                r_k = r_list[k] + c * data[p] * delta
                r_list[k] = r_k
                if abs(r_k) > threshold and not in_queue[k]:
                    in_queue[k] = True
                    queue.append(k)
        y[:] = y_list
        r[:] = r_list
    final = float(np.abs(r).sum())
    if not history or history[-1] != final:
        history.append(final)
    return IncrementalResult(
        relaxations=relaxations,
        dirty=dirty,
        converged=final < tol * rhs_norm,
        final_residual=final,
        residual_history=history,
    )
