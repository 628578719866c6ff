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
paid only on the rows the relaxations reach.

:class:`repro.core.ranking.PageRankRanker` uses :func:`refine_incremental`
for small deltas and falls back to a full warm-started Gauss–Seidel solve
past a dirty-fraction threshold or when the relaxation budget runs out.

The relaxations run in rounds. A round relaxes every dirty row at once
with a handful of numpy calls, whatever the number of rows: for the
active set ``S``, ``δ = r[S] / diag[S]``, ``y[S] += δ``, ``r[S] = 0``,
and one ``np.bincount`` scatters ``c P_ik δ_i`` over the active rows'
off-diagonal entries (the self-link entries are zeroed once, since their
effect is in the diagonal). Only the rows the scatter reaches can rise
above the per-row threshold, so the next round's active set is those of
them still above it. A round with few entries finds those rows with
``np.unique`` and costs what its rows' entries cost, not ``n``; a wide
round, and so every round on a small graph, scans the whole vector
instead, which costs less there and gives the same doubles. The same
bound holds for a round as for one row, so the residual still decays
geometrically; a round relaxes more rows than the one-row-at-a-time
push would, but pays about two dozen numpy calls for all of them
instead of one Python loop iteration per row. Around the rounds the
path pays a few O(nnz) passes once (the residual's transpose-product,
the diagonal, the self-link mask) and one O(n) residual norm per ``n``
relaxations, the samples of :attr:`IncrementalResult.residual_history`.

The budget counts relaxed rows and is checked between rounds, so the
last round may pass it. Its default, ``RELAXATION_BUDGET · n``, lets the
rounds run wherever they cost less than a warm full solve; a caller that
sees ``converged=False`` falls back to that solve. Relaxing rows in
rounds changes the order of the floating-point updates, so the result is
not the one-row push's to the last bit: the oracle is a cold solve, and
the two agree within ``100 · tol`` in L1 of the normalized scores
(``tests/test_warmstart_incremental.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import LinalgError
from repro.pagerank.webgraph import PageRankProblem

#: The default relaxation budget, in relaxed rows per page.
RELAXATION_BUDGET = 60

#: A round scatters over only the rows it reaches when its entries, plus
#: ``_LOCAL_OVERHEAD`` for the fixed cost of finding those rows, number
#: fewer than ``n / _LOCAL_ROUND``; otherwise over all ``n`` rows, where
#: a few passes over the vector cost less. Both give the same doubles.
_LOCAL_ROUND = 16
_LOCAL_OVERHEAD = 256


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
    #: Residual 1-norm before the first round, after the round that
    #: completes each sweep-equivalent (every ``n`` relaxations) and at
    #: the end — the incremental path's analogue of a solver's
    #: per-iteration residual series, one point per unit of
    #: :meth:`sweep_equivalents`, fed to the shared convergence recorder
    #: for ``/debug/convergence``. The last entry is ``final_residual``.
    residual_history: List[float] = field(default_factory=list)

    def sweep_equivalents(self, n: int) -> int:
        """Relaxation work in full-sweep units: ``ceil(relaxations / n)``."""
        if n <= 0:
            return 0
        return max(1, -(-self.relaxations // n)) if self.relaxations else 0


def initial_residual(problem: PageRankProblem, y: np.ndarray) -> np.ndarray:
    """The Eq. 5 residual ``b - (I - c Pᵀ) y`` for a candidate ``y``.

    One transpose-product, the largest of the few O(nnz) passes the
    incremental path pays once; its rounds cost what the entries of
    their active rows cost.
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
        Work budget in single-row updates, checked between rounds;
        defaults to ``RELAXATION_BUDGET * n``, beyond which a warm full
        solve would have been cheaper.
    residual:
        Pre-computed :func:`initial_residual`, to avoid doing the O(nnz)
        product twice when the caller already needed it for the
        dirty-fraction decision; updated in place.
    """
    n = problem.n
    if max_relaxations is None:
        max_relaxations = RELAXATION_BUDGET * n
    transition = problem.transition
    rhs_norm = float(np.abs(problem.personalization).sum()) or 1.0
    threshold = tol * rhs_norm / max(n, 1)
    r = initial_residual(problem, y) if residual is None else residual
    magnitude = np.abs(r)
    history: List[float] = [float(magnitude.sum())]
    active = np.flatnonzero(magnitude > threshold)
    dirty = int(active.size)
    relaxations = 0
    if active.size:
        c = problem.teleport
        # Diagonal of A = I - c Pᵀ: unit except where P has self-links.
        diag = 1.0 - c * transition.diagonal()
        indptr, indices = transition.indptr, transition.indices
        degree = np.diff(indptr)
        # c·P_ik per entry, with the self-links' share already in diag.
        pushed = c * transition.data
        pushed[indices == transition.row_index()] = 0.0
        # One history point per n relaxations, a sweep-equivalent of work:
        # the O(n) norm then costs O(1) per relaxation.
        next_sample = n
        while active.size and relaxations < max_relaxations:
            delta = r[active] / diag[active]
            y[active] += delta
            r[active] = 0.0
            relaxations += int(active.size)
            # The positions of the active rows' entries, row after row.
            counts = degree[active]
            ends = counts.cumsum()
            entries = (indptr[active] - ends + counts).repeat(counts)
            entries += np.arange(entries.size)
            columns = indices[entries]
            shares = pushed[entries] * delta.repeat(counts)
            if _LOCAL_ROUND * (columns.size + _LOCAL_OVERHEAD) < n:
                # Only the rows the scatter reaches can rise above the
                # threshold: every other row was at most at it last round.
                touched, slot = np.unique(columns, return_inverse=True)
                r[touched] += np.bincount(slot, weights=shares, minlength=touched.size)
                active = touched[np.abs(r[touched]) > threshold]
            else:
                r += np.bincount(columns, weights=shares, minlength=n)
                active = np.flatnonzero(np.abs(r) > threshold)
            if relaxations >= next_sample:
                history.append(float(np.abs(r).sum()))
                next_sample += n
    final = float(np.abs(r).sum())
    if history[-1] != final:
        history.append(final)
    return IncrementalResult(
        relaxations=relaxations,
        dirty=dirty,
        converged=final < tol * rhs_norm,
        final_residual=final,
        residual_history=history,
    )
