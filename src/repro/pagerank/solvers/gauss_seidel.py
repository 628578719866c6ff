"""Gauss–Seidel iterations — the solver the paper ultimately deploys.

Section III: "The Gauss-Siedel method outperforms the others with respect
to the convergence iterations and computational efficiency. Thus, we use
that for the Pagerank Calculation module."

Each forward sweep updates the unknowns in place,

    x_i <- (b_i - sum_{j<i} a_ij x_j(new) - sum_{j>i} a_ij x_j(old)) / a_ii,

so fresh values are used immediately — the reason Gauss–Seidel roughly
halves the iteration count of Jacobi on PageRank systems.

Implementation: the sweep is *level-scheduled*. ``A = L + D + U`` is split
once; per sweep we form ``rhs' = b - U x_old`` with one sparse product and
then solve ``(D + L) x_new = rhs'`` by processing rows level by level in
the dependency DAG of ``L`` — rows within a level have no mutual
dependencies and are updated with vectorized gathers. This is the standard
sparse-triangular-solve technique and keeps a sweep within a small factor
of a plain matrix-vector product, so the Fig. 3(b) time comparison is
meaningful. A naive row-loop sweep (:func:`naive_sweep`) is kept as the
reference the tests check the scheduler against.

Stopping follows the PageRank convention for stationary methods:
``||x_new - x_old||_1 / ||b||_1 < tol`` — for Jacobi this quantity equals
the (diagonally scaled) residual, so iteration counts are comparable.

A Gauss–Seidel sweep is a loop-carried dependency — row ``i`` consumes
the *same-sweep* updates of every row ``j < i`` it references — so it
cannot be row-partitioned into independent chunks. Splitting it anyway
would silently compute a different iteration (block-Jacobi with GS
blocks), changing the convergence behavior the paper's Fig. 3
comparison rests on. The level scheduling above extracts the *safe*
intra-sweep work with vectorized numpy gathers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import LinalgError
from repro.linalg import CsrMatrix, norm1
from repro.pagerank.linear_system import build_linear_system, normalize_solution
from repro.pagerank.solvers.base import ResidualTracker, SolverResult, check_problem, register
from repro.pagerank.webgraph import PageRankProblem

# One level: (rows, cols, vals, seg) where cols/vals are the strictly-lower
# entries of those rows concatenated and seg[k] is the position of entry k's
# row within ``rows``.
_Level = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def naive_sweep(system: CsrMatrix, rhs: np.ndarray, x: np.ndarray, relaxation: float = 1.0) -> None:
    """Reference forward Gauss–Seidel/SOR sweep: plain row loop, in place.

    Kept for testing the level-scheduled sweeper; quadratic-ish constant
    factors make it unsuitable for benchmarking.
    """
    indptr, indices, data = system.indptr, system.indices, system.data
    for i in range(system.nrows):
        start, stop = indptr[i], indptr[i + 1]
        cols = indices[start:stop]
        vals = data[start:stop]
        diag = 0.0
        acc = 0.0
        for col, val in zip(cols, vals):
            if col == i:
                diag = val
            else:
                acc += val * x[col]
        if diag == 0.0:
            raise LinalgError(f"zero diagonal at row {i}; Gauss-Seidel undefined")
        gs_value = (rhs[i] - acc) / diag
        x[i] = (1.0 - relaxation) * x[i] + relaxation * gs_value


class TriangularSweeper:
    """Level-scheduled forward Gauss–Seidel/SOR sweeps over a CSR system."""

    def __init__(self, system: CsrMatrix):
        if system.nrows != system.ncols:
            raise LinalgError(f"Gauss-Seidel needs a square system, got {system.shape}")
        n = system.nrows
        row_of = np.repeat(np.arange(n), np.diff(system.indptr))
        lower_mask = system.indices < row_of
        upper_mask = system.indices > row_of
        diag_mask = system.indices == row_of
        self.diag = np.zeros(n)
        self.diag[row_of[diag_mask]] = system.data[diag_mask]
        if np.any(np.abs(self.diag) < 1e-15):
            raise LinalgError("zero diagonal entry; Gauss-Seidel undefined")
        self.upper = CsrMatrix.from_coo_arrays(
            n, n, row_of[upper_mask], system.indices[upper_mask], system.data[upper_mask]
        )
        lower = CsrMatrix.from_coo_arrays(
            n, n, row_of[lower_mask], system.indices[lower_mask], system.data[lower_mask]
        )
        self._levels = self._schedule(lower)
        self.n = n

    @staticmethod
    def _schedule(lower: CsrMatrix) -> List[_Level]:
        """Group rows into dependency levels of the strictly-lower part."""
        n = lower.nrows
        level_of = np.zeros(n, dtype=np.int64)
        for i in range(n):
            cols, _ = lower.row(i)
            if cols.size:
                level_of[i] = level_of[cols].max() + 1
        levels: List[_Level] = []
        max_level = int(level_of.max()) if n else -1
        for lv in range(max_level + 1):
            rows = np.nonzero(level_of == lv)[0]
            cols_parts: list[np.ndarray] = []
            vals_parts: list[np.ndarray] = []
            seg_parts: list[np.ndarray] = []
            for pos, row in enumerate(rows):
                cols, vals = lower.row(int(row))
                if cols.size:
                    cols_parts.append(cols)
                    vals_parts.append(vals)
                    seg_parts.append(np.full(cols.size, pos, dtype=np.int64))
            cols_flat = np.concatenate(cols_parts) if cols_parts else np.empty(0, dtype=np.int64)
            vals_flat = np.concatenate(vals_parts) if vals_parts else np.empty(0)
            seg_flat = np.concatenate(seg_parts) if seg_parts else np.empty(0, dtype=np.int64)
            levels.append((rows, cols_flat, vals_flat, seg_flat))
        return levels

    @property
    def level_count(self) -> int:
        return len(self._levels)

    def sweep(self, x: np.ndarray, rhs: np.ndarray, relaxation: float = 1.0) -> float:
        """Perform one forward sweep in place (``relaxation=1`` → plain GS).

        Returns ``||Δx||₁`` of the sweep, accumulated level by level, so
        the convergence test costs nothing extra — the solvers previously
        copied the full iterate every sweep just to measure this.
        """
        rhs_prime = rhs - self.upper.matvec(x)
        x_old = x.copy() if relaxation != 1.0 else None
        delta = 0.0
        for rows, cols, vals, seg in self._levels:
            if cols.size:
                contrib = np.bincount(seg, weights=vals * x[cols], minlength=rows.size)
            else:
                contrib = np.zeros(rows.size)
            gs_values = (rhs_prime[rows] - contrib) / self.diag[rows]
            if x_old is None:
                delta += float(np.abs(gs_values - x[rows]).sum())
                x[rows] = gs_values
            else:
                relaxed = (1.0 - relaxation) * x_old[rows] + relaxation * gs_values
                delta += float(np.abs(relaxed - x[rows]).sum())
                x[rows] = relaxed
        return delta


@register("gauss_seidel")
def solve_gauss_seidel(
    problem: PageRankProblem,
    tol: float = 1e-8,
    max_iter: int = 1000,
    x0: Optional[np.ndarray] = None,
) -> SolverResult:
    """Run forward Gauss–Seidel sweeps until ``||Δx||₁ / ||b||₁ < tol``."""
    check_problem(problem)
    system, rhs = build_linear_system(problem)
    sweeper = TriangularSweeper(system)
    rhs_norm = norm1(rhs) or 1.0
    x = rhs.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
    tracker = ResidualTracker(tol)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        delta = sweeper.sweep(x, rhs)
        if tracker.record(delta / rhs_norm):
            converged = True
            break
    return SolverResult(
        solver="gauss_seidel",
        scores=normalize_solution(problem, x),
        iterations=iterations,
        residuals=tracker.residuals,
        converged=converged,
        elapsed=tracker.elapsed,
        matvecs=float(iterations),  # one U-product + one L-traversal ≈ one matvec
    )
