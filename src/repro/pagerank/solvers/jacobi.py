"""Jacobi iterations for the Eq. 5 linear system.

Splitting ``A = D + R`` with ``D = diag(A)``, the update is

    x(k+1) = D⁻¹ (b - R x(k)) = x(k) + D⁻¹ (b - A x(k)),

which only needs one sparse product per sweep. Convergence follows from
the column diagonal dominance of ``I - cPᵀ`` for ``c < 1``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import LinalgError
from repro.linalg import norm1
from repro.pagerank.linear_system import build_linear_system, normalize_solution
from repro.pagerank.solvers.base import ResidualTracker, SolverResult, check_problem, register
from repro.pagerank.webgraph import PageRankProblem


@register("jacobi")
def solve_jacobi(
    problem: PageRankProblem,
    tol: float = 1e-8,
    max_iter: int = 1000,
    x0: Optional[np.ndarray] = None,
) -> SolverResult:
    """Run Jacobi sweeps until the relative residual drops below ``tol``."""
    check_problem(problem)
    system, rhs = build_linear_system(problem)
    diag = system.diagonal()
    if np.any(np.abs(diag) < 1e-15):
        raise LinalgError("Jacobi requires a nonzero diagonal")
    inv_diag = 1.0 / diag  # hoisted: multiply per sweep instead of divide
    rhs_norm = norm1(rhs) or 1.0
    x = rhs.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
    tracker = ResidualTracker(tol)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        residual_vec = rhs - system.matvec(x)
        x = x + residual_vec * inv_diag
        if tracker.record(norm1(residual_vec) / rhs_norm):
            converged = True
            break
    return SolverResult(
        solver="jacobi",
        scores=normalize_solution(problem, x),
        iterations=iterations,
        residuals=tracker.residuals,
        converged=converged,
        elapsed=tracker.elapsed,
        matvecs=float(iterations),
    )
