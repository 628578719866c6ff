"""Power iteration on the Google matrix (Eq. 3 of the paper).

The iterates follow ``x(k+1) = (P'')ᵀ x(k)``; because ``P''`` is
row-stochastic the 1-norm of the iterate is preserved, so no per-step
renormalization is required and the residual is simply the 1-norm
difference between consecutive iterates (the classic PageRank criterion).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.linalg import norm1
from repro.pagerank.solvers.base import ResidualTracker, SolverResult, check_problem, register
from repro.pagerank.webgraph import PageRankProblem


@register("power")
def solve_power(
    problem: PageRankProblem,
    tol: float = 1e-8,
    max_iter: int = 1000,
    x0: Optional[np.ndarray] = None,
) -> SolverResult:
    """Run power iterations until ``||x(k+1) - x(k)||₁ < tol``."""
    check_problem(problem)
    x = problem.personalization.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
    total = norm1(x)
    if total > 0:
        x /= total
    tracker = ResidualTracker(tol)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        x_next = problem.apply_google_matrix(x)
        residual = norm1(x_next - x)
        x = x_next
        if tracker.record(residual):
            converged = True
            break
    # Guard against drift introduced by floating-point accumulation.
    x = np.abs(x)
    x /= x.sum()
    return SolverResult(
        solver="power",
        scores=x,
        iterations=iterations,
        residuals=tracker.residuals,
        converged=converged,
        elapsed=tracker.elapsed,
        matvecs=float(iterations),
    )
