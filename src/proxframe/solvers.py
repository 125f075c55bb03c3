"""Baseline solvers for the analysis-sparsity problem.

The analysis problem  min_y 1/2 ||x - y||^2 + lam ||Ty||_1  has closed-form
solutions only for special T (orthogonal, or orthonormal rows); the dual
projected-gradient solver here is the reference for everything else. It also
documents that frame shrinkage is *not* that minimizer: the shrinkage is the
prox of its induced regularizer in the T metric, which is a different
objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotParsevalRow
from .operators import AnalysisOperator
from .prox import _check_lambda, soft_shrink
from .reports import SolveReport


@dataclass(frozen=True)
class AnalysisProblem:
    """Data vector, analysis matrix, and regularization weight."""

    x: np.ndarray
    operator: AnalysisOperator | np.ndarray
    lam: float

    def __post_init__(self):
        _check_lambda(self.lam)
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if not np.isfinite(self.x).all():
            raise ValueError("data x must be finite")

    @property
    def matrix(self) -> np.ndarray:
        if isinstance(self.operator, AnalysisOperator):
            return self.operator.matrix
        return np.asarray(self.operator, dtype=float)


def analysis_objective(problem: AnalysisProblem, y: np.ndarray) -> float:
    t = problem.matrix
    return float(
        0.5 * np.sum((problem.x - y) ** 2) + problem.lam * np.sum(np.abs(t @ y))
    )


# Iterations between checks of the gap's rounding against ``tol``.
_FLOOR_STRIDE = 8
_EPS = np.finfo(float).eps


def solve_analysis_dual(
    problem: AnalysisProblem, tol: float = 1e-10, max_iter: int = 200000
) -> SolveReport:
    """Minimize 1/2 ||x - y||^2 + lam ||Ty||_1 by projected gradient on the dual.

    The dual is min { 1/2 ||x - T* p||^2 : ||p||_inf <= lam }, handled with
    step 1/sigma_max(T)^2 and componentwise clipping; the primal point is
    recovered as y = x - T* p. Terminates when the duality gap
    lam ||Ty||_1 - <p, Ty> drops to ``tol``; non-convergence is flagged on
    the report. Every eighth iteration whose gap is above ``tol`` also
    stops, unconverged, if ``tol`` is below eps (lam ||Ty||_1 + |p| . |Ty|),
    the float64 rounding of the gap's two terms at that iterate; a ``tol``
    of 0 thus stops at the first check unless the gap is exactly 0. Near the
    solution the gap is set by the rounding of y = x - T* p, which can exceed
    that of its terms: a ``tol`` between the two still runs to ``max_iter``.
    """
    t = problem.matrix
    x, lam = problem.x, problem.lam
    if isinstance(problem.operator, AnalysisOperator):
        sigma_max_sq = problem.operator.frame_bounds[1]
    else:
        sigma_max_sq = float(np.linalg.norm(t, 2) ** 2)
    step = 1.0 / sigma_max_sq

    p = np.zeros(t.shape[0])
    y = x - t.T @ p
    gap, k, converged = np.inf, 0, False
    for k in range(1, max_iter + 1):
        p = np.clip(p + step * (t @ y), -lam, lam)
        y = x - t.T @ p
        ty = t @ y
        l1 = lam * np.sum(np.abs(ty))
        gap = float(l1 - p @ ty)
        converged = gap <= tol
        if converged or k % _FLOOR_STRIDE == 0 and tol < _EPS * (l1 + np.abs(p) @ np.abs(ty)):
            break
    return SolveReport(
        minimizer=y,
        objective=analysis_objective(problem, y),
        iterations=k,
        residual=gap,
        tolerance=tol,
        converged=converged,
    )


def synthesis_solution(x: np.ndarray, t: np.ndarray, lam: float, row_tol: float = 1e-10) -> np.ndarray:
    """Closed-form analysis minimizer for matrices with orthonormal rows.

    Requires T T* = I (n <= d). The minimizer of
    1/2 ||x - y||^2 + lam ||Ty||_1 is then (I - T*T) x + T* S_lam(T x).
    """
    _check_lambda(lam)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    n, d = t.shape
    if n > d:
        raise NotParsevalRow(f"expected n <= d for row-orthonormal T, got {n} x {d}")
    gram_err = float(np.max(np.abs(t @ t.T - np.eye(n))))
    if gram_err > row_tol:
        raise NotParsevalRow(f"T T* deviates from identity by {gram_err:.3e}")
    tx = t @ x
    return x + t.T @ (soft_shrink(tx, lam) - tx)
