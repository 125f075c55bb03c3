"""Baseline solvers for the analysis-sparsity problem.

The analysis problem  min_y 1/2 ||x - y||^2 + lam ||Ty||_1  has closed-form
solutions only for special T (orthogonal, or orthonormal rows); the dual
active-set solver here is the reference for everything else. Each of its
iterations takes one projected-gradient step on the box-constrained dual,
which identifies a face, minimizes exactly over that face by one
least-squares solve, and moves toward that minimizer by a projected,
backtracking step. It stops on the certified duality gap, on the gap's
float64 rounding, or on an iteration that does not lower the dual
objective. It also documents that frame shrinkage is *not* that minimizer:
the shrinkage is the prox of its induced regularizer in the T metric, which
is a different objective.
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
        if not np.isfinite(self.matrix).all():
            raise ValueError("operator entries must be finite")

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


_EPS = np.finfo(float).eps


def solve_analysis_dual(
    problem: AnalysisProblem, tol: float = 1e-10, max_iter: int = 200000
) -> SolveReport:
    """Minimize 1/2 ||x - y||^2 + lam ||Ty||_1 by an active-set method on the dual.

    The dual is min { 1/2 ||y||^2 : y = x - T* p, ||p||_inf <= lam }, and the
    primal point is that y. Each iteration (Moré & Toraldo 1991) takes the
    projected-gradient step p <- clip(p + Ty / sigma_max(T)^2, -lam, lam),
    which identifies a face; minimizes exactly over its free coordinates
    F = {|p_i| < lam} by one least-squares solve delta = lstsq(T_F*, y); and
    moves p_F to clip(p_F + alpha delta) for the first alpha in 1, 1/2, 1/4,
    ... that strictly lowers 1/2 ||y||^2. If none does before the clipped
    point stops moving, the projected-gradient point stands. ``iterations``
    counts these iterations.

    Terminates when the duality gap lam ||Ty||_1 - <p, Ty> drops to ``tol``;
    non-convergence is flagged on the report. An iteration whose gap is
    above ``tol`` also stops, unconverged, if ``tol`` is below
    eps (lam ||Ty||_1 + |p| . |Ty|), the float64 rounding of the gap's two
    terms at that iterate, or if it did not strictly lower 1/2 ||y||^2, so
    a ``tol`` below where the gap stalls ends there; a ``tol`` of 0 thus
    stops at once unless the gap is exactly 0.
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
    obj = 0.5 * (y @ y)
    gap, k, converged = np.inf, 0, False
    for k in range(1, max_iter + 1):
        last = obj
        p = np.clip(p + step * (t @ y), -lam, lam)
        y = x - t.T @ p
        obj = 0.5 * (y @ y)
        free = np.abs(p) < lam
        if free.any():
            delta = np.linalg.lstsq(t[free].T, y, rcond=None)[0]
            p_free, trial, alpha = p[free], p.copy(), 1.0
            while True:
                trial[free] = np.clip(p_free + alpha * delta, -lam, lam)
                if np.array_equal(trial[free], p_free):
                    break
                y_trial = x - t.T @ trial
                obj_trial = 0.5 * (y_trial @ y_trial)
                if obj_trial < obj:
                    p, y, obj = trial, y_trial, obj_trial
                    break
                alpha *= 0.5
        ty = t @ y
        l1 = lam * np.sum(np.abs(ty))
        gap = float(l1 - p @ ty)
        converged = gap <= tol
        if converged or tol < _EPS * (l1 + np.abs(p) @ np.abs(ty)) or obj >= last:
            break
    return SolveReport(
        minimizer=y,
        objective=analysis_objective(problem, y),
        iterations=k,
        residual=gap,
        tolerance=tol,
        converged=converged,
    )


# largest entry of T T* - I that synthesis_solution accepts as orthonormal rows
_ROW_TOL = 1e-10


def synthesis_solution(x: np.ndarray, t: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form analysis minimizer for matrices with orthonormal rows.

    Requires T T* = I (n <= d) to within ``_ROW_TOL``. The minimizer of
    1/2 ||x - y||^2 + lam ||Ty||_1 is then (I - T*T) x + T* S_lam(T x).
    """
    _check_lambda(lam)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    n, d = t.shape
    if n > d:
        raise NotParsevalRow(f"expected n <= d for row-orthonormal T, got {n} x {d}")
    gram_err = float(np.max(np.abs(t @ t.T - np.eye(n))))
    if gram_err > _ROW_TOL:
        raise NotParsevalRow(f"T T* deviates from identity by {gram_err:.3e}")
    tx = t @ x
    return x + t.T @ (soft_shrink(tx, lam) - tx)
