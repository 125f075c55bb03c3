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

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotParsevalRow
from .operators import AnalysisOperator
from .prox import _check_lambda, _check_tol, soft_shrink
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


def _scale(x: np.ndarray, lam: float = 0.0) -> float:
    """A power of two s with max|x| / s in [1, 2), but no smaller than about lam 2^-500.

    Dividing by s is exact, so a computation that is homogeneous in x (and
    lam) gives the same bits on x / s, scaled back, as on x; the square of
    max|x / s| neither overflows nor underflows, and lam / s stays below
    2^501.
    """
    exponent = math.frexp(float(np.max(np.abs(x))))[1] - 1
    if lam:
        exponent = max(exponent, math.frexp(lam)[1] - 501)
    return math.ldexp(1.0, exponent)


def analysis_objective(problem: AnalysisProblem, y: np.ndarray) -> float:
    """1/2 ||x - y||^2 + lam ||Ty||_1, each term taken on data divided by its own power of two.

    The quadratic is taken on (x - y) / s for s = ``_scale`` of x and y, and
    the l1 term on y / s_y, so neither squares nor lam ||Ty||_1 leave the
    float64 range before the scales are multiplied back.
    """
    y = np.asarray(y, dtype=float)
    s, s_y = max(_scale(problem.x), _scale(y)), _scale(y)
    quad = float(0.5 * np.sum((problem.x / s - y / s) ** 2))
    l1 = float(np.sum(np.abs(problem.matrix @ (y / s_y))))
    # Python floats: past the float64 range the product is inf, without a warning
    return quad * s * s + problem.lam * l1 * s_y


def _objective(x: np.ndarray, t: np.ndarray, lam: float, y: np.ndarray) -> float:
    return float(0.5 * np.sum((x - y) ** 2) + lam * np.sum(np.abs(t @ y)))


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

    The iteration runs on x / s and lam / s, for ``_scale``'s power of two
    s near max|x| (no smaller than about lam 2^-500, so lam / s stays
    finite), and compares the gap with tol / s^2: the scaling is exact, so
    the iterates are those of the unscaled problem divided by s, squares of
    large data do not overflow and those of tiny data do not underflow
    into a zero gap. The minimizer is scaled back; a positive gap whose
    product with s^2 underflows reports the smallest positive float.
    A zero T, or one with no rows, takes zero steps and certifies y = x
    with gap 0 at the first iteration. A NaN or negative ``tol`` raises
    ValueError at once.
    """
    _check_tol(tol)
    t = problem.matrix
    s = _scale(problem.x, problem.lam)
    x, lam, tol_s = problem.x / s, problem.lam / s, float(tol) / s / s
    if isinstance(problem.operator, AnalysisOperator):
        sigma_max_sq = problem.operator.frame_bounds[1]
    else:
        sigma_max_sq = float(np.linalg.norm(t, 2) ** 2)
    # a zero (or row-less) T maps every y to 0, so p = 0, y = x is exact
    step = 1.0 / sigma_max_sq if sigma_max_sq > 0 else 0.0

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
        converged = gap <= tol_s
        if converged or tol_s < _EPS * (l1 + np.abs(p) @ np.abs(ty)) or obj >= last:
            break
    return SolveReport(
        minimizer=y * s,
        # Python floats: past the float64 range the product is inf, without a warning
        objective=_objective(x, t, lam, y) * s * s,
        iterations=k,
        residual=max(gap * s * s, math.ulp(0.0)) if gap > 0 else gap * s * s,
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
