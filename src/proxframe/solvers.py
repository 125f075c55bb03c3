"""Baseline solvers for the analysis-sparsity problem.

The analysis problem  min_y 1/2 ||x - y||^2 + lam ||Ty||_1  has closed-form
solutions only for special T (orthogonal, or orthonormal rows); the dual
solver here is the reference for everything else. Its box-constrained dual
is a bounded-variable least-squares problem, solved by BVLS (Stark &
Parker 1995), which moves one coordinate at a time between the free and
the bound set and keeps the least-squares point of the free set inside
the box. It stops on a certified duality gap, or once no bound
coordinate can move into the box. It also documents that frame shrinkage
is *not* that minimizer: the shrinkage is the prox of its induced
regularizer in the T metric, which is a different objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotParsevalRow
from .operators import AnalysisOperator
from .prox import _check_lambda, soft_shrink
from .reports import SolveReport
from .sampling import _check_tol


@dataclass(frozen=True)
class AnalysisProblem:
    """Data vector, analysis matrix, and regularization weight.

    Checked at construction: an n x d matrix, d entries of x (else DimensionMismatch), all finite, lam > 0."""

    x: np.ndarray
    operator: AnalysisOperator | np.ndarray
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if self.matrix.ndim != 2 or self.x.shape != self.matrix.shape[1:]:
            raise DimensionMismatch(f"expected an n x d matrix and d entries of x, got {self.matrix.shape} and {self.x.shape}")
        _check_lambda(self.lam)
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
    return quad * s * s + float(problem.lam) * l1 * s_y


def _times_square(value: float, scale: float) -> float:
    """value scale^2 in Python floats: inf past the float64 range, and a positive value stays positive."""
    out = value * scale * scale
    return max(out, math.ulp(0.0)) if value > 0 else out


# BVLS iterations after which solve_analysis_dual stops, unconverged
_MAX_ITER = 200000


def solve_analysis_dual(problem: AnalysisProblem, tol: float = 1e-10) -> SolveReport:
    """Minimize 1/2 ||x - y||^2 + lam ||Ty||_1 by bounded-variable least squares on the dual.

    The dual is min { 1/2 ||y||^2 : y = x - T* p, ||p||_inf <= lam }, a
    bounded-variable least-squares problem, and the primal point is that y.
    BVLS (Stark & Parker 1995) starts at the least-squares point lstsq(T*, x)
    clipped into the box; the coordinates the clip left inside are free,
    the others bound. Each iteration solves least squares over the free
    coordinates with the bound ones held fixed and, while that point leaves
    the box, moves toward it until the first free coordinate reaches its
    bound, binds it, and solves again. It then frees the bound coordinate
    whose (Ty)_i points furthest into the box for the next iteration.
    ``iterations`` counts these iterations.

    Terminates when the duality gap lam ||Ty||_1 - <p, Ty> drops to ``tol``,
    or when 1/2 ||y||^2, the gap of the primal point 0 against the same p,
    does; the report takes the smaller of the two, with the minimizer y or
    0. Non-convergence, at ``_MAX_ITER`` iterations at most, is flagged on
    the report. An iteration whose gaps are above ``tol`` also stops,
    unconverged, if no bound coordinate points into the box, which in
    exact arithmetic makes p optimal, or if the coordinate it would free is
    the one the last iteration freed, bound again at the same value, which
    only rounding does and which would repeat that iteration. A ``tol`` below the gap's rounding, 0 included,
    thus runs until one of these stops; it is not cut short at an early
    iterate whose gap terms are large.

    The iteration runs on x / s and lam / s, for ``_scale``'s power of two
    s near max|x| (no smaller than about lam 2^-500, so lam / s stays
    finite), and compares the gap with tol / s^2: the scaling is exact, so
    the iterates are those of the unscaled problem divided by s, squares of
    large data do not overflow and those of tiny data do not underflow
    into a zero gap. 1/2 ||y||^2 is taken on y divided by its own power of
    two, so it does not underflow when y is far below x. The minimizer is
    scaled back; a positive gap whose product with s^2 underflows reports
    the smallest positive float. A zero T, or one with no rows, certifies
    y = x with gap 0 at the first iteration. A NaN or negative ``tol``
    raises ValueError at once.
    """
    _check_tol(tol)
    t = problem.matrix
    s = _scale(problem.x, problem.lam)
    x, lam, tol_s = problem.x / s, problem.lam / s, float(tol) / s / s
    p = np.clip(np.linalg.lstsq(t.T, x, rcond=None)[0], -lam, lam)
    free, y, freed = np.abs(p) < lam, x, None
    gap, zero_gap, k, converged = np.inf, np.inf, 0, False
    for k in range(1, _MAX_ITER + 1):
        while free.any():
            step = np.zeros_like(p)
            step[free] = np.linalg.lstsq(t[free].T, x - t.T @ p, rcond=None)[0]
            out = np.abs(p + step) > lam
            if not out.any():
                p += step
                break
            # the fraction of the step at which each leaving coordinate meets its bound
            ratio = (np.copysign(lam, step[out]) - p[out]) / step[out]
            first = np.flatnonzero(out)[np.argmin(ratio)]
            p = np.clip(p + ratio.min() * step, -lam, lam)
            p[first] = np.copysign(lam, step[first])
            free = np.abs(p) < lam
        free = np.abs(p) < lam
        y = x - t.T @ p
        ty = t @ y
        gap = float(lam * np.sum(np.abs(ty)) - p @ ty)
        s_y = _scale(y)
        zero_gap = _times_square(0.5 * float(np.sum((y / s_y) ** 2)), s_y * s)
        converged = gap <= tol_s or zero_gap <= tol
        # how far each bound coordinate's (Ty)_i points into the box
        inward = np.where(free, 0.0, -np.sign(p) * ty)
        if converged or inward.max() <= 0:
            break
        i = int(np.argmax(inward))
        # the coordinate freed last, bound again at the same value: freeing it repeats that step
        if freed == (i, p[i]):
            break
        freed, free[i] = (i, p[i]), True
    residual = _times_square(gap, s)
    minimizer = y * s if residual <= zero_gap else np.zeros_like(y)
    return SolveReport(
        minimizer=minimizer,
        objective=analysis_objective(problem, minimizer),
        iterations=k,
        residual=min(residual, zero_gap),
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
