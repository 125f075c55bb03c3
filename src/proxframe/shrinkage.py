"""Frame shrinkage T^+ o Prox o T and the regularizer f it is the prox of.

In the metric ||x||_T = ||Tx||, T^+ Prox T is the prox of
f(x) = min { 1/2 ||z||^2 + g(Tx + z) : z in null(T*) }, which is g(Tx) for
square T. README.md states the theorem and maps each verify_* check to it;
``_certify``'s docstring alone says how f is solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import NotConverged
from .operators import AnalysisOperator, _analysis, build_operator
from .prox import ProxMap, soft_shrink_map
from .reports import SolveReport, VerifyReport
from .sampling import _check_tol, sampled_check

# The dual solvers of f check their gap every _GAP_STRIDE iterations, so a
# column stops at most _GAP_STRIDE - 1 iterations late; ADMM joins FISTA on
# the columns open after _FISTA_ITERS; float32 steps pay off on frames of
# _FLOAT32_ROWS rows or more. The CHANGES.md entry "f's float32 phase ends
# when float32 stops lowering a gap" measures all three.
_GAP_STRIDE = 8
_FISTA_ITERS = 2048
# Gap below which float64 rounding of its terms dominates, per unit of
# 1 + |g(Tx)| + ||u||^2; the CHANGES.md entry "f's dual solver behind its
# contract" measures where the gap stalls.
_GAP_FLOOR = 64 * np.finfo(float).eps
_FLOAT32_ROWS = 64
# The float32 phase runs only where lam and every |Tx| are below this, so
# that no float32 copy or iterate overflows
_FLOAT32_RANGE = 2.0 ** 64
# Iterations after which an evaluation of f that is still open raises
# NotConverged, and after which the prox oracle reports a column unconverged
_MAX_ITER = 100000


@dataclass(frozen=True)
class FrameShrinkage:
    """T^+ o Prox o T; a prox in the metric ||x||_T = ||Tx||."""

    operator: AnalysisOperator
    inner_prox: ProxMap


def _compose(fs: FrameShrinkage, x: np.ndarray):
    """(T x, p, T^+ p) with p = Prox(T x): the one composition that
    ``frame_prox`` and the prox-identity check both run."""
    tx = _analysis(fs.operator, x)
    p = np.asarray(fs.inner_prox(tx))
    return tx, p, fs.operator.pinv @ p


def frame_prox(fs: FrameShrinkage, x: np.ndarray) -> np.ndarray:
    """Evaluate T^+ (Prox (T x)); columns are processed independently.

    Raises ValueError, naming the first offending column, on NaN or inf input.
    """
    out = _compose(fs, x)[2]
    return float(out[0]) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class InducedRegularizer:
    """f, the function whose prox in the T metric is ``shrinkage``.

    g is the shrinkage's own ``inner_prox.function``, so the two cannot
    disagree. Only the catalog maps are accepted, soft shrinkage and the
    identity (f = 0); any other map raises ValueError naming it.
    """

    shrinkage: FrameShrinkage

    def __post_init__(self):
        name = self.shrinkage.inner_prox.name
        if self.g is None:
            raise ValueError(f"prox map {name!r} carries no function handle")
        if name not in ("soft_shrink", "identity"):
            raise ValueError(f"no induced regularizer for prox map {name!r}: not in the catalog")

    @classmethod
    def from_shrinkage(cls, fs: FrameShrinkage) -> "InducedRegularizer":
        """``InducedRegularizer(fs)``: an alias kept only while the benchmark harness binds it."""
        return cls(fs)

    @property
    def g(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.shrinkage.inner_prox.function


def _col_dot(a, b):
    """The inner product of each column of a with the same column of b, (n, k) blocks.

    One matmul call reads each pair of columns once, with no (n, k)
    temporary; a one-column block takes one BLAS dot of its columns.
    """
    if a.shape[1] == 1:
        return a.T.dot(b)[0]
    return np.matmul(a.T[:, None], b.T[..., None]).ravel()


def _fista_steps(proj, c, lam, u, y):
    """Run ``_GAP_STRIDE`` iterations of unit-step FISTA, with restart, on f's box-constrained dual.

    The gradient (I - P) u - c is 1-Lipschitz, so a step from y is the clip
    of P y + c onto [-lam, lam]. The state is the iterate u and the
    extrapolated point y = u_new + (u_new - u): momentum 1, as greedy FISTA
    takes at the unit step (Liang, Luo & Schoenlieb, SIAM J. Sci. Comput.
    44, 2022), or 0 on a step where <y - u_new, u_new - u> > 0, the gradient
    restart of O'Donoghue & Candes (2015). Each iteration takes one product
    with P and works in place in u, y and one scratch block of c's layout
    and dtype; a one-column block runs on 1-D views of its column. Returns
    the new (u, y), (n, k) blocks; the u and y given are overwritten.
    """
    block = c.shape[1] > 1
    if not block:
        c, u, y = c[:, 0], u[:, 0], y[:, 0]
    u_new = np.empty_like(c)
    product = partial(np.matmul, proj) if block else proj.dot
    # the box as 0-d arrays, which a ufunc takes faster than a Python float
    # (the CHANGES.md entry "f's dual solve runs a lone open column on 1-D vectors")
    hi, lo = np.asarray(lam), np.asarray(-lam)
    for _ in range(_GAP_STRIDE):
        product(y, out=u_new)
        u_new += c
        np.minimum(u_new, hi, out=u_new)
        np.maximum(u_new, lo, out=u_new)
        du = np.subtract(u_new, u, out=u)
        # gradient restart: momentum 0 on a step where <y - u_new, du> > 0,
        # or is NaN; a vector skips multiplying by a momentum of 1
        y -= u_new
        momentum = (_col_dot(y, du) if block else y.dot(du)) <= 0.0
        if block or not momentum:
            du *= momentum
        du += u_new
        u, y, u_new = u_new, du, y
    return (u, y) if block else (u[:, None], y[:, None])


def _admm_steps(proj, c, lam, v, m, rho):
    """Run ``_GAP_STRIDE`` iterations of ADMM on f's box-constrained dual, split u = v between its terms.

    With scaled multiplier m and a fixed per-column penalty rho:

        u <- P b + c / rho + rho / (1 + rho) (I - P) b,      b = v - m
        v <- clip(a, -lam, lam),                             a = u + m
        m <- a - v

    rho is a (1, k) row, so that the state compacts as its blocks do. Each
    step works in place, in the order of the terms above, so its bits are
    those of the formula. Returns the new (v, m, rho); the v and m given are
    overwritten, so they must not share memory.
    """
    c_rho, ratio, hi, lo = c / rho, rho / (1.0 + rho), np.asarray(lam), np.asarray(-lam)
    b, a = np.empty_like(v), np.empty_like(v)
    for _ in range(_GAP_STRIDE):
        # a = P b, then u = P b + c / rho + rho / (1 + rho) (b - P b), then a = u + m
        np.matmul(proj, np.subtract(v, m, out=b), out=a)
        np.multiply(ratio, np.subtract(b, a, out=b), out=b)
        a += c_rho
        a += b
        a += m
        np.minimum(np.maximum(a, lo, out=v), hi, out=v)
        np.subtract(a, v, out=m)
    return v, m, rho


@np.errstate(over="ignore", invalid="ignore")
def _certify(
    reg: InducedRegularizer, c: np.ndarray, feasible: np.ndarray, tol: float, prune: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounds lower <= f <= upper <= feasible at each column of c = Ty, and the iterations each ran.

    ``feasible`` is a primal value at some w in null(T*), such as g(c) at
    w = 0; lower and upper hold up to float64 rounding of their terms. A
    column stops once upper - lower is within ``tol`` or ``_GAP_FLOOR``
    (1 + |feasible| + ||u||^2), u its dual iterates, or with ``prune`` once
    upper - feasible is below the best lower - feasible so far, which keeps
    the block's largest f - feasible. Bounds match a one-column call up to
    that gap, whatever c's layout. For square T, or where every feasible
    value is 0 (then f = 0, as 0 <= f <= feasible for the catalog maps),
    it returns (feasible, feasible, 0).
    Raises NotConverged after ``_MAX_ITER`` iterations, naming them and the
    largest open gap, and naming lam where the gap's terms leave the float64
    range (``np.errstate`` keeps that from warning).

    Pinned by tests/test_certify_kernels.py: on the dual max_{|u| <= lam}
    <u, c> - 1/2 ||(I - P) u||^2, FISTA runs on every column, in float32 on
    frames of ``_FLOAT32_ROWS`` rows until an open column's gap stops
    falling; from ``_FISTA_ITERS`` on, ADMM at penalty max|c| / lam runs
    beside it on the open columns. Each gap check keeps either's best bounds.
    """
    op, g = reg.shrinkage.operator, reg.g
    iters = np.zeros(c.shape[1], dtype=int)
    if op.n == op.d or not feasible.any():
        return feasible, feasible, iters
    # P^T, a view of P, is already in the blocks' column-major order; P is
    # symmetric to 4 eps (test_range_projector_rounding_does_not_grow_with_condition)
    proj, lam, c = op.range_proj.T, reg.shrinkage.inner_prox.lam, np.asfortranarray(c)
    upper, lower = np.empty_like(feasible), np.empty_like(feasible)
    best, gap = -np.inf, np.inf
    cols, g_sub, base = np.arange(c.shape[1]), feasible, 1.0 + np.abs(feasible)
    # FISTA's float32 operands, None once it runs in float64
    low = None
    if op.n >= _FLOAT32_ROWS and max(lam, np.max(np.abs(c))) < _FLOAT32_RANGE:
        low = (proj.astype(np.float32), c.astype(np.float32), np.float32(lam))
    fista_c = c if low is None else low[1]
    solvers = {_fista_steps: (np.zeros_like(fista_c), np.zeros_like(fista_c))}
    for check in range(_MAX_ITER // _GAP_STRIDE):
        if check == _FISTA_ITERS // _GAP_STRIDE:
            # an open column has Tx != 0: at Tx = 0, u stays 0 and the first gap is 0
            rho = np.max(np.abs(c), axis=0, keepdims=True) / lam
            solvers[_admm_steps] = (np.zeros_like(c), np.zeros_like(c), rho)
        primal, dual, scale = g_sub, -np.inf, base
        for steps, state in solvers.items():
            u, *_ = solvers[steps] = steps(*(low or (proj, c, lam)), *state)
            if low:
                # lam need not be a float32 number: a float32 clip can leave |u| > lam
                u = np.clip(u, -lam, lam, dtype=float)
            r = np.matmul(proj, u, out=np.empty_like(u))
            np.subtract(u, r, out=r)
            half_sq = 0.5 * _col_dot(u, r)
            primal = np.minimum(primal, half_sq + g(c - r))
            dual = np.maximum(dual, _col_dot(u, c) - 0.5 * _col_dot(r, r))
            scale = scale + _col_dot(u, u)
        # the open columns' last gap, for the NotConverged message and the
        # end of the float32 phase
        last, gap = gap, primal - dual
        # ||u||^2 grows as n lam^2: past the float64 range a gap or its scale
        # is inf or NaN and bounds nothing. scale > 0 and gap >= -_GAP_FLOOR *
        # scale, so each gap - scale is about -scale, and their sum is finite
        # where every gap and scale is, short of a summed scale near 1e308
        if not math.isfinite((gap - scale).sum()):
            raise NotConverged(
                f"regularizer evaluation at lam {lam:g} left the float64 range at "
                f"iteration {(check + 1) * _GAP_STRIDE}: its duality gap is not finite"
            )
        done = gap <= np.maximum(tol, _GAP_FLOOR * scale)
        if prune:
            best = np.maximum(best, (dual - g_sub).max())
            done |= primal - g_sub < best
        if low and (check + 1 == _FISTA_ITERS // _GAP_STRIDE or (~done & (gap >= last)).any()):
            # FISTA goes on in float64 from its re-clipped iterate u
            low, solvers[_fista_steps] = None, (u, solvers[_fista_steps][1].astype(float))
        if done.any():
            upper[cols[done]], lower[cols[done]] = primal[done], dual[done]
            iters[cols[done]] = (check + 1) * _GAP_STRIDE
            keep = ~done
            cols, g_sub, base, gap, c = cols[keep], g_sub[keep], base[keep], gap[keep], c[:, keep]
            if not cols.size:
                return upper, lower, iters
            low = low and (low[0], low[1][:, keep], low[2])
            solvers = {steps: tuple(a[:, keep] for a in state) for steps, state in solvers.items()}
    # every check ran: _MAX_ITER rounded down to a multiple of the stride
    raise NotConverged(
        f"regularizer evaluation left a duality gap of {np.max(gap):.3e} after "
        f"{_MAX_ITER - _MAX_ITER % _GAP_STRIDE} iterations (checked every {_GAP_STRIDE})"
    )


def induced_regularizer(reg: InducedRegularizer, x, tol: float = 1e-9):
    """f at x, or at each column of x: the upper end of ``_certify``'s bracket.

    With g(Tx) as the feasible value, dual <= f(x) <= result <= g(Tx), the
    gap within ``tol`` or ``_certify``'s rounding floor, and each column
    matches a one-column evaluation up to that gap. For square T, and for
    the identity map, the result is g(Tx). Raises ValueError on non-finite
    input or a NaN or negative ``tol``, and NotConverged where ``_certify``
    does: after ``_MAX_ITER`` iterations, or at a lam so large that the
    dual's terms leave the float64 range.
    """
    _check_tol(tol)
    squeeze = np.ndim(x) < 2
    c = _analysis(reg.shrinkage.operator, x)
    c = c[:, None] if c.ndim == 1 else c
    vals = _certify(reg, c, reg.g(c), tol)[0]
    return float(vals[0]) if squeeze else vals


# --- packaged example: T = (1, 2)^T with unit soft shrinkage ----------------

EXAMPLE_MATRIX = np.array([[1.0], [2.0]])


def example_operator() -> AnalysisOperator:
    """The built-in 2 x 1 operator used throughout the docs and CLI."""
    return build_operator(EXAMPLE_MATRIX)


def example_regularizer_closed_form(y):
    """Closed-form induced regularizer for the built-in operator, lam = 1.

    Piecewise in |y|: (5/2)|y| + (5/8) y^2 up to the branch point 2/5, and
    3|y| - 1/10 beyond it; the two branches agree at |y| = 2/5.
    """
    a = np.abs(np.asarray(y, dtype=float))
    out = np.where(a <= 0.4, 2.5 * a + 0.625 * a * a, 3.0 * a - 0.1)
    return float(out) if np.isscalar(y) else out


def example_shrinkage() -> FrameShrinkage:
    return FrameShrinkage(example_operator(), soft_shrink_map(1.0))


# --- the prox oracle in the T metric ------------------------------------------

# the oracle's forward-backward step t, relaxed by 1/t: any t < 1 keeps the
# certificate, and for t > 1/2 the relaxed step contracts by (1 - t)/t, a
# ninth here. That the certificate's rounding term covers the step's
# rounding at this t is measured in the CHANGES.md entry "f's dual solver
# behind its contract".
_STEP = 0.9


def _norms(a: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Column 2-norms; a column whose norm reaches its ``limit`` is rescaled by its largest entry.

    A limit of inf rescales a column whose sum of squares overflows, one of
    0 every norm of the column. The caller holds
    ``np.errstate(over="ignore")`` for the overflowing sum. A zero column
    keeps its norm 0: its scale is floored at the smallest normal number.
    """
    norms = np.sqrt(np.add.reduce(a * a, 0))
    odd = norms >= limit
    if odd.any():
        scale = np.maximum(np.max(np.abs(a[:, odd]), axis=0), np.finfo(float).tiny)
        norms[odd] = scale * np.sqrt(np.add.reduce((a[:, odd] / scale) ** 2, 0))
    return norms


def numeric_prox(fs: FrameShrinkage, x: np.ndarray, tol: float = 1e-9) -> SolveReport:
    """The prox of f at x in the T metric, argmin_y 1/2 ||x - y||_T^2 + f(y), certified.

    fs must be a FrameShrinkage (else TypeError); at T = I it is the
    Euclidean prox of its inner g. In z = Ty + Bw, B an orthonormal basis of
    null(T*), the problem is the prox of g at Tx, which relaxed
    forward-backward solves from z = 0 through the map's scaled handle
    alone: each step is w = prox_{tg}((1 - t) z + t Tx) at t = ``_STEP``,
    and an open column moves to z+ = (w - (1 - t) z) / t, the step relaxed
    by 1/t. Both have the prox p of g at Tx as their fixed point, and the
    minimizer is T^+ w. The step is (1 - t)-Lipschitz in z, so
    (1/t - 1) ||z - w|| bounds the T-norm error of w in exact arithmetic,
    from any z; the certificate adds eps (||w|| + ||Tx||) for the step's
    rounding. As a prox is firmly nonexpansive, z+ is (1 - t)/t = 1/9
    closer to p than z; for a positively homogeneous g, prox_{tg}(t Tx) =
    t p makes the first z+ equal p, so soft shrinkage and the identity
    certify at iteration 2. A column of a (d, k) block stops converged once
    its certificate is within ``tol``, and unconverged once that rounding
    term alone exceeds ``tol`` (||w|| only grows from 0 for the catalog
    maps: it is t ||p||, then ||p||) or at ``_MAX_ITER``. It matches a
    one-column call up to rounding: a block's width sets numpy's summation
    order. The SolveReport holds a minimizer of x's shape, no objective, the
    largest certificate as ``residual``, and ``converged`` if every column
    met ``tol``; an empty block is converged at residual 0. Non-convergence
    is reported, not raised; a non-finite x or a NaN or negative ``tol``
    raises ValueError.
    """
    _check_tol(tol)
    if not isinstance(fs, FrameShrinkage):
        raise TypeError("numeric_prox expects a FrameShrinkage")
    op, inner = fs.operator, fs.inner_prox
    x = np.asarray(x, dtype=float)
    tx = _analysis(op, x.reshape(-1, 1) if x.ndim < 2 else x)

    eps = np.finfo(float).eps
    z_out = np.zeros_like(tx)
    cert = np.full(tx.shape[1], np.inf)
    cols = np.arange(tx.shape[1])
    iters, met = 0, True
    # _norms rescales every norm of a column of T x below 2^-400, and of its
    # iterates: below 2^-459 the squares of entries eps |T x| in size, which
    # the certificate resolves, leave the normal range. It rescales any
    # other column only when its sum of squares overflows
    limit = np.where(np.abs(tx).max(0) < 2.0 ** -400, 0.0, np.inf)
    with np.errstate(over="ignore"):
        z, tv, tx_norm = np.zeros_like(tx), _STEP * tx, _norms(tx, limit)
        while cols.size and iters < _MAX_ITER:
            iters += 1
            w = inner.prox((1.0 - _STEP) * z + tv, _STEP)
            size = _norms(w, limit) + tx_norm
            now = (1.0 / _STEP - 1.0) * _norms(z - w, limit) + eps * size
            z *= _STEP - 1.0
            z += w
            z /= _STEP
            # tol below the rounding term eps * size, tested without forming
            # it: at a subnormal T x it underflows, and so can now
            below = tol / eps < size
            ok = (now <= tol) & ~below
            stop = ok | below | (iters == _MAX_ITER)
            if stop.any():
                z_out[:, cols[stop]], cert[cols[stop]] = w[:, stop], now[stop]
                met = met and bool(ok[stop].all())
                keep = ~stop
                cols, z, tv, tx_norm, limit = cols[keep], z[:, keep], tv[:, keep], tx_norm[keep], limit[keep]
    resid = float(np.max(cert, initial=0.0))

    return SolveReport(
        minimizer=(op.pinv @ z_out).reshape(x.shape),
        objective=None,
        iterations=iters,
        residual=resid,
        converged=met,
    )


# --- verification ------------------------------------------------------------

def verify_prox_identity(
    fs: FrameShrinkage,
    reg: InducedRegularizer,
    trials: int,
    tol: float = 1e-6,
    seed: int = 0,
) -> VerifyReport:
    """Sample the prox identity of fs and reg, which must be InducedRegularizer(fs) (else ValueError).

    For sampled x, with (Tx, p, y1) from ``_compose`` (y1 is ``frame_prox``'s
    result), a trial's violation is the larger of
    - y1's T-norm distance to ``numeric_prox``'s certified prox, a test of
      the composition and the map's scaled handle (T enters both alike), and
    - the envelope identity 1/2 ||T(x - y1)||^2 + f(y1) = 1/2 ||Tx - p||^2 +
      g(p) at either end of f(y1)'s bracket (``_certify``), which ties f to
      the shrinkage. The upper end is seeded at the primal value at z = p,
      capped at g(Ty1); since p - Ty1 lies in null(T*) the identity holds
      there by construction, so the dual lower end carries the claim.
    Passes if the largest violation is at most ``tol``; the oracle and f(y1)
    run at ``tol`` / 10. A block whose oracle did not converge reports inf;
    f raises NotConverged as ``induced_regularizer`` does; a NaN or negative
    ``tol`` raises ValueError (``sampled_check``).
    """
    if reg.shrinkage is not fs:
        raise ValueError("reg must be InducedRegularizer(fs), built on this same shrinkage")
    op = fs.operator
    inner_tol = tol / 10.0

    def violations(x: np.ndarray) -> np.ndarray:
        oracle = numeric_prox(fs, x, tol=inner_tol)
        if not oracle.converged:
            return np.inf
        tx, p, y1 = _compose(fs, x)
        c = _analysis(op, y1)
        dist = np.sqrt(np.add.reduce((op.matrix @ (y1 - oracle.minimizer)) ** 2, 0))
        g_p, feasible = reg.g(p), reg.g(c)
        envelope = 0.5 * np.add.reduce((tx - p) ** 2, 0) + g_p
        if op.n != op.d:
            feasible = np.minimum(feasible, 0.5 * np.add.reduce((p - c) ** 2, 0) + g_p)
        value = 0.5 * np.add.reduce((op.matrix @ (x - y1)) ** 2, 0)
        upper, lower, _ = _certify(reg, c, feasible, inner_tol)
        worst = np.maximum(np.abs(value + lower - envelope), np.abs(value + upper - envelope))
        return np.maximum(dist, worst)

    return sampled_check("prox_identity", trials, tol, seed, op.d, violations)


def verify_t_firm_nonexpansive(
    fs: FrameShrinkage, trials: int, tol: float = 1e-12, seed: int = 0
) -> VerifyReport:
    """Sample firm nonexpansiveness of the shrinkage in the T metric.

    Reports the largest ||T(Fx - Fy)||^2 - <T(x - y), T(Fx - Fy)> over
    random pairs, F = ``frame_prox``, and passes if it is at most ``tol``,
    1e-12 by default. A NaN or negative ``tol`` raises ValueError
    (``sampled_check``).
    """
    op = fs.operator

    def violations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        df = op.matrix @ (frame_prox(fs, x) - frame_prox(fs, y))
        dx = op.matrix @ (x - y)
        return np.add.reduce(df * df, 0) - np.add.reduce(dx * df, 0)

    return sampled_check("t_firm_nonexpansive", trials, tol, seed, op.d, violations, columns=2)


def weaker_regularizer_check(
    reg: InducedRegularizer, trials: int, tol: float = 1e-9, seed: int = 0
) -> VerifyReport:
    """Sample the bound f(x) <= g(Tx); the induced f never exceeds g o T.

    f is capped at g(Tx), formed from the same product Tx, so a violation is
    at most 0 by construction: only a NaN f fails, and a finite f that is
    too low passes. Each block reports its largest f(x) - g(Tx), and only
    that maximum is certified to min(``tol`` 1e-2, 1e-10): ``_certify`` runs
    with ``prune``, so a trial that can no longer set it reports an upper
    bound below it. NotConverged is raised only for a trial that could
    still set the maximum; a NaN or negative ``tol`` raises ValueError.
    """
    op = reg.shrinkage.operator
    inner_tol = min(tol * 1e-2, 1e-10)

    def violations(x: np.ndarray) -> np.ndarray:
        c = _analysis(op, x)
        g_c = reg.g(c)
        return _certify(reg, c, g_c, inner_tol, prune=True)[0] - g_c

    return sampled_check("weaker_regularizer", trials, tol, seed, op.d, violations)
