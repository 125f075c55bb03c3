"""Frame shrinkage T^+ o Prox o T and the regularizer it is the prox of.

Composing any proximity operator on the coefficient space with an analysis
operator T and its pseudoinverse yields an operator on the signal space that
is again a proximity operator, provided the signal space is re-normed by
||x||_T = ||Tx||. The function it is the prox of (in that metric) has an
explicit form: the infimal convolution of g with the squared norm restricted
to null(T*), composed with T,

    f(x) = inf { 1/2 ||z||^2 + g(Tx + z) : z in null(T*) },

which for bijective T collapses to g(Tx). ``induced_regularizer`` evaluates
this infimum numerically; the verify_* routines sample the defining
identities and report the worst violation found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotConverged
from .operators import AnalysisOperator, _analysis, build_operator
from .prox import ProxMap, _check_tol, numeric_prox, soft_shrink_map
from .reports import VerifyReport
from .sampling import sampled_check

# A duality-gap check costs about as much as an iteration of the dual solve;
# checking on every eighth keeps that small without delaying the stop much.
_GAP_STRIDE = 8
# Unit-step FISTA certified every column of the benchmark workloads within
# 800 iterations; a column still open after this many also gets ADMM.
_FISTA_ITERS = 2048
# Gap below which float64 rounding of its terms dominates, per unit of
# 1 + |g(Tx)| + ||u||^2 (measured: the gap stalls at up to ~7 ulps of that).
_GAP_FLOOR = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class FrameShrinkage:
    """T^+ o Prox o T; a prox in the metric ||x||_T = ||Tx||."""

    operator: AnalysisOperator
    inner_prox: ProxMap


def frame_prox(fs: FrameShrinkage, x: np.ndarray) -> np.ndarray:
    """Evaluate T^+ (Prox (T x)); columns are processed independently.

    Raises ValueError, naming the first offending column, on NaN or inf input.
    """
    out = fs.operator.pinv @ np.asarray(fs.inner_prox(_analysis(fs.operator, x)))
    return float(out[0]) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class InducedRegularizer:
    """The function whose prox, in the T metric, is the frame shrinkage.

    Its inner function g is the shrinkage's own ``inner_prox.function``, so
    the two can never disagree. Only the catalog maps are accepted: soft
    shrinkage, whose f ``induced_regularizer`` evaluates through a
    box-constrained dual, and the identity, whose f is 0; any other map
    raises ValueError naming it.
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
        return cls(fs)

    @property
    def g(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.shrinkage.inner_prox.function


# _momentum's table, shared by every solve since entry m depends on m alone;
# it starts at one entry and grows on demand
_momentum_table = np.zeros(1)


def _momentum(size: int) -> np.ndarray:
    """FISTA's momentum after m iterations since the last restart, for m < ``size``.

    Entry m >= 1 is (t_{m-1} - 1) / t_m for t_0 = 1 and
    t_{j+1} = (1 + sqrt(1 + 4 t_j^2)) / 2 (Beck & Teboulle 2009); entry 0,
    the step of a restart, is 0. The table is built by that recursion and
    grows, at least doubling, whenever a longer one is asked for.
    """
    global _momentum_table
    table = _momentum_table
    if table.size < size:
        table, t = np.zeros(max(size, 2 * table.size)), 1.0
        for m in range(1, table.size):
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            table[m] = (t - 1.0) / t_next
            t = t_next
        _momentum_table = table
    # the local table: another thread may have swapped in a shorter one
    return table


def _fista_points(proj, c, lam):
    """FISTA with gradient restart on the box-constrained dual of f, at unit step.

    The smooth part's gradient (I - P) u - c is 1-Lipschitz, so a step from
    y is the clip of P y + c onto [-lam, lam]. The iteration carries the
    iterate u, the extrapolated point y and, per column, the number m of
    iterations since its last restart, which picks its momentum
    ``_momentum()[m]``; a column restarts (m = 0) once its step points
    uphill (O'Donoghue & Candes 2015). Each iteration takes one product
    with P, for P y, and works in place in three buffers that trade roles.
    Every _GAP_STRIDE iterations one more product forms (I - P) u, and
    (u, (I - P) u) is yielded; u is overwritten once iterating resumes. The
    caller may send back a boolean mask of the columns to keep (None keeps
    all); the others leave c and the iteration state at once.
    """
    u, y, u_new = np.zeros_like(c), np.zeros_like(c), np.empty_like(c)
    m = np.zeros(c.shape[1], dtype=np.intp)
    done = 0
    while True:
        momentum = _momentum(done + _GAP_STRIDE + 1)
        for _ in range(_GAP_STRIDE):
            np.matmul(proj, y, out=u_new)
            u_new += c
            np.minimum(u_new, lam, out=u_new)
            np.maximum(u_new, -lam, out=u_new)
            du = np.subtract(u_new, u, out=u)
            # gradient restart: drop a column's momentum once <y - u_new, du> > 0
            y -= u_new
            y *= du
            m = np.where(y.sum(0) > 0.0, 0, m + 1)
            du *= momentum[m]
            du += u_new
            u, y, u_new = u_new, du, y
        done += _GAP_STRIDE
        keep = yield u, u - proj @ u
        if keep is not None:
            c, u, y, m = (a[..., keep] for a in (c, u, y, m))
            u_new = np.empty_like(u)


def _admm_points(proj, c, lam, rho):
    """ADMM on the box-constrained dual of f, split u = v between its two terms.

    With scaled multiplier m and a per-column penalty rho:

        u <- P b + c / rho + rho / (1 + rho) (I - P) b,      b = v - m
        v <- clip(a, -lam, lam),                             a = u + m
        m <- a - v

    rho is balanced against the primal and dual residuals (Boyd et al.
    2011, 3.4.1). Yields (v, (I - P) v) every _GAP_STRIDE iterations and
    takes a mask of the columns to keep as ``_fista_points`` does.
    """
    v = m = np.zeros_like(c)
    while True:
        for _ in range(_GAP_STRIDE):
            b = v - m
            pb = proj @ b
            u = pb + c / rho + rho / (1.0 + rho) * (b - pb)
            a = u + m
            v_prev, v = v, np.clip(a, -lam, lam)
            m = a - v
        keep = yield v, v - proj @ v
        if keep is not None:
            c, v, m, u, v_prev, rho = (a[..., keep] for a in (c, v, m, u, v_prev, rho))
        primal_res = np.sum((u - v) ** 2, axis=0)
        dual_res = rho * rho * np.sum((v - v_prev) ** 2, axis=0)
        step = np.where(primal_res > 100.0 * dual_res, 2.0,
                        np.where(dual_res > 100.0 * primal_res, 0.5, 1.0))
        rho = rho * step
        m = m / step


def induced_regularizer(
    reg: InducedRegularizer, x, tol: float = 1e-9, max_iter: int = 100000
):
    """Evaluate the induced regularizer at x (or at each column of x).

    ``InducedRegularizer`` admits the catalog maps only. For square T, and
    for the identity map (g = 0), the value is g(Tx). Otherwise g is
    lam ||.||_1 (soft shrinkage) and, with c = Tx and B an orthonormal basis
    of null(T*), f(x) = min_w 1/2 ||w||^2 + g(c + B w). The conjugate of g
    is the indicator of the box [-lam, lam]^n, so the dual is the
    box-constrained QP

        max_{|u_i| <= lam}  <u, c> - 1/2 ||B^T u||^2,   ||B^T u||^2 = <u, (I - P) u>

    with P the range projector. It is solved by FISTA at unit step
    (``_fista_points``), whose every step is a clip onto the box. A column
    still open after ``_FISTA_ITERS`` iterations typically has Tx far inside
    the dead zone (|Tx| << lam); there unit-step FISTA creeps along range(T)
    at a speed set by |Tx|. Such columns get ADMM (``_admm_points``), whose
    penalty starts at max|Tx| / lam and follows that scale, run beside a
    fresh FISTA.

    Every eight iterations each open column takes the lowest primal value
    (at w = -B^T u for a solver's dual iterate u, or at w = 0, where it is
    g(c)) and the highest dual value its solvers reach. It is frozen at
    that primal value the first time their gap is at most ``tol``, or a
    floor of 64 ulps of 1 + |g(c)| + ||u||^2, the scale at which float64
    rounding of the gap's terms sets in. The result therefore satisfies
    dual <= f(x) <= result <= g(Tx), with result - dual within that bound.
    A frozen column leaves c and the state of every solver, so later
    iterations cost only the columns still open. Their values match a
    one-column evaluation up to the certified gap: BLAS may round a product
    differently at another column count.

    Raises ValueError on non-finite input or a NaN ``tol``, and NotConverged
    if some column is not certified within ``max_iter`` iterations.
    """
    _check_tol(tol)
    fs = reg.shrinkage
    op = fs.operator
    squeeze = np.ndim(x) < 2
    c = _analysis(op, x)
    c = c[:, None] if c.ndim == 1 else c
    g = reg.g
    g_c = np.atleast_1d(np.asarray(g(c), dtype=float))

    if op.n == op.d or fs.inner_prox.name == "identity":
        return float(g_c[0]) if squeeze else g_c

    proj = op.range_proj
    lam = fs.inner_prox.lam
    vals = np.array(g_c)
    gap = np.full(c.shape[1], np.inf)

    def certify(solvers, cols, iters):
        """Freeze the columns ``cols`` as the solvers certify them; return the rest.

        Each column takes the lowest primal and the highest dual value that
        any of the solvers reaches at a check. A frozen column leaves the
        solvers, which then iterate the open columns only.
        """
        c_sub, g_sub = c[:, cols], g_c[cols]
        keep = None
        for _ in range(iters // _GAP_STRIDE):
            primal, dual, scale = g_sub, -np.inf, 1.0 + np.abs(g_sub)
            for points in solvers:
                u, r = points.send(keep)
                half_sq = 0.5 * np.sum(u * r, axis=0)
                primal = np.minimum(primal, half_sq + g(c_sub - r))
                dual = np.maximum(dual, np.sum(u * c_sub, axis=0) - half_sq)
                scale = scale + np.sum(u * u, axis=0)
            gap[cols] = primal - dual
            fresh = gap[cols] <= np.maximum(tol, _GAP_FLOOR * scale)
            vals[cols[fresh]] = primal[fresh]
            keep = None
            if fresh.any():
                keep = ~fresh
                cols, c_sub, g_sub = cols[keep], c_sub[:, keep], g_sub[keep]
                if not cols.size:
                    break
        return cols

    cols = np.arange(c.shape[1])
    cols = certify([_fista_points(proj, c, lam)], cols, min(max_iter, _FISTA_ITERS))
    if cols.size:
        c_open = c[:, cols]
        c_max = np.max(np.abs(c_open), axis=0)
        rho = np.where(c_max > 0.0, c_max / lam, 1.0)
        solvers = [_fista_points(proj, c_open, lam), _admm_points(proj, c_open, lam, rho)]
        cols = certify(solvers, cols, max_iter - _FISTA_ITERS)
    if cols.size:
        raise NotConverged(
            f"regularizer evaluation left a duality gap of {np.max(gap[cols]):.3e} "
            f"after {max_iter} iterations"
        )
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


# --- verification ------------------------------------------------------------

def verify_prox_identity(
    fs: FrameShrinkage,
    reg: InducedRegularizer,
    trials: int,
    tol: float,
    seed: int = 0,
) -> VerifyReport:
    """Check that the shrinkage solves the prox problem of its regularizer.

    For sampled x, with y1 the closed-form composition, reports the larger of
    its T-norm distance to the certified numeric prox in the T metric and the
    violation of the envelope identity (in z = Ty + Bw the prox problem is
    min_z 1/2 ||z - Tx||^2 + g(z), whose optimal value is attained at y1)

        1/2 ||T(x - y1)||^2 + f(y1) = 1/2 ||Tx - p||^2 + g(p),   p = Prox(Tx),

    which catches a wrong f. Both solves per trial, the oracle and f(y1),
    run an order of magnitude tighter than ``tol``. A block in which the
    numeric prox did not converge reports an infinite violation, so the
    check fails.

    The envelope term carries the paper's claim: it ties f to the
    shrinkage. The distance term does not, since the oracle solves the prox
    of g at Tx and T enters both sides the same way; it tests the
    composition code and the inner map's scaled prox handle.
    """
    op = fs.operator
    inner_tol = tol / 10.0

    def violations(x: np.ndarray) -> np.ndarray:
        oracle = numeric_prox(reg, x, tol=inner_tol)
        if not oracle.converged:
            return np.inf
        y1 = frame_prox(fs, x)
        dist = np.sqrt(np.sum((op.matrix @ (y1 - oracle.minimizer)) ** 2, axis=0))
        tx = op.matrix @ x
        p = fs.inner_prox(tx)
        envelope = 0.5 * np.sum((tx - p) ** 2, axis=0) + fs.inner_prox.function(p)
        value = 0.5 * np.sum((op.matrix @ (x - y1)) ** 2, axis=0)
        value = value + induced_regularizer(reg, y1, tol=inner_tol)
        return np.maximum(dist, np.abs(value - envelope))

    return sampled_check("prox_identity", trials, tol, seed, op.d, violations)


def verify_t_firm_nonexpansive(
    fs: FrameShrinkage, trials: int, tol: float, seed: int = 0
) -> VerifyReport:
    """Sample firm nonexpansiveness of the shrinkage in the T metric."""
    op = fs.operator

    def violations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        df = op.matrix @ (frame_prox(fs, x) - frame_prox(fs, y))
        dx = op.matrix @ (x - y)
        return np.sum(df * df, axis=0) - np.sum(dx * df, axis=0)

    return sampled_check("t_firm_nonexpansive", trials, tol, seed, op.d, violations, columns=2)


def weaker_regularizer_check(
    reg: InducedRegularizer, trials: int, tol: float = 1e-9, seed: int = 0
) -> VerifyReport:
    """Sample the bound f(x) <= g(Tx); the induced f never exceeds g o T.

    What this can catch is narrow: ``induced_regularizer`` caps each value at
    g(Tx), computed from the same product T x as here, so the violation is at
    most 0 by construction (exactly 0 for square T). It fails only on a NaN
    value of f; an evaluation that cannot be certified raises NotConverged
    instead of reporting, and a finite f that is too low passes.
    """
    op = reg.shrinkage.operator

    def violations(x: np.ndarray) -> np.ndarray:
        f_vals = np.atleast_1d(induced_regularizer(reg, x, tol=min(tol * 1e-2, 1e-10)))
        return f_vals - np.asarray(reg.g(op.matrix @ x))

    return sampled_check("weaker_regularizer", trials, tol, seed, op.d, violations)
