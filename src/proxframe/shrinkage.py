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
from functools import partial
from typing import Callable

import numpy as np

from .errors import NotConverged
from .operators import AnalysisOperator, _analysis, build_operator
from .prox import ProxMap, soft_shrink_map
from .reports import SolveReport, VerifyReport
from .sampling import _check_tol, sampled_check

# A duality-gap check, the product (I - P) u and the gap's bookkeeping, costs
# two to four iterations of the dual solve at 2 to 100 open columns and up
# to six at one; checking on every eighth iteration stops a column at most
# seven iterations late. Measured in CHANGES.md, in the entry "f's
# float32 phase ends when float32 stops lowering a gap", as are the two
# constants below.
_GAP_STRIDE = 8
# Unit-step FISTA certifies every column of the benchmark workloads well
# within this many iterations; a column still open after it also gets ADMM.
_FISTA_ITERS = 2048
# Gap below which float64 rounding of its terms dominates, per unit of
# 1 + |g(Tx)| + ||u||^2; where the gap stalls is measured in CHANGES.md, in
# the entry "f's dual solver behind its contract".
_GAP_FLOOR = 64 * np.finfo(float).eps
# Frames with at least this many rows run FISTA's first phase in float32
# (``_certify``), where a product with P costs about half the float64 one.
# Below it the per-step overhead dominates.
_FLOAT32_ROWS = 64
# That phase runs only where lam and every |Tx| are below this, so that no
# float32 copy or iterate overflows
_FLOAT32_RANGE = 2.0 ** 64
# Iterations after which an evaluation of f that is still open raises
# NotConverged, and after which the prox oracle reports a column unconverged.
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
        """``InducedRegularizer(fs)``: an alias kept only while the benchmark harness binds it."""
        return cls(fs)

    @property
    def g(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.shrinkage.inner_prox.function


def _col_dot(a, b):
    """The inner product of each column of a with the same column of b, (n, k) blocks.

    One matmul call reads each pair of columns once, with no (n, k)
    temporary; on column-contiguous blocks each pair is contiguous. A
    one-column block takes one ``ndarray.dot`` of its columns, a BLAS dot.
    """
    if a.shape[1] == 1:
        return a.T.dot(b)[0]
    return np.matmul(a.T[:, None], b.T[..., None]).ravel()


def _fista_steps(proj, c, lam, u, y):
    """Run ``_GAP_STRIDE`` iterations of unit-step FISTA, with restart, on f's box-constrained dual.

    The smooth part's gradient (I - P) u - c is 1-Lipschitz, so a step from
    y is the clip of P y + c onto [-lam, lam]. The state is the iterate u
    and the extrapolated point y = u_new + (u_new - u), with u the previous
    iterate: momentum 1, as greedy FISTA takes at the unit step (Liang, Luo
    & Schoenlieb, SIAM J. Sci. Comput. 44, 2022). A column whose step
    points uphill, <y - u_new, u_new - u> > 0 for the y it stepped from,
    takes momentum 0 on that step instead (y = u_new): the gradient restart
    of O'Donoghue & Candes (2015). Each iteration takes one product with P,
    for P y, forms that inner product per column in one pass
    (``_col_dot``), and works in place in u, y and one scratch block, which
    trade roles. The scratch block takes c's layout and dtype, float32 or
    float64 as ``_certify`` chooses; ``_certify`` passes c
    and the state column-contiguous (Fortran order), so every column of
    every block is contiguous. A one-column block runs on 1-D views of its
    column, with ``ndarray.dot`` for P y and a Python test of one dot for
    the restart. Returns the new (u, y), (n, k) blocks; the u and y given
    are overwritten.
    """
    block = c.shape[1] > 1
    if not block:
        c, u, y = c[:, 0], u[:, 0], y[:, 0]
    u_new = np.empty_like(c)
    product = partial(np.matmul, proj) if block else proj.dot
    # the box as 0-d arrays, which a ufunc takes faster than a Python float
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

    rho is a (1, k) row, so that the state compacts as its blocks do.
    c / rho and rho / (1 + rho) are formed once per call, and each step
    works in place in v, m and two scratch blocks laid out like v, in the
    order of the terms above, so its bits are those of the formula. Returns
    the new (v, m, rho); the v and m given are overwritten, so they must not
    share memory.
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
    """Bounds upper >= f >= lower at each column of c = Ty, and the iterations each took.

    The contract, which ``test_shrinkage`` tests. ``feasible`` may be the
    primal objective 1/2 ||w||^2 + g(c + w) at any w in null(T*), such as
    g(c) at w = 0, so it bounds f from above. At every column lower <= f <=
    upper <= feasible, the first two up to float64 rounding of their terms.
    A column stops the first time upper - lower is at most ``tol`` or a
    floor of ``_GAP_FLOOR``, 64 ulps, of 1 + |feasible| + ||u||^2 (u the
    dual iterate, summed over its solvers), the scale at which float64
    rounding of the gap's terms sets in. Its bounds match a one-column
    evaluation up to that gap (BLAS may round a product differently at
    another column count) and do not depend on c's layout. For square T,
    f = g o T, and where every feasible value is 0 (the identity map, whose
    g is 0, an all-zero block of soft shrinkage, and a block without
    columns) f is 0, since 0 <= f <= feasible for the catalog maps; there it
    returns (feasible, feasible, 0) and runs no solver. With ``prune``, a
    column also stops, its gap unchecked, once its upper bound minus its
    feasible value is below the highest lower bound minus feasible value of
    any column so far: it can no longer set the block's largest
    f - feasible, so pruning keeps that maximum. Raises NotConverged if
    some column is open after ``_MAX_ITER`` iterations, naming the
    iterations run and the largest gap of those columns (inf if none ran),
    and at the first gap check where a gap or its scale is not finite,
    naming lam and the iteration: at large lam, ||u||^2 and ADMM's c / rho
    can leave the float64 range. Overflow and invalid values raise no
    warning here (``np.errstate``); that check reports them.

    The solvers, which ``test_certify_kernels`` pins. One loop of gap
    checks, ``_GAP_STRIDE`` iterations apart, runs FISTA (``_fista_steps``)
    on every column and, from iteration ``_FISTA_ITERS`` on, ADMM
    (``_admm_steps``) beside it on the columns still open, its penalty fixed
    there at max|c| / lam. It keeps each step function's state, whose first
    entry is the solver's dual iterate u, and at each check forms
    r = (I - P) u itself. An open column takes the lowest primal value (its
    feasible value, or 1/2 <u, r> + g(c - r), the primal at w = -B^T u) and
    the highest dual value, <u, c> - 1/2 ||r||^2, its solvers reach. One
    keep-mask drops the stopped columns from c, every solver's state and
    the loop's own per-column arrays. On a frame of at least
    ``_FLOAT32_ROWS`` rows FISTA starts in float32, on float32 copies of P^T
    and c, clipping onto the float32 box; each gap check casts its iterate
    to float64 and re-clips it into [-lam, lam], so every bound is formed in
    float64 as above. FISTA goes on in float64, from that iterate, after the
    first gap check at which some column that stays open has a gap not below
    its gap at the check before, and at the latest after ``_FISTA_ITERS``
    iterations, so ADMM runs in float64 throughout. Where lam or some |c|
    reaches ``_FLOAT32_RANGE`` FISTA runs in float64 from the start. The
    third array holds the FISTA iterations each column ran before it
    stopped, a multiple of ``_GAP_STRIDE`` (0 where no solver ran). The
    solvers run on c in column-contiguous (Fortran) order, copied if it is
    not, and apply P as P^T, a column-major view of the operator's C-ordered
    projector, so every block keeps each column contiguous through every
    compaction and each ``_col_dot`` is one pass. P = U_d U_d^T is
    symmetric as formed; ``test_range_projector_rounding_does_not_grow_with_condition``
    holds P^T - P within 4 eps and P^2 - P within 16 eps at conditions 1 to
    1e6 and scales 1e-6 to 1e6.
    """
    op, g = reg.shrinkage.operator, reg.g
    iters = np.zeros(c.shape[1], dtype=int)
    if op.n == op.d or not feasible.any():
        return feasible, feasible, iters
    # P^T, a view of P, is already in the blocks' column-major order
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
    """Evaluate the induced regularizer at x (or at each column of x).

    ``InducedRegularizer`` admits the catalog maps only. For square T, and
    for the identity map (g = 0), the value is g(Tx). Otherwise g is
    lam ||.||_1 (soft shrinkage) and, with c = Tx and B an orthonormal basis
    of null(T*), f(x) = min_w 1/2 ||w||^2 + g(c + B w). The conjugate of g
    is the indicator of the box [-lam, lam]^n, so the dual is the
    box-constrained QP

        max_{|u_i| <= lam}  <u, c> - 1/2 ||B^T u||^2,   ||B^T u||^2 = ||(I - P) u||^2

    with P the range projector. ``_certify``, whose docstring states its
    contract and its solvers, brackets f with g(Tx) as the feasible value
    and stops each column once its gap is within ``tol`` or a rounding
    floor. The result is that column's upper bound, so dual <= f(x) <=
    result <= g(Tx), and it matches a one-column evaluation up to the
    certified gap. A (d, 0) block runs no solver.

    Raises ValueError on non-finite input or a NaN ``tol``. Raises
    NotConverged if some column is not certified within ``_MAX_ITER``
    iterations, naming the iterations run and the gap reached, and at a lam
    so large that the dual's terms leave the float64 range, naming lam.
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

# the oracle's forward-backward step t: any t < 1 keeps the certificate, and
# active coordinates contract by 1 - t per iteration. At this step no iterate
# was farther from the exact prox than its step term plus the rounding term
# the certificate adds: measured in CHANGES.md, in the entry
# "f's dual solver behind its contract".
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
    """Numerical prox oracle in the T metric.

    Minimizes ``1/2 ||x - y||_T^2 + f(y)`` where f is the regularizer induced
    by the FrameShrinkage fs, which composes an inner prox with T; anything
    else, an InducedRegularizer or a bare ProxMap included, raises
    TypeError. The Euclidean oracle is the case T = I,
    ``FrameShrinkage(build_operator(np.eye(d)), g)``. In
    z = T y + B w, with B an orthonormal basis of null(T*), the problem is
    min_z 1/2 ||z - T x||^2 + g(z), the prox of the inner function at T x.
    The oracle solves it by forward-backward at step t = ``_STEP`` = 9/10
    from z = 0, a gradient step on the quadratic and a prox step on g
    through the inner map's scaled handle alone,

        z+ <- prox_{t g}((1 - t) z + t T x),

    and returns y = T^+ z. (z - z+) / t - (z - T x) is a subgradient of g at
    z+, so the objective has the subgradient (1/t - 1)(z - z+) at z+. The
    problem is 1-strongly convex, so (1/t - 1) ||z - z+||, ||z - z+|| / 9,
    bounds ||z+ - z*||, the T-norm error of y, in exact arithmetic; the
    certificate adds the rounding term eps (||z+|| + ||T x||) for the
    rounding of the step (measured, see ``_STEP``). Active coordinates of a
    shrinkage contract by 1 - t = 1/10 per iteration; dead-zone ones land on
    exact zeros. At t = 1 this would be the closed form prox_g(T x); at
    t < 1 it stays a numerical solve.

    The columns of a (d, k) block run in lockstep. Each column stops at its
    first z+ whose certificate is within ``tol``, or unconverged at its
    first z+ whose rounding term alone exceeds ``tol``; ||z+|| only grows
    from z = 0 for the catalog maps, so no later iterate could certify.
    That test reads tol / eps < ||z+|| + ||T x||, whose terms do not
    underflow, so a ``tol`` below the rounding term fails at once at every
    scale, a subnormal T x included. A column still open at iteration
    ``_MAX_ITER`` stops there, unconverged. A stopped column leaves the
    block; ``residual`` is the largest certificate, and ``converged`` says
    that every column stopped on its certificate: at a subnormal T x the
    certificate itself can round to 0. A column's numbers match a
    one-column call up to rounding only: numpy sums a block's squares, and
    forms T x, in an order set by the block's width, so a norm can differ
    in the last bit (measured in CHANGES.md, in the entry named at
    ``_STEP``), and a certificate within an ulp of ``tol`` can stop the
    column an iteration apart.

    The report carries a minimizer of x's shape and no objective; an empty
    (d, 0) block gives an empty minimizer, converged, with residual 0.
    Non-convergence is reported through the ``converged`` flag, not raised;
    a NaN or inf signal raises ValueError naming its column, as
    ``frame_prox`` and ``induced_regularizer`` do, and a NaN or negative
    ``tol`` raises ValueError at once.
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
            z_new = inner.prox((1.0 - _STEP) * z + tv, _STEP)
            size = _norms(z_new, limit) + tx_norm
            now = (1.0 / _STEP - 1.0) * _norms(z - z_new, limit) + eps * size
            z = z_new
            # tol below the rounding term eps * size, tested without forming
            # it: at a subnormal T x it underflows, and so can now
            below = tol / eps < size
            ok = (now <= tol) & ~below
            stop = ok | below | (iters == _MAX_ITER)
            if stop.any():
                z_out[:, cols[stop]], cert[cols[stop]] = z[:, stop], now[stop]
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
    """Check that fs solves the prox problem of reg, which must be InducedRegularizer(fs).

    Any other reg raises ValueError before a sample is drawn. For sampled x,
    with (Tx, p, y1) from ``_compose``, whose y1 ``frame_prox`` returns,
    reports the larger of y1's T-norm distance to the certified numeric
    prox and the violation of the envelope identity (in z = Ty + Bw
    the prox problem is min_z 1/2 ||z - Tx||^2 + g(z), its minimum at y1)

        1/2 ||T(x - y1)||^2 + f(y1) = 1/2 ||Tx - p||^2 + g(p),   p = Prox(Tx),

    which catches a wrong f. f(y1) is certified to a bracket
    lower <= f(y1) <= upper, and the identity's violation is the larger one
    at either end. The upper end starts at the primal value at z = p,
    1/2 ||p - Ty1||^2 + g(p) with the envelope's own g(p), capped at
    g(Ty1); for square T, where p - Ty1 is rounding alone, it is g(Ty1).
    Since p - Ty1 = (I - P) p lies in null(T*), ||Tx - p||^2 =
    ||T(x - y1)||^2 + ||p - Ty1||^2, so the identity holds at that end by
    construction, up to rounding. The lower end is f's dual
    solve, so the identity's content is f(y1) >= that primal value, which
    only the dual can certify; a dual stopped early leaves the bracket wide
    and the check fails. The check passes if the larger violation is at
    most ``tol``, 1e-6 by default, and both solves per trial, the oracle
    and f(y1), run an order of magnitude tighter. A NaN or negative ``tol``
    raises ValueError naming it (``sampled_check``). A block in which the
    numeric prox did not converge reports an infinite violation, so the
    check fails, and f raises NotConverged as ``induced_regularizer`` does.

    The envelope term carries the paper's claim: it ties f to the
    shrinkage. The distance term does not, since the oracle solves the prox
    of g at Tx and T enters both sides the same way; it tests the
    composition code and the inner map's scaled prox handle.
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

    What this can catch is narrow: f is capped at g(Tx), computed from the
    same product T x as here, so the violation is at most 0 by construction
    (exactly 0 for square T). It fails only on a NaN value of f, and a
    finite f that is too low passes.

    The check reports the largest f(x) - g(Tx) of each block of trials, and
    only that maximum is certified to the inner tolerance
    min(tol 1e-2, 1e-10), as ``induced_regularizer`` certifies a value:
    f's dual solve (``_certify``) runs with ``prune``, so a trial that can
    no longer set the maximum leaves it early and reports its upper bound,
    shown to lie below the maximum, not evaluated to the inner tolerance.
    NotConverged is raised only if a trial that could still set the maximum
    is not certified within ``_MAX_ITER`` iterations, as in
    ``induced_regularizer``. A NaN or negative ``tol`` raises ValueError
    naming it (``sampled_check``); any other gives a valid inner tolerance.
    """
    op = reg.shrinkage.operator
    inner_tol = min(tol * 1e-2, 1e-10)

    def violations(x: np.ndarray) -> np.ndarray:
        c = _analysis(op, x)
        g_c = reg.g(c)
        return _certify(reg, c, g_c, inner_tol, prune=True)[0] - g_c

    return sampled_check("weaker_regularizer", trials, tol, seed, op.d, violations)
