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

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotConverged
from .operators import AnalysisOperator, _analysis, _json_floats, _json_matrix, build_operator
from .prox import ProxMap, numeric_prox, prox_map_by_name, soft_shrink_map
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


def _fista_points(proj, c, lam):
    """FISTA with gradient restart on the box-constrained dual of f, at unit step.

    The smooth part's gradient (I - P) u - c is 1-Lipschitz, so a step from
    y is the clip of P y + c onto [-lam, lam]. Carrying q = P u and q_y = P y
    next to u and y keeps each iteration at one product with P. Yields
    (u, (I - P) u) every _GAP_STRIDE iterations. The caller may send back a
    boolean mask of the columns to keep (None keeps all); the others leave c
    and the iteration state at once.
    """
    u = q = y = q_y = np.zeros_like(c)
    t = np.ones(c.shape[1])
    while True:
        for _ in range(_GAP_STRIDE):
            u_new = np.clip(q_y + c, -lam, lam)
            q_new = proj @ u_new
            du = u_new - u
            # gradient restart: drop a column's momentum once it points uphill
            restart = np.sum((y - u_new) * du, axis=0) > 0.0
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = np.where(restart, 0.0, (t - 1.0) / t_new)
            t = np.where(restart, 1.0, t_new)
            y = u_new + beta * du
            q_y = q_new + beta * (q_new - q)
            u, q = u_new, q_new
        keep = yield u, u - q
        if keep is not None:
            c, u, q, y, q_y, t = (a[..., keep] for a in (c, u, q, y, q_y, t))


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

    Raises ValueError on non-finite input and NotConverged if some column is
    not certified within ``max_iter`` iterations.
    """
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


# --- JSON shrinkage spec ------------------------------------------------------

def shrinkage_to_json(fs: FrameShrinkage) -> str:
    """Serialize as {"operator": <matrix JSON>, "prox": {"name", "lambda"}}."""
    m = fs.operator.matrix
    return json.dumps(
        {
            "operator": {
                "rows": m.shape[0],
                "cols": m.shape[1],
                "data": [float(v) for v in m.ravel()],
            },
            "prox": {"name": fs.inner_prox.name, "lambda": fs.inner_prox.lam},
        }
    )


def shrinkage_from_json(doc: str | dict) -> FrameShrinkage:
    if isinstance(doc, str):
        doc = json.loads(doc)
    try:
        matrix = _json_matrix(doc["operator"])
        lam = float(_json_floats([doc["prox"].get("lambda", 1.0)])[0])
        prox = prox_map_by_name(doc["prox"]["name"], lam)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed shrinkage spec: {exc}") from exc
    return FrameShrinkage(build_operator(matrix), prox)
