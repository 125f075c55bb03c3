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

from .errors import DimensionMismatch, NotConverged
from .operators import AnalysisOperator, TMetric, build_operator
from .prox import ProxMap, numeric_prox, prox_map_by_name, soft_shrink_map
from .reports import VerifyReport, report_pass
from .sampling import max_over_chunks, sample_trials

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
    """T^+ o Prox o T with the metric in which it is a prox."""

    operator: AnalysisOperator
    inner_prox: ProxMap
    metric: TMetric | None = None

    def __post_init__(self):
        if self.metric is None:
            object.__setattr__(self, "metric", TMetric(self.operator))
        elif self.metric.operator is not self.operator:
            raise ValueError("metric must be derived from the same operator")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return frame_prox(self, x)


def _analysis(op: AnalysisOperator, x: np.ndarray) -> np.ndarray:
    """T x for signals x of dimension op.d; every entry must be finite.

    A non-finite signal always gives a non-finite T x (T has no zero
    column), so one check covers NaN and inf input as well as overflow.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape[0] != op.d:
        raise DimensionMismatch(f"expected signals of dimension {op.d}, got {arr.shape}")
    tx = op.matrix @ arr
    finite = np.isfinite(tx)
    if not finite.all():
        col = int(np.flatnonzero(~finite.reshape(op.n, -1).all(axis=0))[0])
        raise ValueError(f"signal column {col} is not finite, or overflows under T")
    return tx


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
    the two can never disagree.
    """

    shrinkage: FrameShrinkage

    def __post_init__(self):
        if self.g is None:
            name = self.shrinkage.inner_prox.name
            raise ValueError(f"prox map {name!r} carries no function handle")

    @classmethod
    def from_shrinkage(cls, fs: FrameShrinkage) -> "InducedRegularizer":
        return cls(fs)

    @property
    def g(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.shrinkage.inner_prox.function

    def __call__(self, x, tol: float = 1e-9):
        return induced_regularizer(self, x, tol)


def _fista_points(proj, c, prox_g):
    """FISTA with gradient restart on the dual of f, at unit step.

    The smooth part's gradient (I - P) u - c is 1-Lipschitz. Carrying
    r = (I - P) u next to u keeps each iteration at one product with P.
    Yields (u, r, q) every _GAP_STRIDE iterations, u a subgradient of g at q.
    The caller may send back a boolean mask of the columns to keep (None
    keeps all); the others leave c and the iteration state at once.
    """
    u = r = y = r_y = np.zeros_like(c)
    t = np.ones(c.shape[1])
    while True:
        for _ in range(_GAP_STRIDE):
            a = y - r_y + c             # gradient step from y: P y + c
            q = prox_g(a, 1.0)
            u_new = a - q
            r_new = u_new - proj @ u_new
            # gradient restart: drop a column's momentum once it points uphill
            restart = np.sum((y - u_new) * (u_new - u), axis=0) > 0.0
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = np.where(restart, 0.0, (t - 1.0) / t_new)
            t = np.where(restart, 1.0, t_new)
            y = u_new + beta * (u_new - u)
            r_y = r_new + beta * (r_new - r)
            u, r = u_new, r_new
        keep = yield u, r, q
        if keep is not None:
            c, u, r, y, r_y, t = (a[..., keep] for a in (c, u, r, y, r_y, t))


def _admm_points(proj, c, prox_g, rho):
    """ADMM on the dual of f, split u = v between its quadratic part and g*.

    With scaled multiplier m and a per-column penalty rho:

        u <- P b + c / rho + rho / (1 + rho) (I - P) b,      b = v - m
        v <- prox_{g*/rho}(u + m) = a - prox_{rho g}(rho a) / rho,   a = u + m
        m <- a - v

    rho is balanced against the primal and dual residuals (Boyd et al.
    2011, 3.4.1). Yields (v, (I - P) v, q) every _GAP_STRIDE iterations, v a
    subgradient of g at q, and takes a mask of the columns to keep as
    ``_fista_points`` does.
    """
    v = m = np.zeros_like(c)
    while True:
        for _ in range(_GAP_STRIDE):
            b = v - m
            pb = proj @ b
            u = pb + c / rho + rho / (1.0 + rho) * (b - pb)
            a = u + m
            q = prox_g(rho * a, rho)
            v_prev, v = v, a - q / rho
            m = a - v
        keep = yield v, v - proj @ v, q
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

    For square T the value is g(Tx). Otherwise, with c = Tx and B the stored
    orthonormal basis of null(T*), f(x) = min_w 1/2 ||w||^2 + g(c + B w),
    whose dual is

        max_u  <u, c> - g*(u) - 1/2 ||B^T u||^2,   ||B^T u||^2 = <u, (I - P) u>

    with P the range projector. It is solved by FISTA at unit step
    (``_fista_points``). A column still open after ``_FISTA_ITERS``
    iterations typically has Tx far inside the region where the prox of g
    is flat (|Tx| << lam for soft shrinkage); there unit-step FISTA creeps
    along range(T) at a speed set by |Tx|. Such columns get ADMM
    (``_admm_points``), whose penalty starts at max|Tx| / lam and follows
    that scale, run beside a fresh FISTA. Both solvers reach g* through the
    ProxMap alone: each dual iterate is a subgradient of g at a prox output,
    so g* follows from the Fenchel-Young equality.

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

    if op.n == op.d:
        return float(g_c[0]) if squeeze else g_c

    proj = op.range_proj
    prox_g = fs.inner_prox.prox
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
                u, r, q = points.send(keep)
                half_sq = 0.5 * np.sum(u * r, axis=0)
                primal = np.minimum(primal, half_sq + g(c_sub - r))
                g_star = np.sum(u * q, axis=0) - g(q)
                dual = np.maximum(dual, np.sum(u * c_sub, axis=0) - g_star - half_sq)
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
    cols = certify([_fista_points(proj, c, prox_g)], cols, min(max_iter, _FISTA_ITERS))
    if cols.size:
        c_open = c[:, cols]
        c_max = np.max(np.abs(c_open), axis=0)
        rho = np.where(c_max > 0.0, c_max / fs.inner_prox.lam, 1.0)
        solvers = [_fista_points(proj, c_open, prox_g), _admm_points(proj, c_open, prox_g, rho)]
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

    For sampled x, compares the closed-form composition against the numeric
    prox of the induced regularizer in the T metric, in T-norm distance, and
    compares the objective 1/2 ||x - y||_T^2 + f(y) at the two points. The
    inner solves run an order of magnitude tighter than ``tol``. A block in
    which the numeric prox did not converge measures nothing: it reports an
    infinite violation, so the check fails.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    op = fs.operator
    inner_tol = tol / 10.0

    def objective(x, y):
        t_diff = op.matrix @ (x - y)
        return 0.5 * np.sum(t_diff * t_diff, axis=0) + induced_regularizer(
            reg, y, tol=inner_tol
        )

    def chunk(lo: int, hi: int) -> float:
        x = sample_trials(seed, lo, hi, op.d)[0]
        oracle = numeric_prox(reg, x, metric=fs.metric, tol=inner_tol)
        if not oracle.converged:
            return np.inf
        y1 = frame_prox(fs, x)
        y2 = np.atleast_2d(oracle.minimizer)
        gap = op.matrix @ (y1 - y2)
        dist = np.sqrt(np.sum(gap * gap, axis=0))
        obj_gap = np.abs(objective(x, y1) - objective(x, y2))
        return float(np.max(np.maximum(dist, obj_gap)))

    worst = max_over_chunks(chunk, trials)
    return report_pass("prox_identity", trials, worst, tol)


def verify_t_firm_nonexpansive(
    fs: FrameShrinkage, trials: int, tol: float, seed: int = 0
) -> VerifyReport:
    """Sample firm nonexpansiveness of the shrinkage in the T metric."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    op = fs.operator

    def chunk(lo: int, hi: int) -> float:
        x, y = sample_trials(seed, lo, hi, op.d, 2)
        df = op.matrix @ (frame_prox(fs, x) - frame_prox(fs, y))
        dx = op.matrix @ (x - y)
        viol = np.sum(df * df, axis=0) - np.sum(dx * df, axis=0)
        return float(np.max(viol))

    worst = max_over_chunks(chunk, trials)
    return report_pass("t_firm_nonexpansive", trials, worst, tol)


def weaker_regularizer_check(
    reg: InducedRegularizer, trials: int, tol: float = 1e-9, seed: int = 0
) -> VerifyReport:
    """Sample the bound f(x) <= g(Tx); the induced f never exceeds g o T."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    op = reg.shrinkage.operator

    def chunk(lo: int, hi: int) -> float:
        x = sample_trials(seed, lo, hi, op.d)[0]
        f_vals = np.atleast_1d(induced_regularizer(reg, x, tol=min(tol * 1e-2, 1e-10)))
        g_vals = np.asarray(reg.g(op.matrix @ x))
        return float(np.max(f_vals - g_vals))

    worst = max_over_chunks(chunk, trials)
    return report_pass("weaker_regularizer", trials, worst, tol)


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
        om = doc["operator"]
        matrix = np.asarray(om["data"], dtype=float).reshape(om["rows"], om["cols"])
        prox = prox_map_by_name(doc["prox"]["name"], float(doc["prox"].get("lambda", 1.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed shrinkage spec: {exc}") from exc
    return FrameShrinkage(build_operator(matrix), prox)
