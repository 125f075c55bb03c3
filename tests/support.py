"""Independent oracles and fixture helpers used by the tests.

These deliberately avoid the library's own solvers: golden-section search,
dense grids and a plain dual FISTA are the reference answers the package
implementations are checked against; ``euclidean_prox`` runs the library's
prox oracle at T = I. The matrix writers produce the files
the loaders read, and ``t_inner`` is the T inner product the metric tests
are stated in.
"""

from pathlib import Path

import numpy as np

from proxframe import DimensionMismatch, FrameShrinkage, build_operator, numeric_prox
from proxframe.operators import _signals

INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section(fun, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 400) -> float:
    """Minimize a unimodal scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def grid_min(fun, lo: float, hi: float, n: int = 20001) -> tuple[float, float]:
    """Argmin and min of a scalar function over a dense grid."""
    xs = np.linspace(lo, hi, n)
    vals = np.array([fun(x) for x in xs])
    i = int(np.argmin(vals))
    return float(xs[i]), float(vals[i])


def central_diff(fun, x: np.ndarray, h_scale: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient with per-coordinate steps."""
    x = np.asarray(x, dtype=float)
    h = h_scale * np.maximum(1.0, np.abs(x))
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        grad[i] = (float(fun(x + e)) - float(fun(x - e))) / (2.0 * h[i])
    return grad


def entry_terms(potential, x: np.ndarray) -> np.ndarray:
    """The potential of each entry of x alone, one call per entry on a length-1 array."""
    return np.array([float(potential(x[i:i + 1])) for i in range(x.size)])


def moreau_trial_violations(prox_map, potential, dim: int, trials: int, seed: int = 0) -> np.ndarray:
    """Worst violation of the Moreau check in each trial, one trial at a time.

    Per sample x of the block sampler: the gap between the potential of x
    and the sum of its per-entry terms relative to max(1, |potential|),
    and, unless a coordinate of x lies within 10 steps of a breakpoint, the
    relative error of P(x) against the per-entry central differences of the
    potential, each from two calls on a length-1 array.
    """
    from proxframe.sampling import sample_trials

    worst = []
    for x in sample_trials(seed, 0, trials, dim)[0].T:
        px = np.asarray(prox_map(x))
        at_x = float(potential(x))
        found = [abs(at_x - float(np.sum(entry_terms(potential, x)))) / max(1.0, abs(at_x))]
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        gap = prox_map.breakpoint_gap
        if gap is None or not np.any(np.asarray(gap(x)) < 10.0 * h):
            fd = (entry_terms(potential, x + h) - entry_terms(potential, x - h)) / (2.0 * h)
            found.append(float(np.max(np.abs(fd - px)) / max(1.0, np.max(np.abs(px)))))
        worst.append(np.max(found))
    return np.array(worst)


def fista_points_reference(proj, c, lam):
    """The dual FISTA of ``shrinkage._fista_points`` in its plain form.

    It carries q = P u and q_y = P y beside u and y, extrapolates both, and
    recomputes the momentum t_{j+1} = (1 + sqrt(1 + 4 t_j^2)) / 2 of every
    column on every iteration. It yields (u, (I - P) u) every
    ``_GAP_STRIDE`` iterations and takes a mask of the columns to keep, as
    the kernel does.
    """
    from proxframe.shrinkage import _GAP_STRIDE

    u = q = y = q_y = np.zeros_like(c)
    t = np.ones(c.shape[1])
    while True:
        for _ in range(_GAP_STRIDE):
            u_new = np.clip(q_y + c, -lam, lam)
            q_new = proj @ u_new
            du = u_new - u
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


def line_regularizer(c: np.ndarray, b: np.ndarray, lam: float) -> float:
    """Exact min over the scalar w of 1/2 w^2 + lam ||c + b w||_1.

    This is the induced regularizer of soft shrinkage at y for a (d+1) x d
    operator T, with c = Ty and b a unit vector spanning null(T^T). The
    objective is convex and piecewise quadratic in w, with kinks at the
    breakpoints -c_i / b_i; on a piece where the signs of c + b w are s, its
    stationary point is -lam <s, b>. The minimizer is a breakpoint or the
    stationary point of its piece, so the least value over all of these
    points is exact.
    """
    def objective(w):
        return 0.5 * w * w + lam * np.sum(np.abs(c[:, None] + b[:, None] * w), axis=0)

    kinks = np.sort(-c[b != 0] / b[b != 0])
    # one point inside each piece gives that piece's signs
    inside = np.concatenate([[kinks[0] - 1.0], 0.5 * (kinks[1:] + kinks[:-1]), [kinks[-1] + 1.0]])
    stationary = -lam * (b @ np.sign(c[:, None] + b[:, None] * inside))
    return float(np.min(objective(np.concatenate([kinks, stationary]))))


def euclidean_prox(prox_map, x, **kwargs):
    """``numeric_prox`` in the Euclidean metric: the T-metric oracle at T = I.

    ``build_operator(np.eye(d))`` caches a pseudoinverse that is I bit for
    bit (checked for d = 1 to 120 and 200 to 500), so the minimizer is the
    oracle's iterate z itself.
    """
    d = np.atleast_1d(np.asarray(x)).shape[0]
    return numeric_prox(FrameShrinkage(build_operator(np.eye(d)), prox_map), x, **kwargs)


def t_inner(op, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """<x, y>_T = <Tx, Ty>; for (d, k) blocks, one inner product per column."""
    x, y = _signals(x, op.d), _signals(y, op.d)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shapes {x.shape} and {y.shape} differ")
    inner = np.sum((op.matrix @ x) * (op.matrix @ y), axis=0)
    return float(inner) if x.ndim == 1 else inner


# Decimal text with 17 significant digits round-trips float64 bit-exactly, so
# the loaders read back exactly the matrix these wrote.

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [",".join(_fmt(v) for v in row) for row in m]
    Path(path).write_text("\n".join(lines) + "\n")


def save_matrix_json(matrix: np.ndarray, path) -> None:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    n, d = m.shape
    data = ", ".join(_fmt(v) for v in m.ravel())
    Path(path).write_text(f'{{"rows": {n}, "cols": {d}, "data": [{data}]}}\n')
