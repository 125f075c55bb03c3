"""Independent oracles used by the tests.

These deliberately avoid the library's own solvers: golden-section search
and dense grids are the reference answers the package implementations are
checked against.
"""

import numpy as np

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

    Per pair (x, y) of the block sampler: ||Px - Py|| - ||x - y||, the
    midpoint-convexity gap of the potential, the gap between the potential
    of x and the sum of its per-entry terms relative to max(1, |potential|),
    and, unless a coordinate of x lies within 10 steps of a breakpoint, the
    relative error of P(x) against the per-entry central differences of the
    potential, each from two calls on a length-1 array.
    """
    from proxframe.sampling import sample_trials

    worst = []
    for x, y in sample_trials(seed, 0, trials, dim, 2).transpose(2, 0, 1):
        px = np.asarray(prox_map(x))
        py = np.asarray(prox_map(y))
        found = [float(np.linalg.norm(px - py) - np.linalg.norm(x - y))]
        at_x = float(potential(x))
        mid = float(potential(0.5 * (x + y)))
        found.append(mid - 0.5 * (at_x + float(potential(y))))
        found.append(abs(at_x - float(np.sum(entry_terms(potential, x)))) / max(1.0, abs(at_x)))
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        gap = prox_map.breakpoint_gap
        if gap is None or not np.any(np.asarray(gap(x)) < 10.0 * h):
            fd = (entry_terms(potential, x + h) - entry_terms(potential, x - h)) / (2.0 * h)
            found.append(float(np.max(np.abs(fd - px)) / max(1.0, np.max(np.abs(px)))))
        worst.append(np.max(found))
    return np.array(worst)


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
