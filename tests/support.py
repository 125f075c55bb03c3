"""Independent oracles and fixture helpers used by the tests.

These deliberately avoid the library's own solvers: golden-section search,
dense grids, an exact rational enumeration and the closed form of f at a
shrinkage output are the reference answers the package implementations are
checked against; ``euclidean_prox`` runs the library's prox oracle at T = I.
``certify_brackets`` holds f's certified bracket to the exact f. The matrix
writers produce the files the loaders read, and ``t_inner`` and
``t_gradient`` are the T inner product and T-metric gradient the metric
tests are stated in. ``run_samples`` is a whole run's samples, and
``recording`` wraps ``shrinkage._certify`` to keep each call's iterations.
"""

from fractions import Fraction
from itertools import combinations, product
from math import lcm
from operator import mul
from pathlib import Path

import numpy as np

from proxframe import DimensionMismatch, FrameShrinkage, InducedRegularizer, build_operator, numeric_prox
from proxframe import shrinkage, soft_shrink, soft_shrink_map
from proxframe.operators import _signals
from proxframe.sampling import sample_blocks

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


def run_samples(seed: int, trials: int, dim: int, columns: int = 1) -> np.ndarray:
    """A run's samples, shape (columns, dim, trials): its blocks, concatenated on the trial axis."""
    return np.concatenate(list(sample_blocks(seed, trials, dim, columns)), axis=2)


def moreau_trial_violations(prox_map, dim: int, trials: int, seed: int = 0) -> np.ndarray:
    """Worst violation of the Moreau check in each trial, one trial at a time.

    Per sample x of the block sampler: the gap between the potential of x
    and the sum of its per-entry terms relative to max(1, |potential|),
    and, unless a coordinate of x lies within 10 steps of a breakpoint, the
    relative error of P(x) against the per-entry central differences of the
    potential, each from two calls on a length-1 array.
    """
    potential = prox_map.potential
    worst = []
    for x in run_samples(seed, trials, dim)[0].T:
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


def _rational_solve(a, b):
    """X with a X = b for a square ``Fraction`` matrix a (lists of rows); None if a is singular."""
    k = len(a)
    m = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(k):
            if r != col and m[r][col]:
                m[r] = [v - m[r][col] * w for v, w in zip(m[r], m[col])]
    return [row[k:] for row in m]


def _apply(a, v):
    """The product of a ``Fraction`` matrix a (lists of rows) with a vector v."""
    return [sum(map(mul, row, v)) for row in a]


def exact_t_firm_violations(t, x, y, lam=None) -> list[Fraction]:
    """The t_firm violation of each pair of columns of x and y, in exact arithmetic.

    For an integer T, with T^+ = (T^T T)^{-1} T^T and F = T^+ S T, S soft
    shrinkage at lam (the identity if lam is None), the violation is
    ||T(Fx - Fy)||^2 - <T(x - y), T(Fx - Fy)>, where T(Fx - Fy) is
    P (S(Tx) - S(Ty)) with P = T T^+. Every float is a dyadic rational, so
    x, y and lam enter exactly.
    """
    rows = [[Fraction(int(v)) for v in row] for row in np.asarray(t)]
    cols = [list(col) for col in zip(*rows)]
    pinv = _rational_solve([_apply(cols, col) for col in cols], cols)
    # the columns of P = T T^+, which is symmetric: so also its rows
    proj = [_apply(rows, col) for col in zip(*pinv)]
    lam = None if lam is None else Fraction(float(lam))

    def shrink(v):
        return v if lam is None else v - min(max(v, -lam), lam)

    out = []
    for xj, yj in zip(np.asarray(x).T, np.asarray(y).T):
        tx, ty = (_apply(rows, [Fraction(v) for v in s]) for s in (xj, yj))
        df = _apply(proj, [shrink(a) - shrink(b) for a, b in zip(tx, ty)])
        out.append(sum(v * (v - (a - b)) for v, a, b in zip(df, tx, ty)))
    return out


def integer_operator(n, d, rng):
    """An n x d matrix of integers in [-3, 3] with full column rank."""
    while True:
        t = rng.integers(-3, 4, size=(n, d))
        if np.linalg.matrix_rank(t) == d:
            return t


def exact_regularizer(t, y, lam) -> Fraction:
    """The induced regularizer of soft shrinkage at lam, in exact arithmetic.

    For an integer T with n <= 7 rows, f(y) is the value of the dual
    max_{|u_i| <= lam} <u, c> - 1/2 u^T Q u, with c = Ty and
    Q = I - T (T^T T)^{-1} T^T. Every float is a dyadic rational, so c and Q
    are rational, and the dual is solved exactly by enumerating the
    lower/free/upper patterns of u: u_i = -lam or lam on the bound set B,
    and Q_FF u_F = c_F - Q_FB u_B on the free set F. A pattern is kept when
    u_F lies in the box and the gradient c - Qu has the sign of u on B, the
    KKT conditions; then u is a maximizer, since the dual is concave. An
    extreme point u of the optimal set is kept, with F its coordinates
    inside the box: a null vector v of Q_FF has Qv = 0, since Q is positive
    semidefinite, so u +- sv would be optimal too. So Q_FF is nonsingular,
    and F has at most n - d entries, the rank of Q. Every kept pattern
    must give the same value. y's entries may be floats or Fractions.
    """
    t = [[Fraction(int(v)) for v in row] for row in np.asarray(t)]
    y, lam = [Fraction(v) for v in np.ravel(y)], Fraction(float(lam))
    n, d = len(t), len(y)
    tt = [list(col) for col in zip(*t)]
    # (T^T T)^{-1} T^T
    left_inv = _rational_solve([[sum(map(mul, a, b)) for b in tt] for a in tt], tt)
    q = [[int(i == j) - sum(map(mul, t[i], col)) for j, col in enumerate(zip(*left_inv))]
         for i in range(n)]
    c = [sum(map(mul, row, y)) for row in t]
    values = set()
    for free in (f for k in range(n - d + 1) for f in combinations(range(n), k)):
        bound = [i for i in range(n) if i not in free]
        rows = [[c_i] + [q_i[j] for j in bound] for c_i, q_i in zip(c, q)]
        # rows [a | M] with u_F = a - M u_B ...
        affine = _rational_solve([[q[i][j] for j in free] for i in free], [rows[i] for i in free])
        if affine is None:
            continue
        # ... then rows [h | S] with c - Qu = h - S u_B on B
        affine += [[v - sum(q[i][k] * row[col] for k, row in zip(free, affine))
                    for col, v in enumerate(rows[i])] for i in bound]
        # u_B = lam s for signs s; scaled to integers, (u_F, (c - Qu)_B) is
        # base - slope s
        terms = [[row[0]] + [lam * v for v in row[1:]] for row in affine]
        scale = lcm(lam.denominator, *(v.denominator for row in terms for v in row))
        base = [int(row[0] * scale) for row in terms]
        slope = [[int(v * scale) for v in row[1:]] for row in terms]
        box = int(lam * scale)
        for signs in product((-1, 1), repeat=len(bound)):
            r = [b - sum(map(mul, row, signs)) for b, row in zip(base, slope)]
            inside, grad = r[:len(free)], r[len(free):]
            if all(abs(v) <= box for v in inside) and all(s * v >= 0 for s, v in zip(signs, grad)):
                u = dict(zip(free, (Fraction(v, scale) for v in r)))
                u.update(zip(bound, (lam * s for s in signs)))
                u = [u[i] for i in range(n)]
                qu = [sum(map(mul, q_i, u)) for q_i in q]
                values.add(sum(u_i * (c_i - qu_i / 2) for u_i, c_i, qu_i in zip(u, c, qu)))
    (value,) = values
    return value


def certify_brackets(seed: int, ns, lams=None) -> None:
    """Assert lower <= f <= upper <= g(Ty) at each column ``shrinkage._certify`` returns.

    On integer frames of n in ``ns`` rows and d < n columns, three signals y
    each (of size ~lam and in the dead zone), lam drawn per frame from 0.5, 1
    and 2 or each of ``lams``, tol 1e-9 and 0, against ``exact_regularizer``.
    Rounding in P and in the gap terms can put an end some ulps past f (most
    often at tol 0, where the floor closes the bracket): slack 1e-12 max(1, |f|).
    """
    rng = np.random.default_rng(seed)
    for n in ns:
        for d in range(1, n):
            t = integer_operator(n, d, rng)
            op = build_operator(t.astype(float))
            frame_lams = lams or [float(rng.choice([0.5, 1.0, 2.0]))]
            y = rng.integers(-64, 65, size=(d, 3)) / 16.0 * [1.0, 0.125, 2.0 ** -6]
            c = t @ y
            for lam in frame_lams:
                reg = InducedRegularizer(FrameShrinkage(op, soft_shrink_map(lam)))
                exact = [exact_regularizer(t, y[:, j], lam) for j in range(3)]
                for tol in (1e-9, 0.0):
                    upper, lower, _ = shrinkage._certify(reg, c, reg.g(c), tol)
                    assert np.all(upper <= reg.g(c)), (n, d, lam, tol)
                    for j, f in enumerate(exact):
                        slack = 1e-12 * max(1, abs(f))
                        assert lower[j] - slack <= f <= upper[j] + slack, (n, d, lam, j, tol)


def proof_regularizer(op, x, lam: float):
    """(y, f(y)) at y = T^+ p, p = S_lam(Tx): the paper's proof gives f there in closed form.

    For soft shrinkage at lam, w = B^T p and u = Tx - p are primal-dual
    optimal for f(y), so f(y) = 1/2 ||(I - P) p||^2 + lam ||p||_1, with P
    the range projector, at any size and lam; per column of a (d, k) x.
    """
    p = soft_shrink(op.matrix @ x, lam)
    q = p - op.range_proj @ p
    return op.pinv @ p, 0.5 * np.sum(q * q, axis=0) + lam * np.sum(np.abs(p), axis=0)


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


def t_gradient(op, euclidean_grad: np.ndarray) -> np.ndarray:
    """Gradient with respect to <.,.>_T: (T* T)^{-1} times the Euclidean one.

    The two gradients represent the same derivative in different inner
    products: <t_gradient(g), h>_T = <g, h> for every direction h. Since
    (T* T)^{-1} = T^+ (T^+)*, this is T^+ (T^+)* g, from the cached T^+.
    """
    return op.pinv @ (op.pinv.T @ _signals(euclidean_grad, op.d))


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


def recording(certify, runs: list):
    """``certify`` (``shrinkage._certify``), appending each call's iterations array to ``runs``."""

    def recorded(*args, **kwargs):
        result = certify(*args, **kwargs)
        runs.append(result[2])
        return result

    return recorded
