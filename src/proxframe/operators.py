"""Dense analysis operators and the geometry they induce.

A full-column-rank matrix T (n x d, n >= d) is the analysis operator of a
frame of R^d: its rows satisfy A ||x||^2 <= ||Tx||^2 <= B ||x||^2 with
A = sigma_min(T)^2 and B = sigma_max(T)^2. Such a T is injective, so
<x, y>_T = <Tx, Ty> is an inner product on the signal space, and the
Moore-Penrose inverse is given by T^+ = (T* T)^{-1} T*.

``build_operator`` validates a matrix and caches everything downstream code
reads repeatedly: the pseudoinverse, the orthogonal projector onto range(T),
an orthonormal basis of null(T*), the frame bounds, and the SVD factors used
for solves against T* T.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, RankDeficient
from .reports import VerifyReport, report_pass
from .sampling import max_over_chunks, sample_trials


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AnalysisOperator:
    """An injective n x d matrix with its cached derived quantities.

    Immutable after construction (arrays are write-protected); safe to share
    across threads.
    """

    matrix: np.ndarray          # T, shape (n, d)
    pinv: np.ndarray            # T^+, shape (d, n)
    range_proj: np.ndarray      # T T^+, shape (n, n)
    null_basis: np.ndarray      # orthonormal basis of null(T*), shape (n, n - d)
    frame_bounds: tuple[float, float]   # (sigma_min^2, sigma_max^2)
    singular_values: np.ndarray         # descending, length d
    right_vectors: np.ndarray           # V with T = U diag(s) V*, shape (d, d)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    def solve_gram(self, g: np.ndarray) -> np.ndarray:
        """Solve (T* T) z = g through the stored SVD factors."""
        v = self.right_vectors
        s2 = self.singular_values ** 2
        if g.ndim == 1:
            return v @ ((v.T @ g) / s2)
        return v @ ((v.T @ g) / s2[:, None])


def build_operator(matrix: np.ndarray, rank_tol: float = 1e-10) -> AnalysisOperator:
    """Validate a candidate analysis operator and cache its derived data.

    Parameters
    ----------
    matrix : array, shape (n, d) with n >= d >= 1
        Candidate operator; all entries must be finite.
    rank_tol : float
        Relative numerical-rank cutoff. The matrix is rejected when
        sigma_min <= rank_tol * sigma_max.

    Raises
    ------
    RankDeficient
        If the matrix does not have full column rank at the tolerance, i.e.
        it is not the analysis operator of a frame.
    """
    t = np.asarray(matrix, dtype=float)
    if t.ndim != 2:
        raise ValueError("operator must be a 2-d array")
    n, d = t.shape
    if d < 1 or n < d:
        raise ValueError(f"operator must be n x d with n >= d >= 1, got {n} x {d}")
    if not np.all(np.isfinite(t)):
        raise ValueError("operator entries must be finite")
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")

    u, s, vt = np.linalg.svd(t, full_matrices=True)
    if s[-1] <= rank_tol * s[0]:
        raise RankDeficient(
            f"smallest singular value {s[-1]:.3e} is below rank tolerance "
            f"{rank_tol:.1e} * {s[0]:.3e}; matrix is not injective"
        )

    pinv = (vt.T / s) @ u[:, :d].T
    return AnalysisOperator(
        matrix=_frozen(t),
        pinv=_frozen(pinv),
        range_proj=_frozen(t @ pinv),
        null_basis=_frozen(u[:, d:]),
        frame_bounds=(float(s[-1] ** 2), float(s[0] ** 2)),
        singular_values=_frozen(s),
        right_vectors=_frozen(vt.T),
    )


def random_operator(
    n: int, d: int, rng: np.random.Generator, cond: float | None = None
) -> AnalysisOperator:
    """Random full-rank n x d operator.

    With ``cond`` given, the singular values are log-spaced between 1/cond
    and 1 (so sigma_max = 1); otherwise entries are standard Gaussian.
    """
    if cond is None:
        return build_operator(rng.standard_normal((n, d)))
    if cond < 1:
        raise ValueError("cond must be >= 1")
    q1, _ = np.linalg.qr(rng.standard_normal((n, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.logspace(0.0, -np.log10(cond), d)
    return build_operator((q1 * s) @ q2.T)


@dataclass(frozen=True)
class TMetric:
    """The signal space re-normed by ||x||_T = ||Tx||."""

    operator: AnalysisOperator

    def norm(self, x: np.ndarray) -> float:
        x = _check_vector(self.operator, x)
        return float(np.linalg.norm(self.operator.matrix @ x))


def _check_vector(op: AnalysisOperator, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.shape[0] != op.d:
        raise DimensionMismatch(f"expected leading dimension {op.d}, got {x.shape}")
    return x


def t_inner(metric: TMetric, x: np.ndarray, y: np.ndarray) -> float:
    """<x, y>_T = <Tx, Ty>."""
    op = metric.operator
    x = _check_vector(op, x)
    y = _check_vector(op, y)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shapes {x.shape} and {y.shape} differ")
    return float((op.matrix @ x) @ (op.matrix @ y))


def t_gradient(metric: TMetric, euclidean_grad: np.ndarray) -> np.ndarray:
    """Gradient with respect to <.,.>_T: (T* T)^{-1} times the Euclidean one.

    The two gradients represent the same derivative in different inner
    products: <t_gradient(g), h>_T = <g, h> for every direction h.
    """
    op = metric.operator
    g = _check_vector(op, euclidean_grad)
    return op.solve_gram(g)


def verify_operator_identities(
    op: AnalysisOperator, tol: float = 1e-10, trials: int = 100, seed: int = 0
) -> VerifyReport:
    """Check the pseudoinverse and frame-bound identities to tolerance.

    Deterministic checks (max-entry norm): T^+ T = I, (T T^+)^2 = T T^+,
    (T T^+)* = T T^+, and T^+ = T^+ (T T^+). Sampled check on ``trials``
    random unit vectors: A ||x||^2 <= ||Tx||^2 <= B ||x||^2.

    Failures are reported in the returned record, never raised.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t, pinv, proj = op.matrix, op.pinv, op.range_proj
    a, b = op.frame_bounds

    def chunk(lo: int, hi: int) -> float:
        x = sample_trials(seed, lo, hi, op.d)[0]
        x /= np.sqrt(np.sum(x * x, axis=0))
        nx2 = np.sum(x * x, axis=0)
        tx = t @ x
        tx2 = np.sum(tx * tx, axis=0)
        return float(np.max(np.maximum(a * nx2 - tx2, tx2 - b * nx2)))

    worst = np.max([
        np.max(np.abs(pinv @ t - np.eye(op.d))),
        np.max(np.abs(proj @ proj - proj)),
        np.max(np.abs(proj.T - proj)),
        np.max(np.abs(pinv - pinv @ proj)),
        max_over_chunks(chunk, trials),
    ])
    return report_pass("operator_identities", trials, float(worst), tol)


# --- matrix I/O ------------------------------------------------------------
#
# Decimal text with 17 significant digits round-trips float64 bit-exactly in
# both the CSV form (no header, comma-separated rows) and the JSON form
# {"rows": n, "cols": d, "data": [row-major]}.

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def save_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [",".join(_fmt(v) for v in row) for row in m]
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix_csv(path: str | Path) -> np.ndarray:
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            rows.append([float(v) for v in line.split(",")])
    if not rows:
        raise ValueError(f"no rows in {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged rows in {path}")
    return np.array(rows, dtype=float)


def save_matrix_json(matrix: np.ndarray, path: str | Path) -> None:
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    n, d = m.shape
    data = ", ".join(_fmt(v) for v in m.ravel())
    Path(path).write_text(f'{{"rows": {n}, "cols": {d}, "data": [{data}]}}\n')


def load_matrix_json(path: str | Path) -> np.ndarray:
    doc = json.loads(Path(path).read_text())
    try:
        n, d, data = int(doc["rows"]), int(doc["cols"]), doc["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON in {path}: {exc}") from exc
    arr = np.asarray([float(v) for v in data], dtype=float)
    if arr.size != n * d:
        raise ValueError(f"matrix JSON in {path} declares {n}x{d} but has {arr.size} entries")
    return arr.reshape(n, d)
