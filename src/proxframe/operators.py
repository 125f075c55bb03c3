"""Dense analysis operators and the geometry they induce.

A full-column-rank matrix T (n x d, n >= d) is the analysis operator of a
frame of R^d: its rows satisfy A ||x||^2 <= ||Tx||^2 <= B ||x||^2 with
A = sigma_min(T)^2 and B = sigma_max(T)^2. Such a T is injective, so
<x, y>_T = <Tx, Ty> is an inner product on the signal space, and the
Moore-Penrose inverse is given by T^+ = (T* T)^{-1} T*.

``build_operator`` validates a matrix and caches everything downstream code
reads repeatedly: the pseudoinverse, the orthogonal projector onto range(T),
and the frame bounds, all from one SVD T = U S V^T. With U_d the first d
columns of U, T^+ = V S^{-1} U_d^T and P = U_d U_d^T, whose rounding, unlike
that of the product T T^+, does not grow with cond(T). Each array is stored
once, in C order and write-protected; a caller that needs another layout
takes a view of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, RankDeficient
from .reports import VerifyReport
from .sampling import sampled_check


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AnalysisOperator:
    """An injective n x d matrix with its cached derived quantities.

    Immutable after construction (arrays are write-protected).
    """

    matrix: np.ndarray          # T, shape (n, d)
    pinv: np.ndarray            # T^+, shape (d, n)
    range_proj: np.ndarray      # P = T T^+ = U_d U_d^T, shape (n, n)
    frame_bounds: tuple[float, float]   # (sigma_min^2, sigma_max^2)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


# relative numerical-rank cutoff: a matrix with sigma_min <= _RANK_TOL sigma_max is rejected
_RANK_TOL = 1e-10


def build_operator(matrix: np.ndarray) -> AnalysisOperator:
    """Validate a candidate analysis operator and cache its derived data.

    Parameters
    ----------
    matrix : array, shape (n, d) with n >= d >= 1
        Candidate operator; all entries must be finite.

    Raises
    ------
    RankDeficient
        If the matrix does not have full column rank at ``_RANK_TOL``, i.e.
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

    u, s, vt = np.linalg.svd(t, full_matrices=True)
    if s[-1] <= _RANK_TOL * s[0]:
        raise RankDeficient(
            f"smallest singular value {s[-1]:.3e} is below rank tolerance "
            f"{_RANK_TOL:.1e} * {s[0]:.3e}; matrix is not injective"
        )

    ud = u[:, :d]
    pinv = (vt.T / s) @ ud.T
    return AnalysisOperator(
        matrix=_frozen(t),
        pinv=_frozen(pinv),
        range_proj=_frozen(ud @ ud.T),
        frame_bounds=(float(s[-1] ** 2), float(s[0] ** 2)),
    )


def random_operator(n: int, d: int, rng: np.random.Generator, cond: float) -> AnalysisOperator:
    """Random n x d operator with singular values log-spaced between 1/cond and 1.

    So sigma_max = 1 and the condition number is ``cond``, which must be >= 1.
    A standard Gaussian operator is ``build_operator(rng.standard_normal((n, d)))``.
    """
    if cond < 1:
        raise ValueError("cond must be >= 1")
    q1, _ = np.linalg.qr(rng.standard_normal((n, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.logspace(0.0, -np.log10(cond), d)
    return build_operator((q1 * s) @ q2.T)


def _signals(x: np.ndarray, d: int) -> np.ndarray:
    """x as a float signal of dimension d or (d, k) block of them."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim > 2 or arr.shape[0] != d:
        raise DimensionMismatch(f"expected signals of dimension {d}, got {arr.shape}")
    return arr


def _finite_columns(v: np.ndarray) -> np.ndarray:
    """v itself; raises ValueError naming the first column with a non-finite entry."""
    finite = np.isfinite(v)
    if not finite.all():
        col = int(np.flatnonzero(~finite.reshape(v.shape[0], -1).all(axis=0))[0])
        raise ValueError(f"signal column {col} is not finite, or overflows under T")
    return v


def _analysis(op: AnalysisOperator, x: np.ndarray) -> np.ndarray:
    """T x for a signal or (d, k) block of signals; every entry must be finite.

    A non-finite signal always gives a non-finite T x (T has no zero
    column), so one check covers NaN and inf input as well as overflow.
    """
    return _finite_columns(op.matrix @ _signals(x, op.d))


def verify_operator_identities(
    op: AnalysisOperator, tol: float = 1e-10, trials: int = 100, seed: int = 0
) -> VerifyReport:
    """Check the pseudoinverse and frame-bound identities to tolerance.

    Deterministic checks (max-entry norm): T^+ T = I, (T T^+)^2 = T T^+,
    (T T^+)* = T T^+, and T^+ = T^+ (T T^+), the last relative to max|T^+|:
    it is the only term that scales as 1/sigma, so rounding alone, about
    10 eps max|T^+|, would fail it on a small or ill-conditioned T. Sampled
    check on ``trials`` random unit vectors: A ||x||^2 <= ||Tx||^2 <= B ||x||^2.

    Failures are reported in the returned record, never raised; a NaN or
    negative ``tol`` raises ValueError (``sampled_check``).
    """
    t, pinv, proj = op.matrix, op.pinv, op.range_proj
    a, b = op.frame_bounds
    exact = max(
        np.max(np.abs(pinv @ t - np.eye(op.d))),
        np.max(np.abs(proj @ proj - proj)),
        np.max(np.abs(proj.T - proj)),
        np.max(np.abs(pinv - pinv @ proj)) / np.max(np.abs(pinv)),
    )

    def violations(x: np.ndarray) -> np.ndarray:
        x /= np.sqrt(np.add.reduce(x * x, 0))
        nx2 = np.add.reduce(x * x, 0)
        tx = t @ x
        tx2 = np.add.reduce(tx * tx, 0)
        return np.maximum(np.maximum(a * nx2 - tx2, tx2 - b * nx2), exact)

    return sampled_check("operator_identities", trials, tol, seed, op.d, violations)


# --- matrix I/O ------------------------------------------------------------
#
# Decimal text with 17 significant digits round-trips float64 bit-exactly in
# both the CSV form (no header, comma-separated rows) and the JSON form
# {"rows": n, "cols": d, "data": [row-major]}.

def load_matrix_csv(path: str | Path) -> np.ndarray:
    rows = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if line:
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"malformed matrix CSV in {path}, line {number}: {exc}") from exc
    if not rows:
        raise ValueError(f"no rows in {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged rows in {path}")
    return np.array(rows, dtype=float)


def _json_floats(values) -> np.ndarray:
    """A JSON list of numbers as floats; ValueError if ``values`` is not a list,
    holds anything but numbers (a string, a boolean, null, a list) or holds
    an integer beyond the float range."""
    if not isinstance(values, list):
        raise ValueError(f"expected a list of numbers, got {values!r}")
    for v in values:
        if type(v) not in (int, float):
            raise ValueError(f"expected numbers only, got {v!r}")
    try:
        return np.array(values, dtype=float)
    except OverflowError as exc:
        raise ValueError("expected numbers in the float range, got a larger integer") from exc


def _json_matrix(doc) -> np.ndarray:
    """The matrix of a JSON matrix document; rows and cols must be JSON integers
    >= 1 and data a flat list of rows * cols numbers, or ValueError is raised."""
    try:
        n, d, data = doc["rows"], doc["cols"], doc["data"]
        if not all(type(v) is int and v >= 1 for v in (n, d)):
            raise ValueError(f"rows and cols must be integers >= 1, got {n!r} and {d!r}")
        arr = _json_floats(data)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"missing or malformed field: {exc!r}") from exc
    if arr.shape != (n * d,):
        raise ValueError(f"declares {n}x{d} but data has shape {arr.shape}")
    return arr.reshape(n, d)


def load_matrix_json(path: str | Path) -> np.ndarray:
    doc = json.loads(Path(path).read_text())
    try:
        return _json_matrix(doc)
    except ValueError as exc:
        raise ValueError(f"malformed matrix JSON in {path}: {exc}") from exc
