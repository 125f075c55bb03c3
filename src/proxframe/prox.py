"""Closed-form proximity operators, envelopes, and their property checks.

The catalog is small by design: soft shrinkage (the prox of ``lam * l1``)
with its envelope and potential, and the identity (the prox of the zero
function). ``ProxMap`` bundles an operator with the scaled-prox handle the
splitting solvers consume, so anything placed in a ``ProxMap`` can be used
both as a shrinkage ingredient and inside the numeric prox oracle.

Every map here is componentwise, so a ProxMap applied to an (m, k) array
acts column by column; the verification routines and batched solvers rely
on that convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonPositiveLambda
from .operators import TMetric, build_operator
from .reports import SolveReport, VerifyReport, report_pass
from .sampling import max_over_chunks, sample_trials
from . import splitting


def _check_lambda(lam):
    """``lam`` as a float (or float array); every entry must be finite and > 0."""
    if np.ndim(lam) == 0:
        lam = float(lam)
        if not 0 < lam < np.inf:
            raise NonPositiveLambda(f"lambda must be positive and finite, got {lam}")
        return lam
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam > 0) & (lam < np.inf)):
        raise NonPositiveLambda("lambda must be positive and finite")
    return lam


def soft_shrink(x, lam):
    """Componentwise soft shrinkage with threshold ``lam``.

    Maps x to x - lam above the threshold, x + lam below -lam, and 0 on the
    dead zone [-lam, lam]. This is the prox of ``lam * l1``. ``lam`` may be
    an array broadcastable against x (used for per-column solver steps).
    """
    lam = _check_lambda(lam)
    a = np.asarray(x, dtype=float)
    out = np.sign(a) * np.maximum(np.abs(a) - lam, 0.0)
    return float(out) if np.isscalar(x) else out


def huber_envelope(x, lam: float) -> float:
    """Value of min_y { 1/2 ||x - y||^2 + lam ||y||_1 }.

    Componentwise sum of the quadratic branch x_i^2 / 2 on |x_i| <= lam and
    the linear branch lam |x_i| - lam^2 / 2 outside; a scaled Huber function.
    Its gradient is x - soft_shrink(x, lam).
    """
    lam = _check_lambda(lam)
    a = np.asarray(x, dtype=float)
    branches = np.where(np.abs(a) <= lam, 0.5 * a * a, lam * np.abs(a) - 0.5 * lam * lam)
    return float(np.sum(branches))


def shrink_potential(x, lam: float) -> float:
    """Convex potential whose gradient is soft shrinkage.

    Componentwise sum of 0 on the dead zone and (|x_i| - lam)^2 / 2 outside;
    equals ||x||^2 / 2 minus the envelope value.
    """
    return float(np.sum(_potential_cols(x, _check_lambda(lam))))


@dataclass(frozen=True)
class ProxMap:
    """A named proximity operator together with its optional calculus.

    ``prox(v, t)`` must return the prox of ``t * g`` at v, where g is the
    underlying function with the scale ``lam`` already absorbed; the plain
    evaluation map is ``prox(v, 1)``, available as ``P(v)``. The splitting
    solvers may pass ``t`` as a per-column array when v holds columns, so
    the handle must broadcast over the trailing axis. ``function`` and
    ``potential`` (g and the convex potential whose gradient is the prox)
    reduce over axis 0, so they return one value per column for matrix
    input. ``breakpoint_gap`` gives each component's distance to the nearest
    kink of the potential and is used to keep finite-difference checks away
    from breakpoints.
    """

    name: str
    lam: float
    prox: Callable[[np.ndarray, float], np.ndarray]
    function: Callable[[np.ndarray], np.ndarray] | None = None
    potential: Callable[[np.ndarray], np.ndarray] | None = None
    breakpoint_gap: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x):
        return self.prox(x, 1.0)


def _colsum(values: np.ndarray) -> np.ndarray:
    return np.sum(values, axis=0)


def _potential_cols(v, lam):
    """The soft-shrinkage potential of each column of v (of v, if 1-D)."""
    outer = np.maximum(np.abs(np.atleast_1d(np.asarray(v, dtype=float))) - lam, 0.0)
    return 0.5 * _colsum(outer * outer)


def _zero_cols(v):
    a = np.asarray(v)
    return np.zeros(a.shape[1:]) if a.ndim > 1 else 0.0


def soft_shrink_map(lam: float) -> ProxMap:
    """Soft shrinkage packaged with g = lam * l1 and its potential."""
    lam = _check_lambda(lam)
    return ProxMap(
        name="soft_shrink",
        lam=lam,
        prox=lambda v, t=1.0: soft_shrink(v, lam * t),
        function=lambda v: lam * _colsum(np.abs(np.asarray(v, dtype=float))),
        potential=lambda v: _potential_cols(v, lam),
        breakpoint_gap=lambda v: np.abs(np.abs(np.asarray(v, dtype=float)) - lam),
    )


def identity_map() -> ProxMap:
    """The prox of the zero function."""
    return ProxMap(
        name="identity",
        lam=1.0,
        prox=lambda v, t=1.0: np.asarray(v, dtype=float),
        function=_zero_cols,
        potential=lambda v: 0.5 * _colsum(np.square(np.asarray(v, dtype=float))),
    )


def prox_map_by_name(name: str, lam: float = 1.0) -> ProxMap:
    """Catalog lookup used by the JSON shrinkage spec and the CLI."""
    if name in ("soft_shrink", "soft"):
        return soft_shrink_map(lam)
    if name == "identity":
        return identity_map()
    raise ValueError(f"unknown prox map {name!r}")


def verify_firm_nonexpansive(
    prox_map: ProxMap, dim: int, trials: int, tol: float, seed: int = 0
) -> VerifyReport:
    """Sample ||Px - Py||^2 - <x - y, Px - Py> over random pairs.

    Proximity operators keep this quantity nonpositive; the report carries
    the largest sampled value.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def chunk(lo: int, hi: int) -> float:
        x, y = sample_trials(seed, lo, hi, dim, 2)
        dp = np.asarray(prox_map(x)) - np.asarray(prox_map(y))
        viol = _colsum(dp * dp) - _colsum((x - y) * dp)
        return float(np.max(viol))

    worst = max_over_chunks(chunk, trials)
    return report_pass(f"firm_nonexpansive:{prox_map.name}", trials, worst, tol)


# Coordinates per block of shifted points. It cuts the potential calls per
# sample from 2 * dim to about dim / 32 while a block stays at 64 columns
# (200 kB at dim 400); one (dim, 2 * dim) block raised the peak memory of
# the benchmark's CLI verify runs by 16% and made them slower, not faster.
_FD_BLOCK = 32


def _central_diff(fun, x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient with per-coordinate steps.

    The shifted points x + h_i e_i and x - h_i e_i of ``_FD_BLOCK``
    coordinates are the columns of one Fortran-ordered block, and ``fun``
    (which must reduce over axis 0) is called once per block. Fortran order
    keeps each column contiguous, so its axis-0 sum is the pairwise sum a
    1-D call makes and the gradient is bit-identical to one evaluated a
    coordinate at a time.
    """
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    grad = np.empty_like(x)
    for lo in range(0, x.size, _FD_BLOCK):
        hi = min(lo + _FD_BLOCK, x.size)
        k = np.arange(hi - lo)
        block = np.empty((x.size, 2 * k.size), order="F")
        block[:] = x[:, None]
        block[lo + k, k] = x[lo:hi] + h[lo:hi]
        block[lo + k, k.size + k] = x[lo:hi] - h[lo:hi]
        vals = np.asarray(fun(block), dtype=float)
        if vals.shape != (block.shape[1],):
            raise ValueError(
                f"potential must return one value per column: got shape "
                f"{vals.shape} for a block of shape {block.shape}"
            )
        grad[lo:hi] = (vals[: k.size] - vals[k.size:]) / (2.0 * h[lo:hi])
    return grad


def verify_moreau_characterization(
    prox_map: ProxMap,
    potential: Callable[[np.ndarray], np.ndarray],
    dim: int,
    trials: int,
    tol: float,
    seed: int = 0,
) -> VerifyReport:
    """Check the three ingredients that characterize a proximity operator.

    (a) nonexpansiveness on random pairs, (b) agreement of the map with the
    finite-difference gradient of ``potential`` (relative error per sample),
    and (c) midpoint convexity of ``potential``. Samples landing within 10
    finite-difference steps of a breakpoint are skipped in (b).

    ``potential`` must reduce over axis 0, as ``ProxMap.potential`` does:
    one value for a vector, one value per column for a (dim, k) block. The
    finite differences evaluate it on blocks of shifted points; a result of
    any other shape raises ValueError naming that shape.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def chunk(lo: int, hi: int) -> float:
        found = []
        for x, y in sample_trials(seed, lo, hi, dim, 2).transpose(2, 0, 1):
            px = np.asarray(prox_map(x))
            py = np.asarray(prox_map(y))
            found.append(float(np.linalg.norm(px - py) - np.linalg.norm(x - y)))
            mid = float(potential(0.5 * (x + y)))
            found.append(mid - 0.5 * (float(potential(x)) + float(potential(y))))
            h = 1e-6 * np.maximum(1.0, np.abs(x))
            if prox_map.breakpoint_gap is not None:
                if np.any(np.asarray(prox_map.breakpoint_gap(x)) < 10.0 * h):
                    continue
            fd = _central_diff(potential, x)
            found.append(float(np.max(np.abs(fd - px)) / max(1.0, np.max(np.abs(px)))))
        return float(np.max(found))

    worst = max_over_chunks(chunk, trials)
    return report_pass(f"moreau_characterization:{prox_map.name}", trials, worst, tol)


def numeric_prox(
    g,
    x: np.ndarray,
    metric=None,
    tol: float = 1e-9,
    max_iter: int = 100000,
) -> SolveReport:
    """Numerical prox oracle: ADMM in the T metric.

    Minimizes ``1/2 ||x - y||_T^2 + f(y)`` where f is the regularizer induced
    by composing the supplied prox with T: g may be a FrameShrinkage, an
    InducedRegularizer, or the inner ProxMap itself. The problem is solved
    jointly in the signal and null-space coefficients, so every subproblem
    uses only closed-form handles; see ``splitting.metric_prox_admm``.

    Without a metric, g must be a ProxMap and the oracle runs at T = I: the
    metric is the Euclidean one and f is g itself, so it minimizes
    ``1/2 ||x - y||^2 + g(y)``.

    ``x`` may be a (d, k) column block; the report then carries a (d, k)
    minimizer and per-column objectives. Non-convergence is reported through
    the ``converged`` flag, not raised.
    """
    x = np.asarray(x, dtype=float)
    xs = x.reshape(x.shape[0] if x.ndim else 1, -1)
    if metric is None:
        if not isinstance(g, ProxMap):
            raise TypeError("numeric_prox without a metric expects a ProxMap")
        metric = TMetric(build_operator(np.eye(xs.shape[0])))

    inner = g
    if hasattr(inner, "shrinkage"):
        inner = inner.shrinkage
    if hasattr(inner, "inner_prox"):
        if inner.operator is not metric.operator:
            raise DimensionMismatch("metric and shrinkage use different operators")
        inner = inner.inner_prox
    if not isinstance(inner, ProxMap):
        raise TypeError("numeric_prox with a metric expects a shrinkage-like g or ProxMap")

    op = metric.operator
    if x.ndim > 2 or xs.shape[0] != op.d:
        raise DimensionMismatch(f"expected signals of dimension {op.d}, got {x.shape}")

    y, w, s, iters, resid, converged = splitting.metric_prox_admm(
        op, inner.prox, xs, tol, max_iter
    )
    objective = None
    if inner.function is not None:
        tx_ty = op.matrix @ (xs - y)
        objective = 0.5 * np.sum(tx_ty * tx_ty, axis=0) + 0.5 * np.sum(w * w, axis=0)
        objective = objective + np.asarray(inner.function(s))
        objective = objective if x.ndim == 2 else float(objective[0])
    return SolveReport(
        minimizer=y.reshape(x.shape),
        objective=objective,
        iterations=iters,
        residual=resid,
        tolerance=tol,
        converged=converged,
    )
