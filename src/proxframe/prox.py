"""Closed-form proximity operators, envelopes, and their property checks.

The catalog is small by design: soft shrinkage (the prox of ``lam * l1``)
with its envelope and potential, and the identity (the prox of the zero
function). ``ProxMap`` bundles an operator with its scaled-prox handle, so
anything placed in a ``ProxMap`` can be used both as a shrinkage ingredient
and inside the numeric prox oracle. The
induced regularizer, though, is evaluated for the catalog maps only: for
soft shrinkage through its box-constrained dual (the conjugate of
``lam * l1`` is the indicator of the box [-lam, lam]^n), and for the
identity as 0.

Every map here is componentwise, so a ProxMap applied to an (m, k) array
acts column by column; the verification routines and batched solvers rely
on that convention. Every potential is a sum of per-entry terms, so called
on a (1, N) row it returns the N terms: the Moreau check differentiates it
entry by entry and fails a potential that is not such a sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonPositiveLambda
from .operators import _analysis, _finite_columns, _signals
from .reports import SolveReport, VerifyReport
from .sampling import sampled_check


def _check_lambda(lam) -> float:
    """``lam`` as a float; it must be a scalar (TypeError otherwise), finite and > 0."""
    if np.ndim(lam) != 0:
        raise TypeError(f"lambda must be a scalar, got shape {np.shape(lam)}")
    lam = float(lam)
    if not 0 < lam < np.inf:
        raise NonPositiveLambda(f"lambda must be positive and finite, got {lam}")
    return lam


def _check_tol(tol) -> None:
    """Refuse a NaN tolerance, which no gap or certificate meets: a solve would run to its cap."""
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")


def soft_shrink(x, lam):
    """Componentwise soft shrinkage with threshold ``lam``.

    Maps x to x - lam above the threshold, x + lam below -lam, and 0 on the
    dead zone [-lam, lam]. This is the prox of ``lam * l1``; ``lam`` is a
    scalar. As x - clip(x, -lam, lam) the dead zone gives +0.0.
    """
    lam = _check_lambda(lam)
    a = np.asarray(x, dtype=float)
    out = a - np.clip(a, -lam, lam)
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

    ``prox(v, t)`` must return the prox of ``t * g`` at v for a scalar t,
    where g is the underlying function with the scale ``lam`` already
    absorbed; the plain evaluation map is ``prox(v, 1)``, available as
    ``P(v)``. ``function`` and ``potential`` (g and the convex potential
    whose gradient is the prox) reduce over axis 0, so they return one
    value per column for matrix input. ``potential`` must also be a sum of
    per-entry terms, so that on a (1, N) row it returns each entry's term;
    ``verify_moreau_characterization`` relies on this and fails a potential
    that breaks it. ``breakpoint_gap`` gives each component's distance to
    the nearest kink of the potential and is used to keep finite-difference
    checks away from breakpoints.
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
    """Catalog lookup used by the CLI; ``lam`` must be finite and > 0 for every name."""
    lam = _check_lambda(lam)
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
    def violations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        dp = np.asarray(prox_map(x)) - np.asarray(prox_map(y))
        return _colsum(dp * dp) - _colsum((x - y) * dp)

    return sampled_check(f"firm_nonexpansive:{prox_map.name}", trials, tol, seed, dim,
                         violations, columns=2)


def _column_values(fun, block: np.ndarray) -> np.ndarray:
    """``fun`` of each column of ``block``; anything else raises ValueError."""
    vals = np.asarray(fun(block), dtype=float)
    if vals.shape != (block.shape[1],):
        raise ValueError(
            f"potential must return one value per column: got shape "
            f"{vals.shape} for a block of shape {block.shape}"
        )
    return vals


def _entry_values(fun, a: np.ndarray) -> np.ndarray:
    """``fun`` of each entry of ``a``, from one call on ``a`` laid out as a (1, N) row."""
    return _column_values(fun, a.reshape(1, -1)).reshape(a.shape)


def _central_diff(fun, x: np.ndarray) -> np.ndarray:
    """Per-entry central differences of a per-entry potential at x.

    (fun(x + h) - fun(x - h)) / 2h entry by entry, h = 1e-6 max(1, |x|),
    from two calls on the shifted array laid out as one row; x may be a
    vector or a (dim, k) block.
    """
    x = np.asarray(x, dtype=float)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    return (_entry_values(fun, x + h) - _entry_values(fun, x - h)) / (2.0 * h)


def verify_moreau_characterization(
    prox_map: ProxMap,
    potential: Callable[[np.ndarray], np.ndarray],
    dim: int,
    trials: int,
    tol: float,
    seed: int = 0,
) -> VerifyReport:
    """Check the three ingredients that characterize a proximity operator.

    (a) nonexpansiveness, ||Px - Py|| - ||x - y||, on random pairs; (b)
    agreement of the map with the finite-difference gradient of
    ``potential`` at x, as a relative error per sample; (c) midpoint
    convexity of ``potential``. Samples with a coordinate within 10
    finite-difference steps of a breakpoint are skipped in (b).

    Each block of trials is one array computation: the map is applied to
    the x and y columns at once, (a) takes column sums, (c) calls the
    potential once each on the midpoints, x and y, and (b) is one
    ``_central_diff``: differences entry by entry, (phi(x + h) - phi(x - h))
    / 2h with h = 1e-6 max(1, |x|), from two potential calls on the shifted
    block laid out as one (1, dim * k) row.

    ``potential`` must reduce over axis 0, as ``ProxMap.potential`` does:
    one value per column for a (dim, k) block, and so one value per entry
    for a row; a result of any other shape raises ValueError naming that
    shape. It must also be a sum of per-entry terms. One more call on the
    row at x guards this: each column's potential is compared with the sum
    of its entries' values, relative to max(1, |potential|), and that
    difference joins the reported maximum, so a potential that is not such
    a sum fails the check instead of being differentiated wrongly.
    """
    def violations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        px = np.asarray(prox_map(x))
        dp, dx = px - np.asarray(prox_map(y)), x - y
        expand = np.sqrt(_colsum(dp * dp)) - np.sqrt(_colsum(dx * dx))
        pot = lambda a: _column_values(potential, a)
        at_x = pot(x)
        convex = pot(0.5 * (x + y)) - 0.5 * (at_x + pot(y))
        split = np.abs(at_x - _colsum(_entry_values(potential, x))) / np.maximum(1.0, np.abs(at_x))
        fd = _central_diff(potential, x)
        grad_err = np.max(np.abs(fd - px), axis=0) / np.maximum(1.0, np.max(np.abs(px), axis=0))
        if prox_map.breakpoint_gap is not None:
            h = 1e-6 * np.maximum(1.0, np.abs(x))
            near = np.any(np.asarray(prox_map.breakpoint_gap(x)) < 10.0 * h, axis=0)
            grad_err[near] = -np.inf
        return np.maximum(np.maximum(expand, convex), np.maximum(split, grad_err))

    return sampled_check(f"moreau_characterization:{prox_map.name}", trials, tol, seed, dim,
                         violations, columns=2)


# the oracle's forward-backward step t: any t < 1 keeps the certificate, and
# active coordinates contract by 1 - t per iteration
_STEP = 0.9
# Over operators of condition 1 to 1e3, shapes 1x1 to 400x250, soft
# shrinkage at lam 0.1 to 10 and the identity, and signals of norm 0.01 to
# 100 (3.9e5 columns), the step term (1/t - 1) ||z - z+|| at step 9/10 fell
# to exactly 0, a fixed point of the rounded iteration, by iteration 18 on
# every column; no iterate was farther from the exact prox than its step
# term plus 0.76 eps (||z|| + ||Tx||), the worst on columns of length 2.
# The certificate adds eps (||z|| + ||Tx||) to the step term to cover that
# rounding. The floor, checked on every eighth iteration, is
# 4 eps (||z|| + ||Tx||): a tol below it is within a few times the rounding
# term, so the column stops unconverged there.
_CERT_FLOOR = 4.0
_FLOOR_STRIDE = 8


def _norms(a: np.ndarray) -> np.ndarray:
    """Column 2-norms; a column whose sum of squares overflows is rescaled by its largest entry."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.sum(a * a, axis=0))
    big = np.isinf(norms)
    if big.any():
        scale = np.max(np.abs(a[:, big]), axis=0)
        norms[big] = scale * np.sqrt(np.sum((a[:, big] / scale) ** 2, axis=0))
    return norms


def numeric_prox(
    g,
    x: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 100000,
) -> SolveReport:
    """Numerical prox oracle in the T metric.

    Minimizes ``1/2 ||x - y||_T^2 + f(y)`` where f is the regularizer induced
    by composing an inner prox with T. g may be a FrameShrinkage or an
    InducedRegularizer, which carry T, or a bare ProxMap, for which T = I:
    the metric is then the Euclidean one and f is g itself, so the oracle
    minimizes ``1/2 ||x - y||^2 + g(y)`` and runs on x itself, building no
    operator. Any other g raises TypeError. In
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
    certificate adds eps (||z+|| + ||T x||) for the rounding of the step
    (measured, see ``_CERT_FLOOR``). Active coordinates of a shrinkage
    contract by 1 - t = 1/10 per iteration; dead-zone ones land on exact
    zeros. At t = 1 this would be the closed
    form prox_g(T x); at t < 1 it stays a numerical solve.

    The columns of a (d, k) block run in lockstep. Each column stops at its
    first z+ certified within ``tol`` and leaves the block, so its numbers
    do not depend on which other columns share the block; ``residual`` is
    the largest certificate. A column whose ``tol`` is below
    ``_CERT_FLOOR`` eps (||z|| + ||T x||), the rounding of its iterate,
    stops there unconverged, at once if that holds at z = 0.

    The report carries a minimizer of x's shape and no objective.
    Non-convergence is reported through the ``converged`` flag, not raised;
    a NaN or inf signal raises ValueError naming its column, as
    ``frame_prox`` and ``induced_regularizer`` do, and a NaN ``tol`` raises
    ValueError at once.
    """
    _check_tol(tol)
    x = np.asarray(x, dtype=float)
    xs = x.reshape(-1, 1) if x.ndim < 2 else x
    inner = g.shrinkage if hasattr(g, "shrinkage") else g
    if hasattr(inner, "inner_prox"):
        op, inner = inner.operator, inner.inner_prox
        tx = _analysis(op, xs)
    elif isinstance(inner, ProxMap):
        op, tx = None, _finite_columns(_signals(xs, xs.shape[0]))
    else:
        raise TypeError("numeric_prox expects a FrameShrinkage, InducedRegularizer or ProxMap")

    eps = np.finfo(float).eps
    v_norm = _norms(tx)
    z_out = np.zeros_like(tx)
    cert = np.full(tx.shape[1], np.inf)
    lost = tol < _CERT_FLOOR * eps * v_norm
    cols = np.flatnonzero(~lost)
    z, tv, v_norm = np.zeros((tx.shape[0], cols.size)), _STEP * tx[:, cols], v_norm[cols]
    iters = 0
    while cols.size and iters < max_iter:
        iters += 1
        z_new = inner.prox((1.0 - _STEP) * z + tv, _STEP)
        terms = _norms(z_new) + v_norm
        now = (1.0 / _STEP - 1.0) * _norms(z - z_new) + eps * terms
        z = z_new
        stop = (now <= tol) | (iters == max_iter)
        if iters % _FLOOR_STRIDE == 0:
            below = ~stop & (tol < _CERT_FLOOR * eps * terms)
            lost[cols[below]] = True
            stop |= below
        if stop.any():
            z_out[:, cols[stop]], cert[cols[stop]] = z[:, stop], now[stop]
            keep = ~stop
            cols, z, tv, v_norm = cols[keep], z[:, keep], tv[:, keep], v_norm[keep]
    resid = float(np.max(np.where(lost, np.inf, cert)))

    y = z_out if op is None else op.pinv @ z_out
    return SolveReport(
        minimizer=y.reshape(x.shape),
        objective=None,
        iterations=iters,
        residual=resid,
        tolerance=tol,
        converged=bool(resid <= tol),
    )
