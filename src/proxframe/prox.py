"""Closed-form proximity operators, envelopes, and their property checks.

The catalog is soft shrinkage (the prox of lam * l1), with its envelope and
potential, and the identity (the prox of 0). Every map is componentwise, so
on an (m, k) array it acts column by column; ``ProxMap`` states what any
other map must provide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonPositiveLambda
from .reports import VerifyReport
from .sampling import sampled_check


def _check_lambda(lam) -> float:
    """``lam`` as a float; it must be a scalar (TypeError otherwise), finite and > 0."""
    if np.ndim(lam) != 0:
        raise TypeError(f"lambda must be a scalar, got shape {np.shape(lam)}")
    lam = float(lam)
    if not 0 < lam < np.inf:
        raise NonPositiveLambda(f"lambda must be positive and finite, got {lam}")
    return lam


def soft_shrink(x, lam):
    """Componentwise soft shrinkage at the scalar threshold ``lam``: the prox of ``lam * l1``.

    x - lam above the threshold, x + lam below -lam, and +0.0 on the dead
    zone [-lam, lam], formed as x - clip(x, -lam, lam).
    """
    lam = _check_lambda(lam)
    a = np.asarray(x, dtype=float)
    out = np.maximum(a, -lam, out=np.empty_like(a))
    np.minimum(out, lam, out=out)
    np.subtract(a, out, out=out)
    # out[()] gives a NumPy scalar for a 0-d array input, an array otherwise
    return float(out) if np.isscalar(x) else out[()]


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

    ``prox(v, t)`` returns the prox of ``t * g`` at v for a scalar t, the
    scale ``lam`` absorbed in g; ``P(v)`` is ``prox(v, 1)``. ``function``
    (g) and ``potential`` (the convex potential whose gradient is the prox)
    reduce over axis 0, one value per column. ``potential`` must be a sum
    of per-entry terms, so that on a (1, N) row it returns each entry's
    term; ``verify_moreau_characterization`` fails one that is not.
    ``breakpoint_gap`` gives each entry's distance to the nearest kink of
    the potential.
    """

    name: str
    lam: float
    prox: Callable[[np.ndarray, float], np.ndarray]
    function: Callable[[np.ndarray], np.ndarray] | None = None
    potential: Callable[[np.ndarray], np.ndarray] | None = None
    breakpoint_gap: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x):
        return self.prox(x, 1.0)


def _potential_cols(v, lam):
    """The soft-shrinkage potential of each column of v (of v, if 1-D)."""
    outer = np.maximum(np.abs(np.atleast_1d(np.asarray(v, dtype=float))) - lam, 0.0)
    return 0.5 * np.add.reduce(outer * outer, 0)


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
        function=lambda v: lam * np.add.reduce(np.abs(np.asarray(v, dtype=float)), 0),
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
        potential=lambda v: 0.5 * np.add.reduce(np.square(np.asarray(v, dtype=float)), 0),
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
    prox_map: ProxMap, dim: int, trials: int, tol: float = 1e-12, seed: int = 0
) -> VerifyReport:
    """Sample ||Px - Py||^2 - <x - y, Px - Py> over random pairs.

    Proximity operators keep this quantity nonpositive; the report carries
    the largest sampled value and passes if it is at most ``tol``, 1e-12 by
    default. A NaN or negative ``tol`` raises ValueError (``sampled_check``).
    """
    def violations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        dp = np.asarray(prox_map(x)) - np.asarray(prox_map(y))
        return np.add.reduce(dp * dp, 0) - np.add.reduce((x - y) * dp, 0)

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


def verify_moreau_characterization(
    prox_map: ProxMap, dim: int, trials: int, tol: float = 1e-6, seed: int = 0
) -> VerifyReport:
    """Check the gradient half of Moreau's characterization of a prox.

    A map is a prox exactly when it is nonexpansive and the gradient of a
    convex potential; ``verify_firm_nonexpansive`` carries the rest, since a
    firmly nonexpansive map is monotone, so its potential is convex. Per
    sample x this reports the map's relative error against the central
    differences of its ``potential``, entry by entry at step
    h = 1e-6 max(1, |x|), skipping samples with an entry within 10 h of a
    breakpoint (``breakpoint_gap``). A block takes the differences from two
    potential calls on the shifted block laid out as one (1, dim * k) row;
    two more calls compare each column's potential with the sum of its
    entries' terms, relative to max(1, |potential|), and that error joins
    the maximum, so a potential that is not such a sum fails. Passes if the
    maximum is at most ``tol``. Raises ValueError for a map without a
    potential, a potential that does not return one value per column, or a
    NaN or negative ``tol``.
    """
    potential = prox_map.potential
    if potential is None:
        raise ValueError(f"prox map {prox_map.name!r} carries no potential")

    def violations(x: np.ndarray) -> np.ndarray:
        px = np.asarray(prox_map(x))
        at_x = _column_values(potential, x)
        split = np.abs(at_x - np.add.reduce(_entry_values(potential, x), 0)) / np.maximum(1.0, np.abs(at_x))
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        fd = (_entry_values(potential, x + h) - _entry_values(potential, x - h)) / (2.0 * h)
        grad_err = np.max(np.abs(fd - px), axis=0) / np.maximum(1.0, np.max(np.abs(px), axis=0))
        if prox_map.breakpoint_gap is not None:
            near = np.any(np.asarray(prox_map.breakpoint_gap(x)) < 10.0 * h, axis=0)
            grad_err[near] = -np.inf
        return np.maximum(split, grad_err)

    return sampled_check(f"moreau_characterization:{prox_map.name}", trials, tol, seed, dim, violations)
