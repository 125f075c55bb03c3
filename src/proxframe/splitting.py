"""Forward-backward for a prox: the iteration behind the numeric prox oracle.

``prox_forward_backward`` minimizes 1/2 ||z - v||^2 + g(z) given only the
scaled prox of g. The T-metric prox of the induced regularizer is this
problem at v = T x, mapped back by T^+ (see ``prox.numeric_prox``); the
Euclidean oracle is its T = I case. The iteration works on column blocks: an
(n, k) iterate runs k instances of the scheme in lockstep. Each column leaves
the block at its first certified iterate, so the numbers a column produces do
not depend on which other columns share the block.
"""

from __future__ import annotations

import numpy as np

# Over operators of condition 1 to 1e3, shapes 1x1 to 400x250, soft
# shrinkage at lam 0.1 to 10 and the identity, and signals of norm 0.01 to
# 100 (3.9e5 columns), the certificate stalled at no more than 1.0 eps
# (||z|| + ||v||), the worst on columns of length 1 and 2; no iterate was
# farther from the exact prox than its certificate plus 0.96 eps (||z|| +
# ||v||). The floor, checked on every eighth iteration, is four times that.
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


def prox_forward_backward(prox_scaled, v: np.ndarray, tol: float, max_iter: int):
    """The prox of g at each column of v, by forward-backward at step 1/2.

    Solves min_z 1/2 ||z - v||^2 + g(z), with ``prox_scaled`` the scaled
    prox of g, by a gradient step on the quadratic and a prox step on g:

        z+ <- prox_{g / 2}((z + v) / 2).

    At step t, (z - z+) / t - (z - v) is a subgradient of g at z+, so the
    objective has the subgradient (1/t - 1)(z - z+) at z+: at t = 1/2, the
    step z - z+. The problem is 1-strongly convex, so ||z - z+|| bounds
    ||z+ - z*||. Active coordinates of a shrinkage contract by 1/2 per
    iteration; dead-zone ones land on exact zeros. At t = 1 this would be
    the closed form prox_g(v); at 1/2 it stays a numerical solve.

    ``v`` is an (n, k) column block, started at z = 0. Returns (z,
    iterations, residual, converged); each column leaves the block at its
    first z+ certified within ``tol``, the residual being the largest
    certificate. A column whose tol is below ``_CERT_FLOOR`` eps (||z|| +
    ||v||), the rounding of its iterate, stops there as unconverged.
    """
    eps = np.finfo(float).eps
    v_norm = _norms(v)
    out = np.zeros_like(v)
    cert = np.full(v.shape[1], np.inf)
    lost = tol < _CERT_FLOOR * eps * v_norm
    cols = np.flatnonzero(~lost)
    z, v, v_norm = np.zeros((v.shape[0], cols.size)), v[:, cols], v_norm[cols]
    iters = 0
    while cols.size and iters < max_iter:
        iters += 1
        z_new = prox_scaled(0.5 * (z + v), 0.5)
        now = _norms(z - z_new)
        z = z_new
        stop = (now <= tol) | (iters == max_iter)
        if iters % _FLOOR_STRIDE == 0:
            below = ~stop & (tol < _CERT_FLOOR * eps * (_norms(z) + v_norm))
            lost[cols[below]] = True
            stop |= below
        if stop.any():
            out[:, cols[stop]], cert[cols[stop]] = z[:, stop], now[stop]
            keep = ~stop
            cols, z, v, v_norm = cols[keep], z[:, keep], v[:, keep], v_norm[keep]
    resid = float(np.max(np.where(lost, np.inf, cert)))
    return out, iters, resid, bool(resid <= tol)
