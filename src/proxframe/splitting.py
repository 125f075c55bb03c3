"""Consensus ADMM for a prox: the iteration behind the numeric prox oracle.

``prox_admm`` minimizes 1/2 ||z - v||^2 + g(z) given only the scaled prox of
g. The T-metric prox of the induced regularizer is this problem at v = T x,
mapped back by T^+ (see ``prox.numeric_prox``); the Euclidean oracle is its
T = I case. The iteration works on column blocks: an (n, k) iterate runs k
instances of the scheme in lockstep. Each column is frozen at its own first
certified iterate, so the numbers a column produces do not depend on which
other columns share the block.
"""

from __future__ import annotations

import numpy as np

# ADMM penalty. The consensus block starts at zero, so with a unit penalty
# the first cycle would reproduce the closed-form composition verbatim; a
# non-unit one keeps the oracle an independent numerical solve.
RHO = 2.5
# Over operators of condition 1 to 1e3, shapes 1x1 to 400x250, soft
# shrinkage at lam 0.1 to 10 and signals of norm 0.01 to 100 (1.3e5
# columns), the certificate stalled at no more than 2.1 eps (||u|| + ||v||
# + RHO ||mu||), the worst on columns of length 1 and 2; the floor, checked
# on every eighth iteration, is twice that.
_CERT_FLOOR = 4.0
_FLOOR_STRIDE = 8


def _norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(a * a, axis=0))


def _below_resolution(tol: float, u, v_norm, mu) -> np.ndarray:
    """Columns whose ``tol`` is below ``_CERT_FLOOR`` times their certificate's rounding.

    The certificate u - v + RHO mu sums three terms, each rounded at eps of
    its size.
    """
    scale = np.finfo(float).eps * (_norms(u) + v_norm + RHO * _norms(mu))
    return tol < _CERT_FLOOR * scale


def prox_admm(prox_scaled, v: np.ndarray, tol: float, max_iter: int):
    """The prox of g at each column of v, by consensus ADMM.

    Solves min_z 1/2 ||z - v||^2 + g(z), with ``prox_scaled`` the scaled
    prox of g, by splitting z = u:

        s <- (v + rho (u - mu)) / (1 + rho),   u <- prox_{g / rho}(s + mu),
        mu <- mu + s - u,

    with rho = RHO. After the u update rho mu is a subgradient of g at u. The
    problem is 1-strongly convex, so the certificate ||u - v + rho mu|| bounds
    ||u - z*||.

    ``v`` is an (n, k) column block. Returns (u, iterations, residual,
    converged); each column is frozen at its first u certified within
    ``tol``, the residual being the largest certificate. A column whose tol
    is below its certificate's rounding (``_below_resolution``) stops there
    as unconverged; its threshold is never widened.
    """
    v_norm = _norms(v)
    u, mu, out = np.zeros_like(v), np.zeros_like(v), np.zeros_like(v)
    cert = np.full(v.shape[1], np.inf)
    lost = _below_resolution(tol, u, v_norm, mu)
    done = lost.copy()
    iters = 0
    while not done.all() and iters < max_iter:
        iters += 1
        s = (v + RHO * (u - mu)) / (1.0 + RHO)
        u = prox_scaled(s + mu, 1.0 / RHO)
        mu = mu + s - u
        now = _norms(u - v + RHO * mu)
        fresh = (now <= tol) & ~done
        if iters % _FLOOR_STRIDE == 0:
            lost |= ~fresh & ~done & _below_resolution(tol, u, v_norm, mu)
            fresh |= lost & ~done
        if np.any(fresh):
            out[:, fresh], cert[fresh] = u[:, fresh], now[fresh]
            done |= fresh
    if iters:
        out[:, ~done], cert[~done] = u[:, ~done], now[~done]
    resid = float(np.max(np.where(lost, np.inf, cert)))
    return out, iters, resid, bool(done.all() and not lost.any())
