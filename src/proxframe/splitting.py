"""ADMM in the T metric: the iteration behind the numeric prox oracle.

``metric_prox_admm`` minimizes 1/2 ||x - y||_T^2 + f(y) with f the
regularizer induced by an inner prox and T; the Euclidean oracle is its
T = I case, where f is the inner function itself. The induced regularizer
is evaluated by a dual solve in ``shrinkage``. The iteration works on
column blocks: a (d, k) iterate runs k instances of the scheme in lockstep.
Each column is frozen at its own first certified iterate, so the numbers a
column produces do not depend on which other columns share the block.
"""

from __future__ import annotations

import numpy as np

# ADMM penalty. The consensus block starts at zero, so with a unit penalty
# the first cycle would reproduce the closed-form composition verbatim; a
# non-unit one keeps the oracle an independent numerical solve.
RHO = 2.5
# Over operators of condition 1 to 1e3, shapes 1x1 to 400x250 and soft
# shrinkage at lam 0.1 to 10, the certificate stalled at no more than
# 2 eps (||u|| + ||T x|| + RHO ||mu||) + 1.4 max RHO ||m - v||, the max taken
# on every eighth iteration, where the floor is checked.
_CERT_FLOOR = 4.0
_FLOOR_STRIDE = 8


def _norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(a * a, axis=0))


def _below_resolution(tol: float, u, tx_norm, mu, defect) -> np.ndarray:
    """Columns whose ``tol`` is below ``_CERT_FLOOR`` times their certificate's rounding.

    The certificate u - T x + RHO mu sums three terms, each rounded at eps of
    its size; at the iteration's fixed point it equals RHO (m - v), where
    m = T T^+ v + B B^T v is v up to the rounding of the stored factors and
    ``defect`` is the largest RHO ||m - v|| seen so far.
    """
    scale = np.finfo(float).eps * (_norms(u) + tx_norm + RHO * _norms(mu))
    return tol < _CERT_FLOOR * (scale + defect)


def metric_prox_admm(op, prox_scaled, tx: np.ndarray, tol: float, max_iter: int):
    """Prox in the T metric of the regularizer induced by an inner prox.

    Solves, jointly over the signal y and null-space coefficients w,

        min_{y, w}  1/2 ||T y - T x||^2 + 1/2 ||w||^2 + g(u),   u = T y + B w,

    where B is the stored orthonormal basis of null(T*) and ``prox_scaled``
    is the scaled prox of g. Consensus splitting on u gives closed-form
    updates throughout: the (y, w) block separates along range(T) + null(T*),

        y <- (x + rho T^+ v) / (1 + rho),   w <- rho B^T v / (1 + rho),

    with v the shifted dual variable and rho = RHO, so T y + B w is
    (T x + rho m) / (1 + rho) with m = T T^+ v + B B^T v. After the u update,
    one prox call at scale 1/rho, rho mu is a subgradient of g at u. In
    z = T y + B w the problem is min_z 1/2 ||z - T x||^2 + g(z), 1-strongly
    convex, so the certificate ||u - T x + rho mu|| bounds ||u - z*|| and the
    T-norm error of y = T^+ u.

    ``tx`` is T x for a (d, k) column block x. Returns (y, u, iterations, residual,
    converged); each column is frozen at its first u certified within
    ``tol``, the residual being the largest certificate. A column whose tol
    is below its certificate's rounding (``_below_resolution``) stops there
    as unconverged; its threshold is never widened.
    """
    t, pinv, basis = op.matrix, op.pinv, op.null_basis
    tx_norm = _norms(tx)
    u, mu, out = np.zeros_like(tx), np.zeros_like(tx), np.zeros_like(tx)
    cert, defect = np.full(tx.shape[1], np.inf), np.zeros(tx.shape[1])
    lost = _below_resolution(tol, u, tx_norm, mu, defect)
    done = lost.copy()
    iters = 0
    while not done.all() and iters < max_iter:
        iters += 1
        v = u - mu
        m = t @ (pinv @ v) + basis @ (basis.T @ v)
        s = (tx + RHO * m) / (1.0 + RHO)
        u = prox_scaled(s + mu, 1.0 / RHO)
        mu = mu + s - u
        now = _norms(u - tx + RHO * mu)
        fresh = (now <= tol) & ~done
        if iters % _FLOOR_STRIDE == 0:
            defect = np.maximum(defect, RHO * _norms(m - v))
            lost |= ~fresh & ~done & _below_resolution(tol, u, tx_norm, mu, defect)
            fresh |= lost & ~done
        if np.any(fresh):
            out[:, fresh], cert[fresh] = u[:, fresh], now[fresh]
            done |= fresh
    if iters:
        out[:, ~done], cert[~done] = u[:, ~done], now[~done]
    resid = float(np.max(np.where(lost, np.inf, cert)))
    return pinv @ out, out, iters, resid, bool(done.all() and not lost.any())
