"""ADMM in the T metric: the iteration behind the numeric prox oracle.

``metric_prox_admm`` minimizes 1/2 ||x - y||_T^2 + f(y) with f the
regularizer induced by an inner prox and T; the Euclidean oracle is its
T = I case, where f is the inner function itself. The induced regularizer
is evaluated by a dual solve in ``shrinkage``. The iteration works on
column blocks: a (d, k) iterate runs k instances of the scheme in lockstep.
Each column is frozen at its own first tolerance crossing, so the numbers a
column produces do not depend on which other columns share the block;
verification runs may therefore batch or fan out trials arbitrarily without
changing any reported value.
"""

from __future__ import annotations

import numpy as np

# ADMM penalty. The consensus block starts at zero, so with a unit penalty
# the first cycle would reproduce the closed-form composition verbatim; a
# non-unit one keeps the oracle an independent numerical solve.
RHO = 2.5


def _below_resolution(thresh: float, data: np.ndarray) -> np.ndarray:
    """Columns whose stopping threshold is finer than one ulp of their data.

    Such a threshold cannot be told apart from rounding, so a column reaching
    it would certify nothing: it is reported unconverged without iterating.
    """
    return thresh < np.finfo(float).eps * np.max(np.abs(data), axis=0)


def _residual(resid: np.ndarray, lost: np.ndarray) -> float:
    return float(np.max(np.where(lost, np.inf, resid)))


def metric_prox_admm(op, prox_scaled, x: np.ndarray, tol: float, max_iter: int):
    """Prox in the T metric of the regularizer induced by an inner prox.

    Solves, jointly over the signal y and null-space coefficients w,

        min_{y, w}  1/2 ||T y - T x||^2 + 1/2 ||w||^2 + g(u),   u = T y + B w,

    where B is the stored orthonormal basis of null(T*) and ``prox_scaled``
    is the scaled prox of g. Consensus splitting on u gives closed-form
    updates throughout: the (y, w) block separates along range(T) + null(T*),

        y <- (x + rho T^+ v) / (1 + rho),   w <- rho B^T v / (1 + rho),

    with v the shifted dual variable and rho = RHO, and the u update is one
    prox call at scale 1/rho. The y block converges to the minimizer of
    1/2 ||x - y||_T^2 + f(y) with f the induced regularizer.

    ``x`` is a (d, k) column block. Returns (y, w, s, iterations, residual,
    converged) with s = T y + B w; the per-column residual is the max over
    iterate change and consensus gap, and each column is frozen at its first
    crossing of a threshold one decade below ``tol`` (the iterate-change
    criterion does not see the geometric tail). A column whose threshold is
    below one ulp of its ``T x`` is not iterated and counts as unconverged.
    """
    t = op.matrix
    pinv = op.pinv
    basis = op.null_basis
    k = x.shape[1]

    u = np.zeros((t.shape[0], k))
    mu = np.zeros_like(u)
    y = np.array(x, dtype=float)
    w = np.zeros((basis.shape[1], k))
    s = t @ x
    out_y, out_w, out_s = np.array(y), np.array(w), np.array(s)
    resid = np.full(k, np.inf)
    mix = RHO / (1.0 + RHO)
    thresh = 0.1 * tol
    lost = _below_resolution(thresh, s)
    done = lost.copy()
    iters = 0
    while not done.all() and iters < max_iter:
        iters += 1
        v = u - mu
        y_new = (x + RHO * (pinv @ v)) / (1.0 + RHO)
        w_new = mix * (basis.T @ v)
        s = t @ y_new + basis @ w_new
        u = prox_scaled(s + mu, 1.0 / RHO)
        mu = mu + s - u
        resid = np.max(np.abs(s - u), axis=0)
        resid = np.maximum(resid, np.max(np.abs(y_new - y), axis=0))
        if w.size:
            resid = np.maximum(resid, np.max(np.abs(w_new - w), axis=0))
        y, w = y_new, w_new
        crossed = (resid <= thresh) & ~done
        if np.any(crossed):
            out_y[:, crossed] = y[:, crossed]
            out_w[:, crossed] = w[:, crossed]
            out_s[:, crossed] = s[:, crossed]
            done |= crossed
    if not done.all():
        out_y[:, ~done] = y[:, ~done]
        out_w[:, ~done] = w[:, ~done]
        out_s[:, ~done] = s[:, ~done]
    return out_y, out_w, out_s, iters, _residual(resid, lost), bool(done.all() and not lost.any())
