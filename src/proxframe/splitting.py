"""Operator-splitting iterations behind the numeric prox oracle.

``douglas_rachford`` serves the Euclidean oracle and ``metric_prox_admm``
the T-metric one; the induced regularizer itself is evaluated by a dual
solve in ``shrinkage``. Both routines work on column blocks: a (m, k)
iterate runs k instances of the scheme in lockstep. Each column is frozen
at its own first tolerance crossing, so the numbers a column produces do
not depend on which other columns share the block; verification runs may
therefore batch or fan out trials arbitrarily without changing any
reported value.
"""

from __future__ import annotations

import numpy as np


def _cols(a: np.ndarray) -> np.ndarray:
    return a if a.ndim == 2 else a[:, None]


def _below_resolution(thresh: float, data: np.ndarray) -> np.ndarray:
    """Columns whose stopping threshold is finer than one ulp of their data.

    Such a threshold cannot be told apart from rounding, so a column reaching
    it would certify nothing: it is reported unconverged without iterating.
    """
    return thresh < np.finfo(float).eps * np.max(np.abs(data), axis=0)


def _residual(resid: np.ndarray, lost: np.ndarray) -> float:
    return float(np.max(np.where(lost, np.inf, resid)))


def douglas_rachford(
    prox_a, prox_b, z0: np.ndarray, step: float, tol: float, max_iter: int
):
    """Minimize f_a + f_b given the scaled proxes of both pieces.

    ``prox_a(v, t)`` must return the prox of ``t * f_a`` at v, similarly for
    ``prox_b``. Returns ``(point, iterations, residual, converged)`` where
    ``point`` collects the prox_a-side iterates, each column frozen when its
    max-norm splitting gap first reaches ``tol``; ``iterations`` is the
    count when the last column froze. A column whose ``tol`` is below one ulp
    of ``z0`` is not iterated and counts as unconverged.
    """
    squeeze = np.ndim(z0) == 1
    z = _cols(np.array(z0, dtype=float))
    a = _cols(prox_a(z if not squeeze else z[:, 0], step))
    out = np.array(a)
    lost = _below_resolution(tol, z)
    done = lost.copy()
    resid = np.full(z.shape[1], np.inf)
    iters = 0
    while not done.all() and iters < max_iter:
        iters += 1
        arg = 2.0 * a - z
        b = _cols(prox_b(arg if not squeeze else arg[:, 0], step))
        z = z + (b - a)
        fresh = prox_a(z if not squeeze else z[:, 0], step)
        a = _cols(fresh)
        resid = np.max(np.abs(b - a), axis=0)
        crossed = (resid <= tol) & ~done
        if np.any(crossed):
            out[:, crossed] = a[:, crossed]
            done |= crossed
    if not done.all():
        out[:, ~done] = a[:, ~done]
    point = out[:, 0] if squeeze else out
    return point, iters, _residual(resid, lost), bool(done.all() and not lost.any())


def metric_prox_admm(op, prox_scaled, x: np.ndarray, tol: float, max_iter: int, rho: float = 2.5):
    """Prox in the T metric of the regularizer induced by an inner prox.

    Solves, jointly over the signal y and null-space coefficients w,

        min_{y, w}  1/2 ||T y - T x||^2 + 1/2 ||w||^2 + g(u),   u = T y + B w,

    where B is the stored orthonormal basis of null(T*) and ``prox_scaled``
    is the scaled prox of g. Consensus splitting on u gives closed-form
    updates throughout: the (y, w) block separates along range(T) + null(T*),

        y <- (x + rho T^+ v) / (1 + rho),   w <- rho B^T v / (1 + rho),

    with v the shifted dual variable, and the u update is one prox call at
    scale 1/rho. The y block converges to the minimizer of
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

    # Start the consensus block at zero: with a unit penalty and u = Tx the
    # first cycle would reproduce the pseudoinverse composition verbatim,
    # which defeats the point of an independent numerical solve.
    u = np.zeros((t.shape[0], k))
    mu = np.zeros_like(u)
    y = np.array(x, dtype=float)
    w = np.zeros((basis.shape[1], k))
    s = t @ x
    out_y, out_w, out_s = np.array(y), np.array(w), np.array(s)
    resid = np.full(k, np.inf)
    mix = rho / (1.0 + rho)
    thresh = 0.1 * tol
    lost = _below_resolution(thresh, s)
    done = lost.copy()
    iters = 0
    while not done.all() and iters < max_iter:
        iters += 1
        v = u - mu
        y_new = (x + rho * (pinv @ v)) / (1.0 + rho)
        w_new = mix * (basis.T @ v)
        s = t @ y_new + basis @ w_new
        u = prox_scaled(s + mu, 1.0 / rho)
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
