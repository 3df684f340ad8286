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
moves by ``Δ`` adds ``G_j·Δ`` to the entries of ``Gw`` that later steps of
the same sweep read, so a step costs O(p) for p features instead of O(N).
The intercept step is ``ȳ - x̄·w - b``. Forming ``Gw`` afresh each sweep
keeps the rounding of the updates from drifting along the null space of a
singular ``G``: on an exactly collinear design (``alpha=0``, ``tol=1e-14``)
that residual updates solve in 14,128 sweeps, a ``Gw`` kept only by updates
had not converged after 200,000.

The objective logged after each sweep comes from the same quantities,
``||y - Xw - b||²/N = yᵀy/N - 2w·Xᵀy/N - 2bȳ + wᵀGw + 2b·x̄·w + b²``, in
O(p²) per sweep, for a batch of sweeps at a time, instead of O(N·p) from the
residual. Near an exact fit those terms cancel. Their sum is kept only where
its rounding bound, ``eps·(p + 1)`` times the sum of the terms' magnitudes,
is at most ``_LOSS_RTOL`` of it; every other sweep of the batch takes its
objective from the residual ``y - Xw - b``, all of them in one matrix
product. Either way an entry is within about 1e-12 relative of the residual
form.

Coordinate descent finds the support ``A = {j : w_j ≠ 0}`` and its signs
``s`` long before it settles the values, and on correlated lag designs the
move rule alone can take thousands of sweeps or run out ``max_iter``. So the
solver also tries an exact step (the active sets of glmnet; the
sign-consistent step of feature-sign search, Lee, Battle, Raina & Ng, NIPS
2006): with the support and signs fixed, the optimum is one linear system,
``(Σ_AA + l2·I) w_A = c_A - l1·s``, where ``Σ`` and ``c`` are the Gram
matrix and ``Xᵀy/N`` of the centred design and the intercept is
``ȳ - x̄·w``. Where the solution flips a sign, the step walks from ``w``
toward it up to the first coordinate that reaches zero, drops that
coordinate and solves again, as feature-sign search does. The candidate is
kept only if every Cholesky factorization succeeds and every coordinate
meets the optimality (KKT) conditions within ``_KKT_RTOL·(l1 + max|c|)``:
``|c_j - (Σw)_j - l2·w_j - l1·s_j|`` on the support, ``|c_j - (Σw)_j| - l1``
off it. Then the fit stops at that sweep, converged, at an optimum, and the
sweep's log entry is the candidate's objective. A rejected candidate changes
nothing, so every iterate before an exit is the one coordinate descent alone
gives; a collinear or singular support fails the factorization or the check.
Each solve costs O(p³). Attempts run at sweeps 1, 2 and 4, where small
designs already have their support, then every ``_EXACT_EVERY``-th sweep,
and only while the sweep's largest move is still at least ``tol``. ``Σ`` is
``G - x̄x̄ᵀ`` and ``c`` is ``Xᵀy/N - ȳx̄``, formed once per fit in O(p²).
"""

from __future__ import annotations

import warnings
from operator import mul

import numpy as np

from ..errors import DimensionMismatch, EmptyWindows, InvalidSpec
from .spec import DEFAULT_HYPERPARAMS, TrainLog

_LOSS_BATCH = 32  # iterates per batch of the loss log
_LOSS_RTOL = 1e-12  # largest rounding bound, relative, of a Gram-form objective
_EXACT_EVERY = 8  # exact steps at the sweeps dividing it (1, 2, 4), then every 8th
_KKT_RTOL = 1e-10  # optimality slack of an exact step, relative to l1 + max|c|
_EPS = float(np.finfo(float).eps)
_DEFAULTS = DEFAULT_HYPERPARAMS["elastic_net"]  # fit_elastic_net's, read once


def _objectives(X: np.ndarray, y: np.ndarray, gram: tuple, w_log: list,
                b_log: list, alpha: float, l1_ratio: float) -> list[float]:
    """Objective at each iterate, the weights ``w_log`` (rows laid end to end)
    and intercepts ``b_log``: from ``gram = (G, Xᵀy/N, x̄, ȳ, yᵀy/N)``, or from
    the residuals where those terms cancel too far."""
    G, Xty, x_bar, y_bar, yty = gram
    n, n_feat = X.shape
    W = np.array(w_log).reshape(len(b_log), n_feat)
    b = np.array(b_log)
    terms = (yty, -2.0 * (W @ Xty), -2.0 * y_bar * b,
             np.einsum("ij,ij->i", W @ G, W), 2.0 * b * (W @ x_bar), b * b)
    sq = sum(terms)
    bound = _EPS * (n_feat + 1) / _LOSS_RTOL * sum(map(np.abs, terms))
    cancelled = np.flatnonzero(sq <= bound)
    if len(cancelled):
        R = X @ W[cancelled].T  # column k ends as Xw_k + b_k - y, the negated residual
        R += b[cancelled]
        R -= y[:, None]
        sq[cancelled] = np.einsum("ij,ij->j", R, R) / n
    return (0.5 * sq
            + alpha * (l1_ratio * np.abs(W).sum(axis=1)
                       + 0.5 * (1 - l1_ratio) * np.einsum("ij,ij->i", W, W))).tolist()


def _exact_step(sigma: np.ndarray, c: np.ndarray, w: list, l1: float, l2: float,
                eps: float) -> np.ndarray | None:
    """The optimum on the support and signs of ``w``, or None if it is not one.

    Solves ``(Σ_AA + l2·I) w_A = c_A - l1·s`` by Cholesky for the support A
    and signs s of ``w``; a coordinate whose sign the solution flips leaves
    A by the line search. Keeps the solution only if every coordinate meets
    the optimality conditions within ``eps``.
    """
    cand = np.array(w)
    support = np.flatnonzero(cand)
    signs = np.sign(cand[support])
    while len(support):
        try:
            chol = np.linalg.cholesky(sigma[np.ix_(support, support)]
                                      + l2 * np.eye(len(support)))
        except np.linalg.LinAlgError:
            return None
        sol = np.linalg.solve(chol.T, np.linalg.solve(chol, c[support] - l1 * signs))
        flipped = np.flatnonzero(np.sign(sol) != signs)
        if not len(flipped):
            cand[support] = sol
            break
        # walk from the current point toward sol up to the first coordinate
        # that reaches zero, and drop it (and any tie) from the support
        now = cand[support]
        steps = now[flipped] / (now[flipped] - sol[flipped])
        now += steps.min() * (sol - now)
        now[flipped[np.argmin(steps)]] = 0.0
        cand[support] = now
        support, signs = support[now != 0.0], signs[now != 0.0]
    corr = c - sigma @ cand  # the negated gradient of the smooth loss
    slack = np.abs(corr) - l1  # an inactive coordinate's condition
    slack[support] = np.abs(corr[support] - l2 * cand[support] - l1 * signs)
    return cand if slack.max(initial=0.0) <= eps else None


def fit_elastic_net(X: np.ndarray, y: np.ndarray, alpha: float = _DEFAULTS["alpha"],
                    l1_ratio: float = _DEFAULTS["l1_ratio"], tol: float = _DEFAULTS["tol"],
                    max_iter: int = _DEFAULTS["max_iter"]):
    """Cyclic coordinate descent; stops when the largest coordinate move < tol,
    or at an exact step that passes the optimality check (module docstring).

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
    gram = (G, X.T @ y / n, X.mean(axis=0), float(y.mean()), float(y @ y) / n)
    Xty, x_bar, y_bar = gram[1].tolist(), gram[2].tolist(), gram[3]
    col_sq = np.diag(G).tolist()
    # the part of G's row j that the steps after step j read
    G_after = [row[j + 1:] for j, row in enumerate(G.tolist())]
    active = [j for j in range(n_feat) if col_sq[j] != 0.0]
    l1 = alpha * l1_ratio
    l2 = alpha * (1.0 - l1_ratio)
    # the Gram matrix and Xᵀy/N of the centred design, for the exact step
    sigma = G - np.outer(gram[2], gram[2])
    c = gram[1] - y_bar * gram[2]
    eps = _KKT_RTOL * (l1 + np.abs(c).max(initial=0.0))

    w = [0.0] * n_feat
    b = 0.0
    losses: list[float] = []
    w_log = list(w)  # iterates whose objectives are pending, _LOSS_BATCH at a time
    b_log = [b]
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        max_move = 0.0
        # G @ w, formed afresh each sweep so that the rounding of the
        # updates below cannot drift across sweeps
        gw = (G @ np.array(w)).tolist()
        shift = y_bar - sum(map(mul, x_bar, w)) - b
        if shift != 0.0:
            b += shift
            max_move = abs(shift)
        for j in active:
            w_old = w[j]
            rho = Xty[j] - gw[j] - b * x_bar[j] + col_sq[j] * w_old
            if rho > l1:
                w_new = (rho - l1) / (col_sq[j] + l2)
            elif rho < -l1:
                w_new = (rho + l1) / (col_sq[j] + l2)
            else:
                w_new = 0.0
            if w_new != w_old:
                delta = w_new - w_old
                gw[j + 1:] = [g + gj * delta for g, gj in zip(gw[j + 1:], G_after[j])]
                w[j] = w_new
                move = abs(delta)
                if move > max_move:
                    max_move = move
        w_log += w
        b_log.append(b)
        if max_move < tol:
            converged = True
        elif sweeps % _EXACT_EVERY == 0 or _EXACT_EVERY % sweeps == 0:
            exact = _exact_step(sigma, c, w, l1, l2, eps)
            if exact is not None:
                w = exact.tolist()
                b = y_bar - sum(map(mul, x_bar, w))
                w_log[-n_feat:] = w
                b_log[-1] = b
                converged = True
        if len(b_log) == _LOSS_BATCH:
            losses += _objectives(X, y, gram, w_log, b_log, alpha, l1_ratio)
            w_log.clear()
            b_log.clear()
        if converged:
            break
    if b_log:
        losses += _objectives(X, y, gram, w_log, b_log, alpha, l1_ratio)
    w = np.array(w)
    if not converged:
        warnings.warn(f"coordinate descent did not converge in {max_iter} sweeps "
                      f"(last move {max_move:.3e} >= tol {tol:.3e})",
                      RuntimeWarning, stacklevel=2)
    log = TrainLog(train_loss=tuple(losses), val_loss=(),
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
