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

The objective logged at zero weights and after each sweep is taken from the
residual ``y - Xw - b``, one matrix-vector product per entry.

Coordinate descent finds the support ``A = {j : w_j ≠ 0}`` and its signs
``s`` long before it settles the values, and on correlated lag designs the
move rule alone can take thousands of sweeps or run out ``max_iter``. So the
solver also tries an exact step (the active sets of glmnet; feature-sign
search, Lee, Battle, Raina & Ng, NIPS 2006): with the support and signs
fixed, the optimum is one linear system, ``(Σ_AA + l2·I) w_A = c_A - l1·s``,
where ``Σ`` and ``c`` are the Gram matrix and ``Xᵀy/N`` of the centred
design and the intercept is ``ȳ - x̄·w``. Where the solution flips a sign,
the step walks from ``w`` toward it up to the first coordinate that reaches
zero, drops that coordinate and solves again. Where the solution meets the
optimality (KKT) conditions on the support but not off it, the worst
violator enters the support with the sign of its gradient, which lowers the
objective from an optimum on the support, and the support is solved again,
at most ``_ACTIVATIONS`` times; so the step also reaches an optimum where a
weight changes sign, which coordinate descent alone may need tens of
thousands of sweeps to get to. The candidate is kept only if every Cholesky
factorization succeeds and every coordinate meets the conditions within
``_KKT_RTOL·(l1 + max|c|)``: ``|c_j - (Σw)_j - l2·w_j - l1·s_j|`` on the
support, ``|c_j - (Σw)_j| - l1`` off it. Then the fit stops at that sweep,
converged, at an optimum, and the sweep's log entry is the candidate's
objective. A rejected candidate changes nothing, so every iterate before an
exit is the one coordinate descent alone gives; a collinear or singular
support fails the factorization or the check. Each solve costs O(p³).
Attempts run at sweeps 1, 2 and 4, where small designs already have their
support, then every ``_EXACT_EVERY``-th sweep and at ``max_iter``, and only
while the sweep's largest move is still at least ``tol``. ``Σ`` is
``G - x̄x̄ᵀ`` and ``c`` is ``Xᵀy/N - ȳx̄``, formed once per fit in O(p²).
"""

from __future__ import annotations

import warnings
from operator import mul

import numpy as np

from ..errors import DimensionMismatch, EmptyWindows, InvalidSpec
from .spec import DEFAULT_HYPERPARAMS, TrainLog

_EXACT_EVERY = 8  # exact steps at the sweeps dividing it (1, 2, 4), then every 8th
_KKT_RTOL = 1e-10  # optimality slack of an exact step, relative to l1 + max|c|
_ACTIVATIONS = 100  # most coordinates an exact step adds to the support
_DEFAULTS = DEFAULT_HYPERPARAMS["elastic_net"]  # fit_elastic_net's, read once


def _exact_step(sigma: np.ndarray, c: np.ndarray, w: list, l1: float, l2: float,
                eps: float) -> np.ndarray | None:
    """The optimum on the support and signs of ``w``, or None if it is not one.

    Solves ``(Σ_AA + l2·I) w_A = c_A - l1·s`` by Cholesky for the support A
    and signs s of ``w``; a coordinate whose sign the solution flips leaves
    A by the line search. Keeps the solution only if every coordinate meets
    the optimality conditions within ``eps``. Where only coordinates off A
    fail them, up to ``_ACTIVATIONS`` times the worst of those enters A with
    the sign of its gradient, and A is solved again.
    """
    cand = np.array(w)
    support = np.flatnonzero(cand)
    signs = np.sign(cand[support])
    for _ in range(_ACTIVATIONS + 1):
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
        on = np.abs(corr[support] - l2 * cand[support] - l1 * signs)
        if on.max(initial=0.0) > eps:
            return None
        off = np.abs(corr) - l1  # an inactive coordinate's condition
        off[support] = -np.inf
        if off.max(initial=0.0) <= eps:
            return cand
        j = int(np.argmax(off))
        # feature-sign activation: cand is optimal on A, and moving w_j off
        # zero with the sign of its gradient lowers the objective
        k = np.searchsorted(support, j)
        support, signs = np.insert(support, k, j), np.insert(signs, k, np.sign(corr[j]))
    return None


def _objective(X: np.ndarray, y: np.ndarray, w: list, b: float, alpha: float,
               l1_ratio: float) -> float:
    """The objective at ``(w, b)``, from the residual."""
    w = np.array(w)
    r = X @ w + b - y
    return float(0.5 * (r @ r) / len(y)
                 + alpha * (l1_ratio * np.abs(w).sum() + 0.5 * (1 - l1_ratio) * (w @ w)))


def fit_elastic_net(X: np.ndarray, y: np.ndarray, alpha: float = _DEFAULTS["alpha"],
                    l1_ratio: float = _DEFAULTS["l1_ratio"], tol: float = _DEFAULTS["tol"],
                    max_iter: int = _DEFAULTS["max_iter"]):
    """Cyclic coordinate descent; stops when the largest coordinate move < tol,
    or at an exact step that passes the optimality check (module docstring).

    Returns ``(w, b, log, converged)``. A fit whose last exact step fails
    returns the last iterate with ``converged=False`` and a warning, never
    raises.
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
    Xty = X.T @ y / n
    x_bar = X.mean(axis=0)
    y_bar = float(y.mean())
    l1 = alpha * l1_ratio
    l2 = alpha * (1.0 - l1_ratio)
    # the Gram matrix and Xᵀy/N of the centred design, for the exact step
    sigma = G - np.outer(x_bar, x_bar)
    c = Xty - y_bar * x_bar
    eps = _KKT_RTOL * (l1 + np.abs(c).max(initial=0.0))
    # the sweeps read these as Python floats
    Xty, x_bar, col_sq = Xty.tolist(), x_bar.tolist(), np.diag(G).tolist()
    # the part of G's row j that the steps after step j read
    G_after = [row[j + 1:] for j, row in enumerate(G.tolist())]
    active = [j for j in range(n_feat) if col_sq[j] != 0.0]

    w = [0.0] * n_feat
    b = 0.0
    losses = [_objective(X, y, w, b, alpha, l1_ratio)]
    converged = False
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
        if max_move < tol:
            converged = True
        elif sweeps % _EXACT_EVERY == 0 or _EXACT_EVERY % sweeps == 0 \
                or sweeps == max_iter:
            exact = _exact_step(sigma, c, w, l1, l2, eps)
            if exact is not None:
                w = exact.tolist()
                b = y_bar - sum(map(mul, x_bar, w))
                converged = True
        losses.append(_objective(X, y, w, b, alpha, l1_ratio))
        if converged:
            break
    w = np.array(w)
    if not converged:
        warnings.warn(f"coordinate descent did not converge in {max_iter} sweeps "
                      f"(last move {max_move:.3e} >= tol {tol:.3e})",
                      RuntimeWarning, stacklevel=2)
    log = TrainLog(train_loss=tuple(losses), val_loss=(),
                   stop_reason="converged" if converged else "max_iter")
    return w, b, log, converged


def predict_linear(w: np.ndarray, b: float, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != len(w):
        raise DimensionMismatch(f"{X.shape[-1]} features vs {len(w)} weights")
    return X @ w + b
