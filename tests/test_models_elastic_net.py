import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denitlab.dataset import COVARIATES, apply_scaler, fit_scaler, make_final_split
from denitlab.errors import DimensionMismatch, InvalidSpec
from denitlab.models import DEFAULT_HYPERPARAMS, ModelSpec, spec_windows, \
    stack_inputs, training_targets
from denitlab.models.elastic_net import fit_elastic_net, predict_linear
from denitlab.pipeline import prepare_frame
from denitlab.synthpilot import SynthConfig, generate


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


def test_unregularized_exact_fit():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([2.0, 4.0, 6.0])
    w, b, log, converged = fit_elastic_net(X, y, alpha=0.0, tol=1e-12,
                                           max_iter=20000)
    assert converged
    assert w[0] == pytest.approx(2.0, abs=1e-9)
    assert b == pytest.approx(0.0, abs=1e-9)


def test_full_l1_above_critical_alpha_zeroes_weights():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 5))
    X -= X.mean(axis=0)
    y = rng.normal(size=40)
    y -= y.mean()
    # the subgradient condition at w=0 needs |X^T y|/N <= alpha for every j
    alpha_crit = np.abs(X.T @ y).max() / len(y)
    w, b, _, converged = fit_elastic_net(X, y, alpha=alpha_crit * 1.0001,
                                         l1_ratio=1.0, tol=1e-12, max_iter=500)
    assert converged
    assert np.all(w == 0.0)
    assert b == pytest.approx(0.0, abs=1e-12)


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    w, b, _, _ = fit_elastic_net(X, y, alpha=0.0, tol=1e-13, max_iter=50000)
    A = np.column_stack([X, np.ones(len(y))])
    ref, *_ = np.linalg.lstsq(A, y, rcond=None)
    assert w == pytest.approx(ref[:3], abs=1e-6)
    assert b == pytest.approx(ref[3], abs=1e-6)


def test_stationarity_at_convergence():
    rng = np.random.default_rng(11)
    for alpha, l1_ratio in [(0.1, 0.5), (0.5, 1.0), (0.05, 0.0), (1.0, 0.3)]:
        X = rng.normal(size=(60, 6))
        y = X @ rng.normal(size=6) + rng.normal(0, 0.1, 60)
        w, b, _, converged = fit_elastic_net(X, y, alpha=alpha, l1_ratio=l1_ratio,
                                             tol=1e-12, max_iter=50000)
        assert converged
        assert stationarity_gap(X, y, w, b, alpha, l1_ratio) < 1e-8


def test_objective_non_increasing_over_sweeps():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 8))
    y = rng.normal(size=50)
    _, _, log, _ = fit_elastic_net(X, y, alpha=0.2, l1_ratio=0.7)
    losses = np.array(log.train_loss)
    assert np.all(np.diff(losses) <= 1e-12)


def test_non_convergence_warns_and_flags():
    # an exact copy of a column and no penalty: the optimum is not unique, so
    # no exact step passes, and two sweeps leave coordinate descent short of tol
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 4))
    X = np.column_stack([X, X[:, 0]])
    y = rng.normal(size=30)
    with pytest.warns(RuntimeWarning):
        _, _, log, converged = fit_elastic_net(X, y, alpha=0.0, tol=1e-14,
                                               max_iter=2)
    assert not converged
    assert log.stop_reason == "max_iter"


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fit_elastic_net(np.ones((3, 2)), np.ones(4))


@pytest.mark.parametrize("max_iter", [0, -1])
def test_max_iter_below_one_rejected(max_iter):
    with pytest.raises(InvalidSpec):
        fit_elastic_net(np.ones((3, 2)), np.ones(3), max_iter=max_iter)


def test_predict_linear_shapes():
    out = predict_linear(np.array([1.0, -1.0]), 0.5,
                         np.array([[2.0, 1.0], [0.0, 0.0]]))
    assert out == pytest.approx([1.5, 0.5])
    with pytest.raises(DimensionMismatch):
        predict_linear(np.array([1.0]), 0.0, np.ones((2, 3)))


# --- covariance-update solver against the residual-update loop ---------------

def _residual_update_fit(X, y, alpha, l1_ratio, tol, max_iter):
    """Frozen copy of the earlier solver: each coordinate step is an O(n) dot
    with the residual, which is then updated in place."""
    n, n_feat = X.shape
    w = np.zeros(n_feat)
    b = 0.0
    r = y - b
    col_sq = (X ** 2).mean(axis=0)
    l1 = alpha * l1_ratio
    l2 = alpha * (1.0 - l1_ratio)

    def objective():
        return float(0.5 / n * r @ r
                     + alpha * (l1_ratio * np.abs(w).sum()
                                + 0.5 * (1 - l1_ratio) * w @ w))

    def soft_threshold(x, lam):
        return x - lam if x > lam else x + lam if x < -lam else 0.0

    losses = [objective()]
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        max_move = 0.0
        shift = r.mean()
        if shift != 0.0:
            b += shift
            r -= shift
            max_move = abs(shift)
        for j in range(n_feat):
            if col_sq[j] == 0.0:
                continue
            w_old = w[j]
            rho = (X[:, j] @ r) / n + col_sq[j] * w_old
            w_new = soft_threshold(rho, l1) / (col_sq[j] + l2)
            if w_new != w_old:
                r += X[:, j] * (w_old - w_new)
                w[j] = w_new
            max_move = max(max_move, abs(w_new - w_old))
        losses.append(objective())
        if max_move < tol:
            converged = True
            break
    return w, b, losses, sweeps, converged


def _lagged_design(seed, channels, h, n=300, zero_column=None):
    """Lag-stacked random-walk channels, as the windows give the tabular
    models: neighbouring lags of a channel are strongly collinear, and the
    columns are scaled but not centred (a window set's column means are not
    the scaler's)."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(size=(n + h, channels)), axis=0) * 0.1 \
        + rng.normal(size=(n + h, channels)) * 0.05
    X = np.concatenate([walk[k:k + n] for k in range(h + 1)], axis=1)
    X = (X - X.mean(axis=0)) / X.std(axis=0) + rng.normal(size=X.shape[1]) * 0.5
    y = X @ rng.normal(size=X.shape[1]) * 0.3 + rng.normal(size=n) * 0.5 + 0.2
    if zero_column is not None:
        X[:, zero_column] = 0.0
    return X, y


def _objective(X, y, w, b, alpha, l1_ratio):
    """The elastic-net objective at (w, b), from the residual."""
    r = y - X @ w - b
    return float(0.5 * r @ r / len(y)
                 + alpha * (l1_ratio * np.abs(w).sum() + 0.5 * (1 - l1_ratio) * w @ w))


def _scaled_gap(X, y, w, b, alpha, l1_ratio):
    """``stationarity_gap`` relative to the size of the sums that form it at
    w = 0: ``l1`` plus the largest ``|X_j|ᵀ|y - ȳ|/N``, or the mean
    ``|y - ȳ|`` of the intercept's condition if that is larger."""
    spread = np.abs(y - y.mean())
    scale = alpha * l1_ratio + max((np.abs(X).T @ spread).max() / len(y), spread.mean())
    return stationarity_gap(X, y, w, b, alpha, l1_ratio) / scale


@pytest.mark.parametrize("l1_ratio", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("channels,h,zero_column,max_iter", [
    (1, 0, None, 5000),   # p = 1
    (1, 2, None, 5000),   # p = 3
    (3, 3, None, 5000),   # p = 12
    (3, 3, 5, 5000),      # p = 12 with an all-zero column
    (10, 2, None, 5000),  # p = 30
    (10, 2, None, 7),     # p = 30, stopped by max_iter
])
def test_covariance_updates_match_residual_updates(channels, h, zero_column,
                                                   max_iter, l1_ratio):
    X, y = _lagged_design(channels * 10 + h, channels, h, zero_column=zero_column)
    alpha, tol = 1e-2, 1e-7
    w_ref, b_ref, losses_ref, sweeps_ref, conv_ref = _residual_update_fit(
        X, y, alpha, l1_ratio, tol, max_iter)
    w, b, log, converged = fit_elastic_net(X, y, alpha=alpha, l1_ratio=l1_ratio,
                                           tol=tol, max_iter=max_iter)
    assert conv_ref == (max_iter > 7)
    # the exact step may end the fit early, the 7-sweep fit too; every sweep
    # before its exit is the oracle's, and the exit is an optimum at least as
    # good as the oracle's stop
    assert converged and log.stop_reason == "converged"
    assert log.stopped_at <= sweeps_ref
    np.testing.assert_allclose(log.train_loss[:log.stopped_at],
                               losses_ref[:log.stopped_at], rtol=1e-12, atol=0)
    assert _scaled_gap(X, y, w, b, alpha, l1_ratio) <= 1e-12
    assert _objective(X, y, w, b, alpha, l1_ratio) \
        <= _objective(X, y, w_ref, b_ref, alpha, l1_ratio)
    if zero_column is not None:
        assert w[zero_column] == 0.0


def test_exactly_collinear_design_converges_like_residual_updates():
    # duplicated lag columns of a sinusoid: G is singular, so rounding in
    # G @ w that drifted across sweeps would keep moving w along its null
    # space; the residual form settles at a tight tol in about 7,000 sweeps
    t = np.arange(400)
    c = np.sin(2 * np.pi * t / 144)
    c = (c - c.mean()) / c.std()
    X = np.column_stack([c[:-1], c[1:], c[:-1], c[1:]])
    y = np.sin(2 * np.pi * (t[1:] + 1) / 144)
    _, _, _, sweeps_ref, conv_ref = _residual_update_fit(X, y, 0.0, 0.5, 1e-14, 50000)
    _, _, log, converged = fit_elastic_net(X, y, alpha=0.0, tol=1e-14, max_iter=50000)
    assert conv_ref and converged
    assert abs(log.stopped_at - sweeps_ref) <= 0.01 * sweeps_ref
    assert log.train_loss[-1] < 1e-24


# sha256 of (w, b, converged) over the 5,000-sweep fits of the grid of
# test_covariance_updates_match_residual_updates, recorded with the exact step
# tried only on the support and signs coordinate descent had found (the fits
# ended at sweeps 1 to 704); an exact step that may also activate coordinates
# ends each of them at sweep 1 at the same bits
RECORDED_GRID_DIGEST = "89239c114afc6da8e943b95e734a4a6bf6a7a85342cf6a8d35697129bc9b0a41"


def test_solve_bit_identical_to_recorded_digest():
    digest = hashlib.sha256()
    for l1_ratio in (0.0, 0.5, 1.0):
        for channels, h, zero_column in [(1, 0, None), (1, 2, None), (3, 3, None),
                                         (3, 3, 5), (10, 2, None)]:
            X, y = _lagged_design(channels * 10 + h, channels, h,
                                  zero_column=zero_column)
            w, b, log, converged = fit_elastic_net(
                X, y, alpha=1e-2, l1_ratio=l1_ratio, tol=1e-7, max_iter=5000)
            assert converged and log.stopped_at == 1
            assert _scaled_gap(X, y, w, b, 1e-2, l1_ratio) <= 1e-12
            digest.update(w.tobytes())
            digest.update(np.float64(b).tobytes())
            digest.update(str(converged).encode())
    assert digest.hexdigest() == RECORDED_GRID_DIGEST


def test_default_fit_logs_the_residual_objective_of_its_two_iterates():
    # p = 12: the first sweep finds the support, and the exact step there
    # reaches the optimum (with the exact step tried only on the support
    # found, this fit ran 24 sweeps); entry 0 is zero weights and intercept
    X, y = _lagged_design(33, 3, 3)
    hp = DEFAULT_HYPERPARAMS["elastic_net"]
    w, b, log, converged = fit_elastic_net(X, y)
    assert converged and log.stopped_at == 1
    expected = [_objective(X, y, np.zeros(X.shape[1]), 0.0, hp["alpha"], hp["l1_ratio"]),
                _objective(X, y, w, b, hp["alpha"], hp["l1_ratio"])]
    np.testing.assert_allclose(log.train_loss, expected, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 8), n=st.integers(20, 200),
       alpha=st.one_of(st.just(0.0), st.floats(-6, 0).map(lambda e: 10.0 ** e)),
       l1_ratio=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)),
       extra=st.sampled_from([None, "zero", "duplicate"]))
def test_fit_exits_exactly_or_as_the_residual_updates(seed, p, n, alpha, l1_ratio,
                                                      extra):
    # correlated, uncentred columns; maybe one all-zero column, or with p > 1
    # one exact copy of another
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) @ rng.normal(size=(p, p)) + rng.normal(size=p)
    if extra == "zero":
        X[:, rng.integers(p)] = 0.0
    elif extra == "duplicate" and p > 1:
        X[:, 0] = X[:, 1]
    y = X @ rng.normal(size=p) + rng.normal(size=n) + rng.normal()
    tol, max_iter = 1e-7, 1000
    w_ref, b_ref, losses_ref, sweeps_ref, conv_ref = _residual_update_fit(
        X, y, alpha, l1_ratio, tol, max_iter)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        w, b, log, converged = fit_elastic_net(X, y, alpha=alpha, l1_ratio=l1_ratio,
                                               tol=tol, max_iter=max_iter)
    # every sweep before the exit is the oracle's
    np.testing.assert_allclose(log.train_loss[:log.stopped_at],
                               losses_ref[:log.stopped_at], rtol=1e-12, atol=0)
    if (log.stopped_at, converged) != (sweeps_ref, conv_ref):  # the exact step's exit
        assert converged and log.stop_reason == "converged"
        assert log.stopped_at <= sweeps_ref
        assert _scaled_gap(X, y, w, b, alpha, l1_ratio) <= 1e-12
    else:
        np.testing.assert_allclose(log.train_loss, losses_ref, rtol=1e-12, atol=0)
    # where both end at the optimum, their objectives may differ in the last bits
    ref = _objective(X, y, w_ref, b_ref, alpha, l1_ratio)
    assert _objective(X, y, w, b, alpha, l1_ratio) <= ref + 1e-12 * ref


def test_paper_scale_fit_converges_to_an_exact_optimum():
    # the design of the `paper_scale_enet` rerun check: a year of samples,
    # every covariate, h=2; coordinate descent alone stops at max_iter
    frame, _ = prepare_frame(generate(SynthConfig(days=365, seed=13))[0])
    plan = make_final_split(frame)
    spec = ModelSpec("elastic_net", COVARIATES, h=2, task="nowcast",
                     hyperparams={"alpha": 1e-3})
    ws = spec_windows(spec, apply_scaler(frame, fit_scaler(frame, plan.train)),
                      plan.train)
    X, y = stack_inputs(spec, ws).reshape(len(ws), -1), training_targets(ws)
    hp = spec.resolved()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w, b, log, converged = fit_elastic_net(X, y, **hp)
    assert converged and log.stop_reason == "converged"
    assert log.stopped_at < hp["max_iter"] == 2000
    assert _scaled_gap(X, y, w, b, hp["alpha"], hp["l1_ratio"]) <= 1e-12


def test_sign_change_optimum_ends_by_activation():
    # 4 rows, 6 columns: the optimum needs a weight to change sign, which the
    # exact step's line search cannot do and coordinate descent does only in
    # about 24,000 sweeps; the first sweep's exact step reaches it by
    # activation
    rng = np.random.default_rng(3)
    X = rng.normal(size=(4, 6))
    y = rng.normal(size=4)
    alpha, l1_ratio = 1e-4, 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w, b, log, converged = fit_elastic_net(X, y, alpha=alpha, l1_ratio=l1_ratio)
    assert converged and log.stop_reason == "converged"
    assert log.stopped_at == 1
    assert stationarity_gap(X, y, w, b, alpha, l1_ratio) < 1e-8
    w_cd, b_cd, _, _, conv_cd = _residual_update_fit(X, y, alpha, l1_ratio, 1e-6, 2000)
    assert not conv_cd
    assert log.train_loss[-1] == pytest.approx(_objective(X, y, w, b, alpha, l1_ratio),
                                               rel=1e-12)
    assert _objective(X, y, w, b, alpha, l1_ratio) \
        <= _objective(X, y, w_cd, b_cd, alpha, l1_ratio)
