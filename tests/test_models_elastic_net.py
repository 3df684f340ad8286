import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denitlab.dataset import COVARIATES, apply_scaler, fit_scaler, make_final_split
from denitlab.errors import DimensionMismatch, InvalidSpec
from denitlab.models import ModelSpec, elastic_net, spec_windows, stack_inputs, \
    training_targets
from denitlab.models.elastic_net import fit_elastic_net, predict_linear, \
    stationarity_gap
from denitlab.pipeline import prepare_frame
from denitlab.synthpilot import SynthConfig, generate


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
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    with pytest.warns(RuntimeWarning):
        _, _, log, converged = fit_elastic_net(X, y, alpha=1e-6, tol=1e-14,
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        w, b, log, converged = fit_elastic_net(X, y, alpha=alpha, l1_ratio=l1_ratio,
                                               tol=tol, max_iter=max_iter)
    assert converged == conv_ref == (max_iter > 7)
    if conv_ref:
        # the exact step may end the fit early; every sweep before its exit is
        # the oracle's, and the exit is an optimum at least as good as the
        # oracle's stop
        assert log.stopped_at <= sweeps_ref
        assert log.stop_reason == "converged"
        np.testing.assert_allclose(log.train_loss[:log.stopped_at],
                                   losses_ref[:log.stopped_at], rtol=1e-12, atol=0)
        assert _scaled_gap(X, y, w, b, alpha, l1_ratio) <= 1e-12
        assert _objective(X, y, w, b, alpha, l1_ratio) \
            <= _objective(X, y, w_ref, b_ref, alpha, l1_ratio)
        if zero_column is not None:
            assert w[zero_column] == 0.0
        return
    assert log.stopped_at == sweeps_ref
    assert log.stop_reason == ("converged" if conv_ref else "max_iter")
    assert np.abs(w - w_ref).max() <= 1e-10
    assert abs(b - b_ref) <= 1e-10
    if zero_column is not None:
        assert w[zero_column] == 0.0
    np.testing.assert_allclose(log.train_loss, losses_ref, rtol=1e-12, atol=0)


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


# sha256 of (w, b, stopped_at, converged) over the grid of
# test_covariance_updates_match_residual_updates, recorded when the solver
# gained its exact step
RECORDED_GRID_DIGEST = "6baa6a0c439856b8d209b8b0c2a1d0879a961d5e245403c7f274989b2772109f"


def test_solve_bit_identical_to_recorded_digest():
    digest = hashlib.sha256()
    for l1_ratio in (0.0, 0.5, 1.0):
        for channels, h, zero_column, max_iter in [
                (1, 0, None, 5000), (1, 2, None, 5000), (3, 3, None, 5000),
                (3, 3, 5, 5000), (10, 2, None, 5000), (10, 2, None, 7)]:
            X, y = _lagged_design(channels * 10 + h, channels, h,
                                  zero_column=zero_column)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                w, b, log, converged = fit_elastic_net(
                    X, y, alpha=1e-2, l1_ratio=l1_ratio, tol=1e-7, max_iter=max_iter)
            assert converged == (max_iter > 7)
            if converged:
                assert _scaled_gap(X, y, w, b, 1e-2, l1_ratio) <= 1e-12
            digest.update(w.tobytes())
            digest.update(np.float64(b).tobytes())
            digest.update(str((log.stopped_at, converged)).encode())
    assert digest.hexdigest() == RECORDED_GRID_DIGEST


@pytest.mark.parametrize("noise", [0.0, 1e-9, 1e-6])
def test_near_exact_fit_log_matches_residual_form(monkeypatch, noise):
    # the Gram-form objective cancels as the residual vanishes; every logged
    # entry must still equal the residual form at the same iterate
    X, y = _lagged_design(33, 3, 3)
    rng = np.random.default_rng(4)
    y = X @ rng.normal(size=X.shape[1]) + 0.3 + noise * rng.normal(size=len(y))
    residual_form = []
    objectives = elastic_net._objectives

    def spy(X, y, gram, w_log, b_log, alpha, l1_ratio):
        # the objectives of the same batch of iterates from their residuals,
        # in one product as the log took them before it used the Gram terms
        R = X @ np.reshape(w_log, (len(b_log), -1)).T + np.array(b_log) - y[:, None]
        residual_form.extend(0.5 * np.einsum("ij,ij->j", R, R) / len(y))
        return objectives(X, y, gram, w_log, b_log, alpha, l1_ratio)

    monkeypatch.setattr(elastic_net, "_objectives", spy)
    _, _, log, converged = fit_elastic_net(X, y, alpha=0.0, tol=1e-12, max_iter=5000)
    assert converged
    np.testing.assert_allclose(log.train_loss, residual_form, rtol=1e-12, atol=0)
    # entry 0 is taken from the Gram terms; the last entries, whose residual
    # sum is below the rounding bound of yᵀy/N alone, fall back to the residuals
    bound = elastic_net._EPS * (X.shape[1] + 1) / elastic_net._LOSS_RTOL * (y @ y) / len(y)
    assert 2 * residual_form[0] > bound > 2 * residual_form[-1]


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
