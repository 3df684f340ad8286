import numpy as np
import pytest

from denitlab.errors import EmptyWindows, NonFiniteLoss
from denitlab.models import ModelSpec, loss_and_grad
from denitlab.models.networks import (
    _BACKENDS, FORWARD_BLOCK_ROWS, network_forward, train_network,
)
from denitlab.models.recurrent import _sigmoid

HPS = {
    "recurrent": {"hidden": 6},
    "tcn": {"hidden": 6, "levels": 2, "kernel_size": 3},
}


def finite_difference_worst_error(arch, seed, n_in=4, T=5, eps=1e-5):
    rng = np.random.default_rng(seed)
    params = _BACKENDS[arch].init_params(n_in, HPS[arch], rng)
    for k in params:  # perturb so biases and heads are generic, not zero
        params[k] = params[k] + rng.normal(0, 0.05, params[k].shape)
    X = rng.normal(size=(1, T, n_in))
    y = rng.normal(size=1)
    _, grads = loss_and_grad(arch, params, X, y)
    worst = 0.0
    for k, p in params.items():
        flat = p.ravel()
        gflat = grads[k].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = loss_and_grad(arch, params, X, y)
            flat[i] = orig - eps
            lm, _ = loss_and_grad(arch, params, X, y)
            flat[i] = orig
            numeric = (lp - lm) / (2 * eps)
            denom = max(abs(numeric), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst


@pytest.mark.parametrize("arch", ["recurrent", "tcn"])
@pytest.mark.parametrize("seed", [0, 1])
def test_gradients_match_finite_differences(arch, seed):
    assert finite_difference_worst_error(arch, seed) <= 1e-4


def _toy_data(seed=0, n=64, T=4, n_in=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, T, n_in))
    y = X[:, -1, 0] * 0.5 + 0.2 * X[:, 0, 1]
    return X, y


@pytest.mark.parametrize("arch", ["recurrent", "tcn"])
def test_zero_targets_with_zero_head_converges_at_epoch_zero(arch):
    X, _ = _toy_data()
    y = np.zeros(len(X))
    spec = ModelSpec(arch, ("a", "b", "c"), h=3, task="nowcast",
                     hyperparams=HPS[arch], seed=0)
    zero_head = {"head_w": np.zeros(HPS[arch]["hidden"]), "head_b": np.zeros(1)}
    params, log = _check_against_oracle(spec, X, y, X[:8], y[:8], init=zero_head)
    assert log.train_loss[0] == 0.0
    assert log.stopped_at == 0
    assert log.stop_reason == "converged"
    assert np.array_equal(params["head_w"], zero_head["head_w"])


def test_patience_one_returns_best_epoch_params():
    X, y = _toy_data()
    spec = ModelSpec("recurrent", ("a", "b", "c"), h=3, task="nowcast",
                     hyperparams={"hidden": 4, "patience": 1, "max_epochs": 50,
                                  "learning_rate": 1e-3, "batch_size": 16},
                     seed=1)
    params, log = train_network(spec, X, y, X[:16], y[:16])
    assert log.stop_reason in ("early_stop", "max_iter")
    if log.stop_reason == "early_stop":
        best_epoch = int(np.argmin(log.val_loss))
        assert log.stopped_at == best_epoch + 1  # one bad epoch then stop
        # returned parameters reproduce the best-epoch validation loss
        from denitlab.models.networks import mse_loss, network_forward
        got = mse_loss(network_forward("recurrent", params, X[:16]), y[:16])
        assert got == pytest.approx(log.val_loss[best_epoch])


@pytest.mark.parametrize("arch", ["recurrent", "tcn"])
def test_training_is_bit_deterministic(arch):
    X, y = _toy_data(seed=3)
    spec = ModelSpec(arch, ("a", "b", "c"), h=3, task="nowcast",
                     hyperparams={**HPS[arch], "max_epochs": 4}, seed=7)
    p1, log1 = train_network(spec, X, y, X[:16], y[:16])
    p2, log2 = train_network(spec, X, y, X[:16], y[:16])
    assert log1 == log2
    for k in p1:
        assert np.array_equal(p1[k], p2[k])


def test_divergence_raises_nonfinite_with_log():
    X, y = _toy_data(seed=4)
    spec = ModelSpec("recurrent", ("a", "b", "c"), h=3, task="nowcast",
                     hyperparams={"hidden": 8, "learning_rate": 10.0,
                                  "momentum": 0.9, "max_epochs": 400,
                                  "patience": 400, "batch_size": 4},
                     seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLoss) as exc_info:
            train_network(spec, X, y * 1e120, X[:8], y[:8] * 1e120)
    assert exc_info.value.log is not None


def test_empty_windows_rejected():
    X, y = _toy_data()
    spec = ModelSpec("recurrent", ("a", "b", "c"), h=3, task="nowcast",
                     hyperparams=HPS["recurrent"], seed=0)
    with pytest.raises(EmptyWindows):
        train_network(spec, X[:0], y[:0], X, y)


@pytest.mark.parametrize("arch", ["recurrent", "tcn"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_returned_params_hit_minimum_validation_loss(arch, seed):
    from denitlab.models.networks import mse_loss, network_forward

    X, y = _toy_data(seed=seed)
    spec = ModelSpec(arch, ("a", "b", "c"), h=3, task="nowcast",
                     hyperparams={**HPS[arch], "patience": 3, "max_epochs": 15,
                                  "learning_rate": 5e-3, "batch_size": 16},
                     seed=seed)
    params, log = train_network(spec, X, y, X[:16], y[:16])
    got = mse_loss(network_forward(arch, params, X[:16]), y[:16])
    assert got == pytest.approx(min(log.val_loss))


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("arch", ["recurrent", "tcn"])
@pytest.mark.parametrize("hidden", [8, 64])
@pytest.mark.parametrize("n", [0, 1, FORWARD_BLOCK_ROWS, 2 * FORWARD_BLOCK_ROWS + 7])
def test_blocked_forward_equals_one_batch_forward(arch, hidden, n):
    _assert_blocked_forward_equals_one_batch(arch, hidden, n, T=3)


def _assert_blocked_forward_equals_one_batch(arch, hidden, n, T):
    rng = np.random.default_rng(hidden + n)
    hp = {**HPS[arch], "hidden": hidden}
    params = _BACKENDS[arch].init_params(4, hp, rng)
    for k in params:
        params[k] = params[k] + rng.normal(0, 0.1, params[k].shape)
    X = rng.normal(0, 2, size=(n, T, 4))
    one_batch, _ = _BACKENDS[arch].forward(params, X)
    blocked = network_forward(arch, params, X)
    assert blocked.shape == (n,)
    assert np.array_equal(bits(blocked), bits(one_batch))


#: Windows shorter than the networks' reach. T=1 comes from h=0, the first
#: default ``h`` candidate. The tcn (kernel 3, 2 levels) reaches back 2 steps
#: in level 0 and 4 in level 1, so at T=2 some of its taps fall before the
#: window start.
SHORT_WINDOWS = [("recurrent", 1), ("recurrent", 2), ("tcn", 1), ("tcn", 2)]


@pytest.mark.parametrize("arch,T", SHORT_WINDOWS)
@pytest.mark.parametrize("seed", [0, 1])
def test_gradients_match_finite_differences_on_short_windows(arch, T, seed):
    assert finite_difference_worst_error(arch, seed, T=T) <= 1e-4


@pytest.mark.parametrize("arch,T", SHORT_WINDOWS)
@pytest.mark.parametrize("n", [1, 2 * FORWARD_BLOCK_ROWS + 7])
def test_blocked_forward_on_short_windows(arch, T, n):
    _assert_blocked_forward_equals_one_batch(arch, 8, n, T)


def _reference_forward(arch, params, X):
    """Each network's forward as written step by step and tap by tap."""
    B, T, _ = X.shape
    if arch == "recurrent":
        H = params["Wh"].shape[1]
        h, c = np.zeros((B, H)), np.zeros((B, H))
        for t in range(T):
            z = X[:, t] @ params["Wx"].T + h @ params["Wh"].T + params["b"]
            i, f, o = (_two_division_sigmoid(z[:, k * H:(k + 1) * H]) for k in range(3))
            c = f * c + i * np.tanh(z[:, 3 * H:])
            h = o * np.tanh(c)
        return h @ params["head_w"] + params["head_b"][0]
    x = X
    for level in range(HPS["tcn"]["levels"]):
        W, dilation = params[f"conv{level}_W"], 2 ** level
        K = len(W)
        z = np.broadcast_to(params[f"conv{level}_b"], (B, T, W.shape[2])).copy()
        for t in range(T):
            for k in range(K):
                if t - (K - 1 - k) * dilation >= 0:
                    z[:, t] += x[:, t - (K - 1 - k) * dilation] @ W[k]
        proj = params.get(f"proj{level}")
        x = np.tanh(z) + (x if proj is None else x @ proj)
    return x[:, -1] @ params["head_w"] + params["head_b"][0]


@pytest.mark.parametrize("arch", ["recurrent", "tcn"])
@pytest.mark.parametrize("T", [1, 2, 5])
def test_forward_matches_step_by_step_reference(arch, T):
    rng = np.random.default_rng(T)
    params = _BACKENDS[arch].init_params(4, HPS[arch], rng)
    X = rng.normal(size=(9, T, 4))
    got, _ = _BACKENDS[arch].forward(params, X)
    np.testing.assert_allclose(got, _reference_forward(arch, params, X),
                               rtol=1e-12, atol=1e-12)


def _two_division_sigmoid(z):
    """The logistic function as written before the one-division form."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def test_sigmoid_matches_two_division_form_bitwise():
    mag = np.geomspace(1e-3, 800, 4001)
    subnormal = [5e-324, 1e-320, 2.2e-308]
    special = [0.0, np.inf, 1e308, np.finfo(float).tiny, *subnormal]
    z = np.concatenate([mag, -mag, special, np.negative(special)])  # and -0.0
    assert np.array_equal(bits(_sigmoid(z)), bits(_two_division_sigmoid(z)))
    # the forward activates the contiguous (3, B, H) block of i, f and o of
    # its gate-major pre-activations in place
    picks = np.concatenate([special, np.negative(special), mag[::35], -mag[::35]])
    block = picks[:3 * 7 * 11].reshape(3, 7, 11)
    want = _two_division_sigmoid(block)
    assert np.array_equal(bits(_sigmoid(block)), bits(want))
    assert _sigmoid(block, out=block) is block
    assert np.array_equal(bits(block), bits(want))
    assert np.isnan(_sigmoid(np.array([np.nan, -np.nan]))).all()


def _oracle_recurrent_forward(params, X):
    """``recurrent.forward`` as it was on strided (B, H) column slices of the
    packed (T, B, 4H) pre-activations, kept as the bitwise oracle for the
    gate-major cell. Its logistic is the two-division form, which the
    ``where`` form it then used matched bit for bit."""
    B, T, n_in = X.shape
    H = params["Wh"].shape[1]
    Xt = X.transpose(1, 0, 2).reshape(T * B, n_in)
    zx = (Xt @ params["Wx"].T + params["b"]).reshape(T, B, 4 * H)
    hs = np.empty((T, B, H))
    steps = []
    c = None
    for t in range(T):
        z = zx[t] if t == 0 else zx[t] + hs[t - 1] @ params["Wh"].T
        gates = _two_division_sigmoid(z[:, :3 * H])
        i, f, o = gates[:, :H], gates[:, H:2 * H], gates[:, 2 * H:]
        g = np.tanh(z[:, 3 * H:])
        c_prev = c
        c = i * g if c_prev is None else f * c_prev + i * g
        tc = np.tanh(c)
        np.multiply(o, tc, out=hs[t])
        steps.append((i, f, o, g, tc, c_prev))
    yhat = hs[-1] @ params["head_w"] + params["head_b"][0]
    return yhat, {"steps": steps, "Xt": Xt, "hs": hs}


def _oracle_recurrent_backward(params, cache, dyhat):
    """``recurrent.backward`` as it was, with four gate temporaries per step
    joined by ``concatenate``."""
    hs = cache["hs"]
    T, B, H = hs.shape
    grads = {"head_w": hs[-1].T @ dyhat, "head_b": np.array([dyhat.sum()])}
    dZ = np.empty((T, B, 4 * H))
    dh = np.outer(dyhat, params["head_w"])
    dc = None
    for t in range(T - 1, -1, -1):
        i, f, o, g, tc, c_prev = cache["steps"][t]
        dc_t = dh * o * (1.0 - tc ** 2)
        dc = dc_t if dc is None else dc + dc_t
        dforget = np.zeros((B, H)) if c_prev is None else dc * c_prev * f * (1.0 - f)
        np.concatenate([
            dc * g * i * (1.0 - i),
            dforget,
            dh * tc * o * (1.0 - o),
            dc * i * (1.0 - g ** 2),
        ], axis=1, out=dZ[t])
        if t:
            dh = dZ[t] @ params["Wh"]
            dc = dc * f
    dZ2 = dZ.reshape(T * B, 4 * H)
    grads["Wx"] = dZ2.T @ cache["Xt"]
    grads["Wh"] = dZ2[B:].T @ hs[:-1].reshape((T - 1) * B, H)
    grads["b"] = dZ2.sum(axis=0)
    return grads


@pytest.mark.parametrize("B", [1, 7, 64, 512, 1031])
@pytest.mark.parametrize("T", [1, 2, 3, 13])
def test_recurrent_cell_matches_strided_oracle_bitwise(B, T):
    recurrent = _BACKENDS["recurrent"]
    for H in (1, 6, 8, 64):
        for n_in in (1, 4, 11):
            rng = np.random.default_rng([B, T, H, n_in])
            params = recurrent.init_params(n_in, {"hidden": H}, rng)
            params["head_w"] += rng.normal(0, 0.5, H)
            params["head_b"] += rng.normal()
            for bias in ("generic", "saturating"):
                # saturating biases pin some gates at exactly 0 or 1 (the
                # logistic) and at +-1 (tanh) whatever the inputs do
                scale = [0.3, 40.0, 800.0] if bias == "saturating" else [0.3]
                params["b"] = rng.choice(scale, 4 * H) * rng.choice([-1.0, 1.0], 4 * H)
                X = rng.normal(0, 2, size=(B, T, n_in))
                dyhat = rng.normal(size=B) / B
                yhat, cache = recurrent.forward(params, X)
                o_yhat, o_cache = _oracle_recurrent_forward(params, X)
                where = f"H={H} n_in={n_in} {bias}"
                assert np.array_equal(bits(yhat), bits(o_yhat)), where
                grads = recurrent.backward(params, cache, dyhat)
                o_grads = _oracle_recurrent_backward(params, o_cache, dyhat)
                assert grads.keys() == o_grads.keys()
                for k in grads:
                    assert np.array_equal(bits(grads[k]), bits(o_grads[k])), (where, k)


def test_one_step_cell_matches_oracle_with_nan_forget_gate():
    """At step 0 the forget gate meets the zero state, so a one-step window
    predicts even where the gate is NaN, and the gate's gradient is 0."""
    recurrent = _BACKENDS["recurrent"]
    rng = np.random.default_rng(0)
    H = 6
    params = recurrent.init_params(4, {"hidden": H}, rng)
    params["b"][H:2 * H] = np.nan
    X = rng.normal(size=(9, 1, 4))
    dyhat = rng.normal(size=9)
    yhat, cache = recurrent.forward(params, X)
    o_yhat, o_cache = _oracle_recurrent_forward(params, X)
    assert np.isfinite(yhat).all()
    assert np.array_equal(bits(yhat), bits(o_yhat))
    grads = recurrent.backward(params, cache, dyhat)
    o_grads = _oracle_recurrent_backward(params, o_cache, dyhat)
    for k in grads:
        assert np.array_equal(bits(grads[k]), bits(o_grads[k])), k


def _oracle_train_network(spec, X_train, y_train, X_val, y_val, init=None):
    """The trainer as it was when every epoch ended with a forward over the
    whole training set, kept as the oracle for the one that reads its epoch
    loss from the mini-batches. It also records the size-weighted mean of
    each completed epoch's batch losses.

    Returns ``(best_params, log, epoch_means, error)``; on divergence
    ``best_params`` and ``log`` are None and ``error`` is the NonFiniteLoss.
    """
    from denitlab.models.networks import CONVERGE_TOL, mse_loss
    from denitlab.models.spec import TrainLog

    hp = spec.resolved()
    rng = np.random.default_rng(spec.seed)
    backend = _BACKENDS[spec.arch]
    params = backend.init_params(X_train.shape[2], hp, rng)
    if init is not None:
        for k, v in init.items():
            params[k] = np.array(v, dtype=float)
    velocity = {k: np.zeros_like(v) for k, v in params.items()}

    def full_losses():
        return (mse_loss(network_forward(spec.arch, params, X_train), y_train),
                mse_loss(network_forward(spec.arch, params, X_val), y_val))

    def diverged(message):
        return None, None, epoch_means, NonFiniteLoss(
            message, log=TrainLog(tuple(train_losses), tuple(val_losses), "max_iter"))

    tr, vl = full_losses()
    train_losses, val_losses, epoch_means = [tr], [vl], []
    best_val = vl
    best_params = {k: v.copy() for k, v in params.items()}
    epochs_since_best = 0
    stop_reason = "max_iter"
    if tr <= CONVERGE_TOL:
        stop_reason = "converged"
    else:
        lr, momentum = hp["learning_rate"], hp["momentum"]
        for epoch in range(1, hp["max_epochs"] + 1):
            perm = rng.permutation(len(X_train))
            weighted = 0.0
            for lo in range(0, len(perm), hp["batch_size"]):
                batch = perm[lo:lo + hp["batch_size"]]
                loss, grads = loss_and_grad(spec.arch, params, X_train[batch],
                                            y_train[batch])
                if not np.isfinite(loss):
                    return diverged(f"training loss diverged in epoch {epoch}")
                weighted += loss * len(batch)
                for k in params:
                    velocity[k] = momentum * velocity[k] - lr * grads[k]
                    params[k] += velocity[k]
            tr, vl = full_losses()
            if not (np.isfinite(tr) and np.isfinite(vl)):
                return diverged(f"loss non-finite after epoch {epoch}")
            epoch_means.append(weighted / len(X_train))
            train_losses.append(tr)
            val_losses.append(vl)
            if vl < best_val:
                best_val = vl
                best_params = {k: v.copy() for k, v in params.items()}
                epochs_since_best = 0
            else:
                epochs_since_best += 1
            if tr <= CONVERGE_TOL:
                stop_reason = "converged"
                break
            if epochs_since_best >= hp["patience"]:
                stop_reason = "early_stop"
                break
    log = TrainLog(tuple(train_losses), tuple(val_losses), stop_reason)
    return best_params, log, epoch_means, None


def _assert_log_matches_oracle(log, oracle_log, epoch_means):
    assert log.stopped_at == oracle_log.stopped_at
    assert log.stop_reason == oracle_log.stop_reason
    assert np.array_equal(bits(log.val_loss), bits(oracle_log.val_loss))
    assert bits(log.train_loss[0]) == bits(oracle_log.train_loss[0])
    assert len(log.train_loss) == len(epoch_means) + 1
    assert np.array_equal(bits(log.train_loss[1:]), bits(epoch_means))


def _check_against_oracle(spec, X, y, X_val, y_val, init=None):
    params, log = train_network(spec, X, y, X_val, y_val, init=init)
    o_params, o_log, epoch_means, error = _oracle_train_network(
        spec, X, y, X_val, y_val, init=init)
    assert error is None
    assert params.keys() == o_params.keys()
    for k in params:
        assert np.array_equal(bits(params[k]), bits(o_params[k])), k
    _assert_log_matches_oracle(log, o_log, epoch_means)
    return params, log


@pytest.mark.parametrize("arch", ["recurrent", "tcn"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_epoch_loss_from_batches_matches_oracle(arch, seed):
    X, y = _toy_data(seed=seed, n=96)
    spec = ModelSpec(arch, ("a", "b", "c"), h=3, task="nowcast",
                     hyperparams={**HPS[arch], "max_epochs": 5, "patience": 2,
                                  "learning_rate": 5e-3, "batch_size": 16},
                     seed=seed)
    _check_against_oracle(spec, X, y, X[:24], y[:24])


@pytest.mark.parametrize("arch,T", SHORT_WINDOWS)
def test_short_window_training_matches_oracle(arch, T):
    X, y = _toy_data(seed=8, n=61, T=T)
    spec = ModelSpec(arch, ("a", "b", "c"), h=0, task="nowcast",
                     hyperparams={**HPS[arch], "max_epochs": 4, "patience": 10,
                                  "learning_rate": 5e-3, "batch_size": 16},
                     seed=5)
    _check_against_oracle(spec, X, y, X[:12], y[:12])


@pytest.mark.parametrize("arch", ["recurrent", "tcn"])
def test_early_stop_with_patience_one_matches_oracle(arch):
    X, y = _toy_data(seed=5)
    spec = ModelSpec(arch, ("a", "b", "c"), h=3, task="nowcast",
                     hyperparams={**HPS[arch], "max_epochs": 60, "patience": 1,
                                  "learning_rate": 0.2, "batch_size": 8},
                     seed=2)
    _, log = _check_against_oracle(spec, X, y, X[:16], y[:16])
    assert log.stop_reason == "early_stop"


@pytest.mark.parametrize("arch", ["recurrent", "tcn"])
def test_max_iter_run_with_ragged_last_batch_matches_oracle(arch):
    X, y = _toy_data(seed=6, n=61)  # 61 rows: batches of 16, 16, 16 and 13
    spec = ModelSpec(arch, ("a", "b", "c"), h=3, task="nowcast",
                     hyperparams={**HPS[arch], "max_epochs": 4, "patience": 10,
                                  "learning_rate": 5e-3, "batch_size": 16},
                     seed=4)
    _, log = _check_against_oracle(spec, X, y, X[:12], y[:12])
    assert log.stop_reason == "max_iter" and log.stopped_at == 4


def test_diverging_fit_log_matches_oracle():
    X, y = _toy_data(seed=4)
    spec = ModelSpec("recurrent", ("a", "b", "c"), h=3, task="nowcast",
                     hyperparams={"hidden": 8, "learning_rate": 10.0,
                                  "momentum": 0.9, "max_epochs": 400,
                                  "patience": 400, "batch_size": 4},
                     seed=0)
    args = (spec, X, y * 1e120, X[:8], y[:8] * 1e120)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLoss) as exc_info:
            train_network(*args)
        _, _, epoch_means, error = _oracle_train_network(*args)
    assert isinstance(error, NonFiniteLoss)
    assert str(exc_info.value) == str(error)
    _assert_log_matches_oracle(exc_info.value.log, error.log, epoch_means)
