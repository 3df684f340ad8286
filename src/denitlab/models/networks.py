"""Mini-batch gradient-descent trainer shared by the recurrent and tcn archs.

Plain SGD with momentum (no adaptive optimizer, keeping every gradient
auditable), seeded shuffling, and early stopping on validation loss: the
returned parameters are the snapshot with minimum validation MSE.

The training log's ``train_loss`` entry 0 is the MSE over the whole training
set before any update. Entry e >= 1 is the mean of epoch e's mini-batch
losses, each weighted by its batch size, taken while the parameters moved
(as Keras and Lightning report an epoch); ``CONVERGE_TOL`` applies to it.
Only the validation loss, which drives early stopping and the returned
snapshot, is a forward over a whole set after each epoch.

The parameters live in one contiguous vector and each parameter array the
backends see is a view into it; the momentum velocity is a second vector of
the same length. A mini-batch step gathers the gradients into one vector
with a single ``concatenate`` and updates velocity and parameters with a few
whole-vector operations, not four per parameter array. Each element goes
through the same arithmetic as in a per-array update, so the parameters are
bit-identical to it.

Whole-batch forwards (the loss before training, the per-epoch validation
loss, batch prediction, rollout) run in blocks of ``FORWARD_BLOCK_ROWS``
rows. Over all 3,133 training windows of a hyperopt fold, every temporary
of one forward is larger than glibc's 128 KiB mmap threshold, so each costs
an allocator round trip and fresh page faults; that, not arithmetic, is
where the time goes. On a 2-core Xeon with one BLAS thread, the recurrent
forward at hidden 8 took 4.0 ms in one batch and 2.5 ms in 512-row blocks;
with the process's ``MALLOC_MMAP_THRESHOLD_`` and ``MALLOC_TRIM_THRESHOLD_``
raised, the one batch ran about as fast as the blocks. Each row goes through
the same operations either way, so the predictions are bit-identical.

A tcn level's stacked-tap matrix is K times as wide as its input, so at 512
rows of window 3 it passes the threshold (144 KiB at 6 inputs and kernel 2).
Re-measured with stacked taps (3,133 windows, 6 inputs, hidden 8, min of
repeats, the same 2-core Xeon): the tcn forward took 1.24, 1.20 and 1.17 ms
in blocks of 384, 512 and 1,024 rows and 3.1 ms in one batch; the recurrent
forward 4.1, 4.3 and 4.5 ms against 7.7 ms. 512 rows stays.

Re-measured with the gate-major recurrent cell, one block size per fresh
process, min of repeats over 8 alternating rounds: the recurrent forward
took 4.27 and 4.34 ms at 384 and 512 rows (384 faster in 5 of 8 rounds) and
4.49 ms at 1,024; the tcn 1.83 and 2.03 ms (8 of 8) and 2.13 ms. The
``hyperopt_forecast`` benchmark did not follow: with 384-row blocks its
``wall_s`` was 0.274 s against 0.273 s at 512 (better in 1 of 6 alternating
50-s pairs). The allocator's history in a process, which glibc's sliding
mmap threshold carries, moves these timings more than the block size does.
512 rows stays.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import EmptyWindows, NonFiniteLoss
from . import recurrent, tcn
from .spec import ModelSpec, TrainLog

CONVERGE_TOL = 1e-12

#: Rows per block of a whole-batch forward (see the module docstring).
FORWARD_BLOCK_ROWS = 512

_BACKENDS = {"recurrent": recurrent, "tcn": tcn}


def mse_loss(yhat: np.ndarray, y: np.ndarray) -> float:
    d = yhat - y
    return float((d @ d) / len(y))


def loss_and_grad(arch: str, params: dict, X: np.ndarray, y: np.ndarray):
    """MSE over the batch and its gradient w.r.t. every parameter array."""
    backend = _BACKENDS[arch]
    yhat, cache = backend.forward(params, X)
    loss = mse_loss(yhat, y)
    dyhat = 2.0 * (yhat - y) / len(y)
    return loss, backend.backward(params, cache, dyhat)


def network_forward(arch: str, params: dict, X: np.ndarray) -> np.ndarray:
    """Predictions for every row of X, computed block by block; an empty
    batch still runs one (empty) block."""
    forward = _BACKENDS[arch].forward
    return np.concatenate([forward(params, X[lo:lo + FORWARD_BLOCK_ROWS])[0]
                           for lo in range(0, max(len(X), 1), FORWARD_BLOCK_ROWS)])


def _views(flat: np.ndarray, shapes: dict) -> dict:
    """One array per parameter, each a view into the vector ``flat``."""
    views, lo = {}, 0
    for k, shape in shapes.items():
        n = math.prod(shape)
        views[k] = flat[lo:lo + n].reshape(shape)
        lo += n
    return views


def train_network(spec: ModelSpec,
                  X_train: np.ndarray, y_train: np.ndarray,
                  X_val: np.ndarray, y_val: np.ndarray,
                  init: dict | None = None):
    """Returns ``(best_params, log)``; raises NonFiniteLoss on divergence.

    One seeded generator drives weight init then every epoch's shuffle, so a
    fixed (spec, data) pair trains to bit-identical parameters. Entry 0 of the
    log is the pre-training state; ``train_loss[e]`` for e >= 1 is epoch e's
    size-weighted mean mini-batch loss.
    """
    if len(X_train) == 0 or len(X_val) == 0:
        raise EmptyWindows("network training needs non-empty train and val windows")
    hp = spec.resolved()
    rng = np.random.default_rng(spec.seed)
    n_in = X_train.shape[2]
    backend = _BACKENDS[spec.arch]
    params = backend.init_params(n_in, hp, rng)
    if init is not None:
        for k, v in init.items():
            params[k] = np.array(v, dtype=float)
    shapes = {k: v.shape for k, v in params.items()}
    flat = np.concatenate(list(params.values()), axis=None)
    params = _views(flat, shapes)
    velocity = np.zeros_like(flat)

    tr = mse_loss(network_forward(spec.arch, params, X_train), y_train)
    vl = mse_loss(network_forward(spec.arch, params, X_val), y_val)
    train_losses, val_losses = [tr], [vl]
    best_val = vl
    best_flat = flat.copy()
    epochs_since_best = 0
    stop_reason = "max_iter"
    epoch = 0

    if tr <= CONVERGE_TOL:
        stop_reason = "converged"
    else:
        lr, momentum = hp["learning_rate"], hp["momentum"]
        for epoch in range(1, hp["max_epochs"] + 1):
            perm = rng.permutation(len(X_train))
            epoch_sse = 0.0
            for lo in range(0, len(perm), hp["batch_size"]):
                batch = perm[lo:lo + hp["batch_size"]]
                loss, grads = loss_and_grad(spec.arch, params, X_train[batch], y_train[batch])
                if not np.isfinite(loss):
                    raise NonFiniteLoss(
                        f"training loss diverged in epoch {epoch}",
                        log=TrainLog(tuple(train_losses), tuple(val_losses), "max_iter"))
                epoch_sse += loss * len(batch)
                step = np.concatenate([grads[k] for k in shapes], axis=None)
                step *= lr
                velocity *= momentum
                velocity -= step
                flat += velocity
            tr = epoch_sse / len(X_train)
            vl = mse_loss(network_forward(spec.arch, params, X_val), y_val)
            if not (np.isfinite(tr) and np.isfinite(vl)):
                raise NonFiniteLoss(
                    f"loss non-finite after epoch {epoch}",
                    log=TrainLog(tuple(train_losses), tuple(val_losses), "max_iter"))
            train_losses.append(tr)
            val_losses.append(vl)
            if vl < best_val:
                best_val = vl
                best_flat = flat.copy()
                epochs_since_best = 0
            else:
                epochs_since_best += 1
            if tr <= CONVERGE_TOL:
                stop_reason = "converged"
                break
            if epochs_since_best >= hp["patience"]:
                stop_reason = "early_stop"
                break

    log = TrainLog(train_loss=tuple(train_losses), val_loss=tuple(val_losses),
                   stop_reason=stop_reason)
    return _views(best_flat, shapes), log
