"""Single-layer gated memory cell (LSTM-style) with hand-derived BPTT.

Gates are packed row-wise into one input matrix, one recurrence matrix and
one bias, ordered [input; forget; output; candidate]. The prediction is a
linear head on the final hidden state. All arithmetic is float64 so the
gradients can be verified against central finite differences.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp(-|z|) is exp(-z) for z >= 0
    and exp(z) below, so both branches are the usual stable forms."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def init_params(n_in: int, seq_len: int, hp: dict, rng: np.random.Generator) -> dict:
    """Uniform +-1/sqrt(fan_in) weights, zero biases; creation order is fixed."""
    H = hp["hidden"]
    sx = 1.0 / np.sqrt(n_in)
    sh = 1.0 / np.sqrt(H)
    return {
        "Wx": rng.uniform(-sx, sx, size=(4 * H, n_in)),
        "Wh": rng.uniform(-sh, sh, size=(4 * H, H)),
        "b": np.zeros(4 * H),
        "head_w": rng.uniform(-sh, sh, size=H),
        "head_b": np.zeros(1),
    }


def forward(params: dict, X: np.ndarray):
    """X: (B, T, n_in) -> predictions (B,) plus the cache for backward."""
    B, T, _ = X.shape
    H = params["Wh"].shape[1]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    steps = []
    for t in range(T):
        x_t = X[:, t, :]
        z = x_t @ params["Wx"].T + h @ params["Wh"].T + params["b"]
        gates = _sigmoid(z[:, :3 * H])
        i, f, o = gates[:, :H], gates[:, H:2 * H], gates[:, 2 * H:]
        g = np.tanh(z[:, 3 * H:])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        steps.append({"x": x_t, "h_prev": h, "c_prev": c,
                      "i": i, "f": f, "o": o, "g": g, "tc": tc})
        h, c = h_new, c_new
    yhat = h @ params["head_w"] + params["head_b"][0]
    return yhat, {"steps": steps, "h_last": h, "X_shape": X.shape}


def backward(params: dict, cache: dict, dyhat: np.ndarray) -> dict:
    B, T, n_in = cache["X_shape"]
    H = params["Wh"].shape[1]
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    grads["head_w"] = cache["h_last"].T @ dyhat
    grads["head_b"] = np.array([dyhat.sum()])

    dh = np.outer(dyhat, params["head_w"])
    dc = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        s = cache["steps"][t]
        i, f, o, g, tc = s["i"], s["f"], s["o"], s["g"], s["tc"]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc ** 2)
        di = dc * g
        df = dc * s["c_prev"]
        dg = dc * i
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            do * o * (1.0 - o),
            dg * (1.0 - g ** 2),
        ], axis=1)
        grads["Wx"] += dz.T @ s["x"]
        grads["Wh"] += dz.T @ s["h_prev"]
        grads["b"] += dz.sum(axis=0)
        dh = dz @ params["Wh"]
        dc = dc * f
    return grads
