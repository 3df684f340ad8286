"""Temporal convolutional stack: dilated causal 1-D convolutions with
residual skips and a linear head on the last time step.

Level l uses dilation 2**l. Each level is one causal convolution followed by
tanh (chosen over a kinked activation so gradients admit finite-difference
verification), plus an identity skip — projected by a 1x1 convolution where
the channel count changes. Left zero-padding keeps the convolution causal.
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


def _conv_forward(x: np.ndarray, W: np.ndarray, b: np.ndarray, dilation: int) -> np.ndarray:
    """Causal dilated conv; tap k reaches back (K-1-k)*dilation steps."""
    B, T, _ = x.shape
    K = W.shape[0]
    z = np.empty((B, T, len(b)))
    z[...] = b
    for k in range(K):
        shift = (K - 1 - k) * dilation
        if shift < T:
            z[:, shift:, :] += x[:, :T - shift, :] @ W[k]
    return z


def _conv_backward(x: np.ndarray, W: np.ndarray, dilation: int, dz: np.ndarray):
    B, T, _ = x.shape
    K = W.shape[0]
    dW = np.zeros_like(W)
    dx = np.zeros_like(x)
    for k in range(K):
        shift = (K - 1 - k) * dilation
        if shift < T:
            dW[k] = np.einsum("btc,btd->cd", x[:, :T - shift, :], dz[:, shift:, :])
            dx[:, :T - shift, :] += dz[:, shift:, :] @ W[k].T
    db = dz.sum(axis=(0, 1))
    return dW, db, dx


def forward(params: dict, X: np.ndarray):
    """X: (B, T, n_in) -> predictions (B,) plus the cache for backward."""
    levels = _n_levels(params)
    x = X
    caches = []
    for level in range(levels):
        dilation = 2 ** level
        z = _conv_forward(x, params[f"conv{level}_W"], params[f"conv{level}_b"], dilation)
        a = np.tanh(z)
        proj = params.get(f"proj{level}")
        skip = x if proj is None else x @ proj
        out = a + skip
        caches.append({"x": x, "a": a})
        x = out
    yhat = x[:, -1, :] @ params["head_w"] + params["head_b"][0]
    return yhat, {"caches": caches, "top": x}


def backward(params: dict, cache: dict, dyhat: np.ndarray) -> dict:
    levels = _n_levels(params)
    grads = {}
    top = cache["top"]
    grads["head_w"] = top[:, -1, :].T @ dyhat
    grads["head_b"] = np.array([dyhat.sum()])

    dout = np.zeros_like(top)
    dout[:, -1, :] = np.outer(dyhat, params["head_w"])
    for level in range(levels - 1, -1, -1):
        c = cache["caches"][level]
        dilation = 2 ** level
        da = dout
        dz = da * (1.0 - c["a"] ** 2)
        dW, db, dx = _conv_backward(c["x"], params[f"conv{level}_W"], dilation, dz)
        grads[f"conv{level}_W"] = dW
        grads[f"conv{level}_b"] = db
        proj = params.get(f"proj{level}")
        if proj is None:
            dx += dout
        else:
            grads[f"proj{level}"] = np.einsum("btc,btd->cd", c["x"], dout)
            dx += dout @ proj.T
        dout = dx
    return grads
