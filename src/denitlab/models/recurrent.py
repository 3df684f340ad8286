"""Single-layer gated memory cell (LSTM-style) with hand-derived BPTT.

Gates are packed row-wise into one input matrix, one recurrence matrix and
one bias, ordered [input; forget; output; candidate]. The prediction is a
linear head on the final hidden state. All arithmetic is float64 so the
gradients can be verified against central finite differences.

The input product does not depend on the state, so it is taken once for all
steps: the window is laid out time-major, ``(T*B, n_in)``, and
``X Wx^T + b`` is one matrix product before the time loop (Appleyard,
Kocisky & Blunsom, 2016). The loop then adds only ``h Wh^T``, which it skips
at step 0, as it skips ``f * c``: the state before the first step is zero.
After the backward loop the ``Wx``, ``Wh`` and ``b`` gradients are one
product or sum each over all steps.

Layout. The matrix products see the packed layout: each gives a row of 4H
values per window, and the backward hands them the packed ``(T, B, 4H)``
gate gradients. The elementwise work sees gate-major blocks instead. Each
step copies its packed pre-activations once into ``gates[t]``, a ``(4, B,
H)`` block of the ``(T, 4, B, H)`` cache, so the logistic runs once over
the contiguous ``(3, B, H)`` block of i, f and o and every later operation
reads whole ``(B, H)`` blocks, not strided column slices. Adding ``h Wh^T``
to the packed row and then copying costs less than adding it through the
transposed view. The backward forms a step's four gate gradients in one
gate-major ``(4, B, H)`` buffer, three of them in one stacked product, and
copies them into their slots of the packed array in one assignment; the
factors that do not depend on the state gradients (1 - tanh(c)^2, 1 - sigma
and 1 - g^2) are taken for all steps before the loop.

The bits are those of the strided cell. No matrix product changes its
operands or their layout (OpenBLAS gives other bits for the transposed
product at some sizes). Every elementwise value goes through the same
operations in the same order: ``a += b`` computes a + b, a copy moves bits,
and IEEE addition and multiplication commute. The logistic without ``where``
equals the two-branch form bit for bit but for the sign of a NaN (see
``_sigmoid``). The tests keep the strided cell as an oracle and compare
predictions and every gradient.

At batch 64, window 3, 6 inputs and hidden 8 this took a forward from 92 to
83 us and a backward from 100 to 74 us; a 512-row forward went from 669 to
436 us, and a 512-row forward of window 13 at hidden 32 from 11.2 to 7.2 ms
(2-core Xeon, one BLAS thread, min of repeats).
"""

from __future__ import annotations

import numpy as np


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow, ``exp(min(z, 0)) / (1 + exp(-|z|))``.

    For z >= 0 the numerator is exp(+-0) = 1 exactly and for z < 0 it is
    exp(z) = exp(-|z|), so this is bit for bit the usual stable pair
    1 / (1 + e) and e / (1 + e) with e = exp(-|z|), with no ``where``. Only a
    NaN differs, in its sign bit: it keeps its own, where ``-|z|`` made it
    negative. The denominator is built before ``out`` is written, so ``out``
    may be ``z``.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    s = np.minimum(z, 0.0, out=out)
    np.exp(s, out=s)
    s /= e
    return s


def init_params(n_in: int, hp: dict, rng: np.random.Generator) -> dict:
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
    B, T, n_in = X.shape
    H = params["Wh"].shape[1]
    Xt = X.transpose(1, 0, 2).reshape(T * B, n_in)
    zx = (Xt @ params["Wx"].T).reshape(T, B, 4 * H)
    zx += params["b"]
    gates = np.empty((T, 4, B, H))  # gates[t, k]: gate k's (B, H) block at step t
    cs, tcs, hs = np.empty((3, T, B, H))
    for t in range(T):
        if t:  # the state before step 0 is zero
            zx[t] += hs[t - 1] @ params["Wh"].T
        z = gates[t]
        z[...] = zx[t].reshape(B, 4, H).transpose(1, 0, 2)
        _sigmoid(z[:3], out=z[:3])
        np.tanh(z[3], out=z[3])
        i, f, o, g = z
        np.multiply(i, g, out=cs[t])
        if t:
            cs[t] += f * cs[t - 1]
        np.tanh(cs[t], out=tcs[t])
        np.multiply(o, tcs[t], out=hs[t])
    yhat = hs[-1] @ params["head_w"] + params["head_b"][0]
    return yhat, {"gates": gates, "cs": cs, "tcs": tcs, "Xt": Xt, "hs": hs}


def backward(params: dict, cache: dict, dyhat: np.ndarray) -> dict:
    hs, cs, tcs, gates = cache["hs"], cache["cs"], cache["tcs"], cache["gates"]
    T, B, H = hs.shape
    grads = {"head_w": hs[-1].T @ dyhat, "head_b": np.array([dyhat.sum()])}

    # the factors that do not depend on the state gradients, for all steps at
    # once: 1 - tanh(c)^2, 1 - sigma of i, f and o, and 1 - g^2
    d_tanh_c = np.square(tcs)
    np.subtract(1.0, d_tanh_c, out=d_tanh_c)
    d_sigma = np.subtract(1.0, gates[:, :3])
    d_tanh_g = np.square(gates[:, 3])
    np.subtract(1.0, d_tanh_g, out=d_tanh_g)

    dZ = np.empty((T, B, 4 * H))
    dgates = np.empty((4, B, H))  # one step's gate gradients, gate-major
    dh = np.outer(dyhat, params["head_w"])
    dc = None
    for t in range(T - 1, -1, -1):
        i, f, o, g = gates[t]
        dc_t = dh * o
        dc_t *= d_tanh_c[t]
        dc = dc_t if dc is None else np.add(dc, dc_t, out=dc)
        # dc * g * i * (1 - i), dc * c_prev * f * (1 - f), dh * tc * o * (1 - o)
        np.multiply(dc, g, out=dgates[0])
        if t:
            np.multiply(dc, cs[t - 1], out=dgates[1])
        else:
            dgates[1] = 0.0  # the state before step 0 is zero
        np.multiply(dh, tcs[t], out=dgates[2])
        dgates[:3] *= gates[t, :3]
        dgates[:3] *= d_sigma[t]
        if not t:
            dgates[1] = 0.0  # 0 * f * (1 - f) is NaN where f is
        # dc * i * (1 - g^2)
        np.multiply(dc, i, out=dgates[3])
        dgates[3] *= d_tanh_g[t]
        dZ[t].reshape(B, 4, H)[...] = dgates.transpose(1, 0, 2)
        if t:
            dh = dZ[t] @ params["Wh"]
            dc *= f
    dZ2 = dZ.reshape(T * B, 4 * H)
    grads["Wx"] = dZ2.T @ cache["Xt"]
    # step 0 has no Wh term: the state before it is zero
    grads["Wh"] = dZ2[B:].T @ hs[:-1].reshape((T - 1) * B, H)
    grads["b"] = dZ2.sum(axis=0)
    return grads
