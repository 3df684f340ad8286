"""Four learned regressors behind one train/predict contract.

Tabular archs (elastic_net, gbt) consume the window flattened row-major:
one block of channels per time step, oldest step first, with the target
history (forecasting only) appended as the last channel of each block.
Sequence archs (recurrent, tcn) consume the same layout unflattened.
Which windows a spec reads is decided once, by ``_window_rule``:
``spec_windows`` builds them with ``build_windows``, so every window a model
sees has been vetted there, and training, ``predict_batch`` and
``rollout_forecast_batch`` check the ``WindowSet`` they get against the same
rule; a rollout's windows carry one history row more per extra step.

Adding an arch means one ``ARCH_TABLE`` entry plus its defaults in
``spec.DEFAULT_HYPERPARAMS`` (and a ``spec._VALIDATORS`` check per new name).
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

import numpy as np

from ..dataset import Scaler, TimeSeriesFrame, read_file_bytes
from ..errors import EmptyWindows, SpecMismatch
from ..preprocess import WindowSet, build_windows
from . import elastic_net as _enet
from . import gbt as _gbt
from .networks import loss_and_grad, network_forward, train_network
from .spec import ARCHS, DEFAULT_HYPERPARAMS, ModelSpec, TASKS, TrainLog, TrainedModel

__all__ = [
    "ARCH_TABLE", "Arch", "ARCHS", "TASKS", "DEFAULT_HYPERPARAMS", "ModelSpec",
    "TrainLog", "TrainedModel", "spec_windows", "train_model", "predict_batch",
    "rollout_forecast_batch", "serialize", "deserialize",
    "save_model", "load_model", "loss_and_grad", "network_forward",
]

MODEL_FORMAT = "denitlab-model"
MODEL_VERSION = 1


def _window_rule(spec: ModelSpec, steps: int = 1) -> dict:
    """The ``build_windows`` arguments of the windows ``spec`` reads for
    ``steps`` one-step predictions in a row: h + steps - 1 history rows, and
    horizon 1 with target history for a forecast, horizon 0 for a nowcast."""
    return {"covariates": spec.covariates, "h": spec.h + steps - 1,
            "horizon": 1 if spec.task == "forecast" else 0,
            "with_target_history": spec.uses_target_history}


def spec_windows(spec: ModelSpec, scaled: TimeSeriesFrame, ranges,
                 steps: int = 1) -> WindowSet:
    """The windows ``spec`` reads over ``ranges``; a rollout of ``steps``
    steps from anchor t reads the window anchored at t + steps - 1."""
    return build_windows(scaled, **_window_rule(spec, steps), plan_ranges=ranges)


def _check_window_set(spec: ModelSpec, ws: WindowSet, steps: int = 1,
                      training: bool = False) -> None:
    """``ws`` holds the windows ``spec_windows`` gives for ``steps`` one-step
    predictions in a row. Only training compares the horizon, the targets the
    task learns; a prediction reads no target."""
    wrong = [f"{name} {getattr(ws, name)!r}, not {want!r}"
             for name, want in _window_rule(spec, steps).items()
             if getattr(ws, name) != want and (training or name != "horizon")]
    if wrong:
        raise SpecMismatch(f"window set does not match the {spec.task} spec: "
                           + "; ".join(wrong))


def _with_target_channel(X: np.ndarray, y_hist: np.ndarray) -> np.ndarray:
    """Covariate rows (B, T, c) with the target history (B, T) as the last channel."""
    return np.concatenate([X, y_hist[:, :, None]], axis=2)


def stack_inputs(spec: ModelSpec, ws: WindowSet) -> np.ndarray:
    """Model inputs (B, h+1, channels) of the window set."""
    if not spec.uses_target_history:
        return ws.X
    return _with_target_channel(ws.X, ws.y_hist)


def training_targets(ws: WindowSet) -> np.ndarray:
    """Next-step target for horizon windows, the anchor value for nowcasts."""
    return np.ascontiguousarray(ws.y if ws.horizon == 0 else ws.y[:, 0], dtype=float)


def _tabular(X3: np.ndarray) -> np.ndarray:
    return X3.reshape(X3.shape[0], -1)


class Arch(NamedTuple):
    """What one arch does its own way. Each function looks its worker up in its
    module at call time, so a patched ``fit_gbt`` or ``train_network`` runs."""

    fit: Callable  # (spec, X3, y, val, resolved hp) -> (parameters, TrainLog)
    predict: Callable  # (parameters, X3) -> one prediction per row
    encode: Callable  # parameters -> JSON values
    decode: Callable  # JSON values -> parameters
    needs_validation: bool  # fit gets val = validation (X3, y), else None
    search: dict  # default dimensions: list = grid, {"log_uniform": [lo, hi]}


def _fit_elastic_net(spec, X3, y, val, hp):
    w, b, log, converged = _enet.fit_elastic_net(_tabular(X3), y, **hp)
    return {"w": w, "b": b, "converged": converged}, log


def _network(name: str, search: dict) -> Arch:
    return Arch(
        fit=lambda spec, X3, y, val, hp: train_network(spec, X3, y, *val),
        predict=lambda params, X3: network_forward(name, params, X3),
        encode=lambda params: {k: v.tolist() for k, v in params.items()},
        decode=lambda blob: {k: np.array(v, dtype=float) for k, v in blob.items()},
        needs_validation=True, search=search)


ARCH_TABLE: dict[str, Arch] = {
    "elastic_net": Arch(
        fit=_fit_elastic_net,
        predict=lambda p, X3: _enet.predict_linear(p["w"], p["b"], _tabular(X3)),
        encode=lambda p: {"w": p["w"].tolist(), "b": p["b"],
                          "converged": bool(p["converged"])},
        decode=lambda blob: {"w": np.array(blob["w"], dtype=float),
                             "b": float(blob["b"]), "converged": bool(blob["converged"])},
        needs_validation=False,
        search={"alpha": {"log_uniform": [1e-4, 1e1]},
                "l1_ratio": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]}),
    "gbt": Arch(
        fit=lambda spec, X3, y, val, hp: _gbt.fit_gbt(_tabular(X3), y,
                                                      seed=spec.seed, **hp),
        predict=lambda p, X3: _gbt.predict_gbt(p, _tabular(X3)),
        encode=lambda p: {k: p[k] for k in ("init", "learning_rate", "trees")},
        decode=lambda blob: {"init": float(blob["init"]),
                             "learning_rate": float(blob["learning_rate"]),
                             "trees": blob["trees"]},
        needs_validation=False,
        search={"n_trees": [50, 100, 200, 350, 500], "max_depth": [1, 2, 3, 4, 5, 6],
                "learning_rate": {"log_uniform": [0.01, 0.3]},
                "min_samples_leaf": [1, 5, 20], "subsample": [0.7, 1.0]}),
    "recurrent": _network("recurrent", {
        "hidden": [8, 16, 32, 64], "learning_rate": {"log_uniform": [1e-4, 1e-2]},
        "batch_size": [32, 64], "max_epochs": [100], "patience": [5]}),
    "tcn": _network("tcn", {
        "hidden": [8, 16, 32, 64], "levels": [1, 2, 3], "kernel_size": [2, 3, 5],
        "learning_rate": {"log_uniform": [1e-4, 1e-2]},
        "batch_size": [32, 64], "max_epochs": [100], "patience": [5]}),
}


def train_model(spec: ModelSpec, train_windows: WindowSet,
                val_windows: WindowSet | None, scaler: Scaler
                ) -> tuple[TrainedModel, TrainLog]:
    """Fit one model on pre-scaled windows.

    Validation windows drive early stopping for the network archs and are
    ignored by the tabular ones.
    """
    for ws in (train_windows, val_windows):
        if ws is not None:
            _check_window_set(spec, ws, training=True)
    if len(train_windows) == 0:
        raise EmptyWindows("no training windows")
    arch = ARCH_TABLE[spec.arch]
    X3 = stack_inputs(spec, train_windows)
    y = training_targets(train_windows)
    val = None
    if arch.needs_validation:
        if val_windows is None or len(val_windows) == 0:
            raise EmptyWindows(f"{spec.arch} needs validation windows for early stopping")
        val = (stack_inputs(spec, val_windows), training_targets(val_windows))
    params, log = arch.fit(spec, X3, y, val, spec.resolved())
    return TrainedModel(spec=spec, parameters=params, scaler=scaler), log


def predict_batch(model: TrainedModel, ws: WindowSet) -> np.ndarray:
    """Scaled-domain predictions, one per window (deterministic).

    y_t for nowcasts, y_{t+1} for forecasts.
    """
    _check_window_set(model.spec, ws)
    return ARCH_TABLE[model.spec.arch].predict(model.parameters,
                                               stack_inputs(model.spec, ws))


def rollout_forecast_batch(model: TrainedModel, ws: WindowSet) -> np.ndarray:
    """Recursive multi-step forecasts, (windows, steps) with steps = ws.h - h + 1.

    Row i forecasts from anchor ``ws.t[i] - steps + 1``: the window set is the
    spec's one with ``steps - 1`` more history rows, so it holds the anchor's
    own history and the covariates over (t, t+steps-1], which are treated as
    known measurements. Step s reads covariate rows ``s-1 .. s+h`` of the
    window; the target history channel starts from the anchor's and is fed
    the model's own predictions. Like ``predict_batch``, this works in the
    scaled domain (``invert_target`` maps the forecasts to original units).
    """
    spec = model.spec
    if spec.task != "forecast":
        raise SpecMismatch("rollout requires a forecast-task model")
    h = spec.h
    steps = ws.h - h + 1
    _check_window_set(spec, ws, steps=max(steps, 1))  # fails if ws.h < h
    predict = ARCH_TABLE[spec.arch].predict

    y_buf = np.empty((len(ws), h + steps + 1))
    y_buf[:, :h + 1] = ws.y_hist[:, :h + 1]
    for s in range(1, steps + 1):
        inputs = _with_target_channel(ws.X[:, s - 1:s + h], y_buf[:, s - 1:h + s])
        y_buf[:, h + s] = predict(model.parameters, inputs)
    return y_buf[:, h + 1:]


# --- serialization ----------------------------------------------------------

def serialize(model: TrainedModel) -> str:
    """Versioned JSON container; float round-trip is bit-exact."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "spec": model.spec.to_dict(),
        "parameters": ARCH_TABLE[model.spec.arch].encode(model.parameters),
        "scaler": {
            "names": list(model.scaler.names),
            "mean": model.scaler.mean.tolist(),
            "std": model.scaler.std.tolist(),
            "fitted_on": [list(r) for r in model.scaler.fitted_on],
            "target_index": model.scaler.target_index,
        },
    }
    return json.dumps(doc, indent=1)


def deserialize(text: str | bytes) -> TrainedModel:
    """The model ``serialize`` wrote; text that is not one is a SpecMismatch."""
    try:
        doc = json.loads(text)
        if doc.get("format") != MODEL_FORMAT:
            raise SpecMismatch(f"not a model artifact: format={doc.get('format')!r}")
        if doc.get("version") != MODEL_VERSION:
            raise SpecMismatch(f"unsupported artifact version {doc.get('version')!r}")
        spec = ModelSpec.from_dict(doc["spec"])
        sc = doc["scaler"]
        scaler = Scaler(names=tuple(sc["names"]),
                        mean=np.array(sc["mean"], dtype=float),
                        std=np.array(sc["std"], dtype=float),
                        fitted_on=tuple(tuple(r) for r in sc["fitted_on"]),
                        target_index=int(sc["target_index"]))
        parameters = ARCH_TABLE[spec.arch].decode(doc["parameters"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise SpecMismatch(
            f"malformed model artifact: {type(exc).__name__}: {exc}") from None
    return TrainedModel(spec=spec, parameters=parameters, scaler=scaler)


def save_model(model: TrainedModel, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize(model))


def load_model(path) -> TrainedModel:
    # bytes: json decodes them, or deserialize refuses
    return deserialize(read_file_bytes(path, f"model artifact {path}"))
