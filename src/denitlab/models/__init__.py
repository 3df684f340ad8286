"""Four learned regressors behind one train/predict contract.

Tabular archs (elastic_net, gbt) consume the window flattened row-major:
one block of channels per time step, oldest step first, with the target
history (forecasting only) appended as the last channel of each block.
Sequence archs (recurrent, tcn) consume the same layout unflattened.
"""

from __future__ import annotations

import json

import numpy as np

from ..dataset import Scaler, TARGET, TimeSeriesFrame
from ..errors import EmptyWindows, SpecMismatch
from ..preprocess import WindowSet
from . import elastic_net as _enet
from . import gbt as _gbt
from .networks import loss_and_grad, network_forward, train_network
from .spec import ARCHS, DEFAULT_HYPERPARAMS, ModelSpec, TASKS, TrainLog, TrainedModel

__all__ = [
    "ARCHS", "TASKS", "DEFAULT_HYPERPARAMS", "ModelSpec", "TrainLog",
    "TrainedModel", "train_model", "predict_batch",
    "rollout_forecast_batch", "serialize", "deserialize",
    "save_model", "load_model", "loss_and_grad", "network_forward",
]

MODEL_FORMAT = "denitlab-model"
MODEL_VERSION = 1


def _check_window_set(spec: ModelSpec, ws: WindowSet) -> None:
    if ws.covariates != spec.covariates or ws.h != spec.h \
            or ws.with_target_history != spec.uses_target_history:
        raise SpecMismatch(
            f"window set (covariates={ws.covariates}, h={ws.h}, "
            f"y_hist={ws.with_target_history}) does not match spec "
            f"(covariates={spec.covariates}, h={spec.h}, task={spec.task})")


def stack_inputs(spec: ModelSpec, ws: WindowSet) -> np.ndarray:
    """Model inputs (B, h+1, channels); target history is the last channel."""
    if not spec.uses_target_history:
        return ws.X
    return np.concatenate([ws.X, ws.y_hist[:, :, None]], axis=2)


def training_targets(ws: WindowSet) -> np.ndarray:
    """Next-step target for horizon windows, the anchor value for nowcasts."""
    return np.ascontiguousarray(ws.y if ws.horizon == 0 else ws.y[:, 0], dtype=float)


def _tabular(X3: np.ndarray) -> np.ndarray:
    return X3.reshape(X3.shape[0], -1)


def train_model(spec: ModelSpec, train_windows: WindowSet,
                val_windows: WindowSet | None, scaler: Scaler
                ) -> tuple[TrainedModel, TrainLog]:
    """Fit one model on pre-scaled windows.

    Validation windows drive early stopping for the network archs and are
    ignored by the tabular ones.
    """
    _check_window_set(spec, train_windows)
    if len(train_windows) == 0:
        raise EmptyWindows("no training windows")
    X3 = stack_inputs(spec, train_windows)
    y = training_targets(train_windows)
    hp = spec.resolved()

    if spec.arch == "elastic_net":
        w, b, log, converged = _enet.fit_elastic_net(
            _tabular(X3), y, alpha=hp["alpha"], l1_ratio=hp["l1_ratio"],
            tol=hp["tol"], max_iter=hp["max_iter"])
        params = {"w": w, "b": b, "converged": converged}
    elif spec.arch == "gbt":
        params, log = _gbt.fit_gbt(
            _tabular(X3), y, n_trees=hp["n_trees"], max_depth=hp["max_depth"],
            learning_rate=hp["learning_rate"],
            min_samples_leaf=hp["min_samples_leaf"],
            subsample=hp["subsample"], seed=spec.seed)
    else:
        if val_windows is None or len(val_windows) == 0:
            raise EmptyWindows(f"{spec.arch} needs validation windows for early stopping")
        _check_window_set(spec, val_windows)
        Xv = stack_inputs(spec, val_windows)
        yv = training_targets(val_windows)
        params, log = train_network(spec, X3, y, Xv, yv)
    return TrainedModel(spec=spec, parameters=params, scaler=scaler), log


def predict_batch(model: TrainedModel, ws: WindowSet) -> np.ndarray:
    """Scaled-domain predictions, one per window (deterministic).

    y_t for nowcasts, y_{t+1} for forecasts.
    """
    _check_window_set(model.spec, ws)
    return _predict_stacked(model, stack_inputs(model.spec, ws))


def _predict_stacked(model: TrainedModel, X3: np.ndarray) -> np.ndarray:
    arch = model.spec.arch
    if arch == "elastic_net":
        return _enet.predict_linear(model.parameters["w"], model.parameters["b"],
                                    _tabular(X3))
    if arch == "gbt":
        return _gbt.predict_gbt(model.parameters, _tabular(X3))
    return network_forward(arch, model.parameters, X3)


def rollout_forecast_batch(model: TrainedModel, scaled: TimeSeriesFrame,
                           anchors: np.ndarray, steps: int = 6) -> np.ndarray:
    """Recursive multi-step forecasts at many anchors, (anchors, steps).

    Like ``predict_batch``, this works in the scaled domain: ``scaled`` is the
    frame standardized by the model's scaler, and the forecasts come back
    scaled (``invert_target`` maps them to original units). Covariates over
    (t, t+steps-1] are treated as known measurements; the target history
    channel is fed the model's own predictions. The caller must supply
    admissible anchors (validated spans).
    """
    spec = model.spec
    if spec.task != "forecast":
        raise SpecMismatch("rollout requires a forecast-task model")
    anchors = np.asarray(anchors, dtype=int)
    h = spec.h
    cov = scaled.values[:, [scaled.col_index(n) for n in spec.covariates]]
    y_scaled = scaled.col(TARGET)

    hist_idx = anchors[:, None] + np.arange(-h, 1)
    y_buf = np.empty((len(anchors), h + steps + 1))
    y_buf[:, :h + 1] = y_scaled[hist_idx]
    for s in range(1, steps + 1):
        row_idx = hist_idx + s - 1
        inputs = np.concatenate([cov[row_idx], y_buf[:, s - 1:h + s, None]], axis=2)
        y_buf[:, h + s] = _predict_stacked(model, inputs)
    return y_buf[:, h + 1:]


# --- serialization ----------------------------------------------------------

def _encode_params(arch: str, params: dict) -> dict:
    if arch == "elastic_net":
        return {"w": params["w"].tolist(), "b": params["b"],
                "converged": bool(params["converged"])}
    if arch == "gbt":
        return {"init": params["init"], "learning_rate": params["learning_rate"],
                "trees": params["trees"]}
    return {k: v.tolist() for k, v in params.items()}


def _decode_params(arch: str, blob: dict) -> dict:
    if arch == "elastic_net":
        return {"w": np.array(blob["w"], dtype=float), "b": float(blob["b"]),
                "converged": bool(blob["converged"])}
    if arch == "gbt":
        return {"init": float(blob["init"]),
                "learning_rate": float(blob["learning_rate"]),
                "trees": blob["trees"]}
    return {k: np.array(v, dtype=float) for k, v in blob.items()}


def serialize(model: TrainedModel) -> str:
    """Versioned JSON container; float round-trip is bit-exact."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "spec": model.spec.to_dict(),
        "parameters": _encode_params(model.spec.arch, model.parameters),
        "scaler": {
            "names": list(model.scaler.names),
            "mean": model.scaler.mean.tolist(),
            "std": model.scaler.std.tolist(),
            "fitted_on": [list(r) for r in model.scaler.fitted_on],
            "target_index": model.scaler.target_index,
        },
    }
    return json.dumps(doc, indent=1)


def deserialize(text: str) -> TrainedModel:
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
    return TrainedModel(spec=spec,
                        parameters=_decode_params(spec.arch, doc["parameters"]),
                        scaler=scaler)


def save_model(model: TrainedModel, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize(model))


def load_model(path) -> TrainedModel:
    with open(path) as fh:
        return deserialize(fh.read())
