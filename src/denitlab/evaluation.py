"""Metric computation on the original scale, split-wise evaluation, and
multi-seed aggregation.

Models predict in the scaled domain and are inverted before scoring;
baselines never leave original units. Forecast scores pool all
``FORECAST_HORIZON`` steps of every admissible anchor into a single mean.
Every scored window comes from ``build_windows``, so one rule decides which
anchors a row scores; a model's are ``models.spec_windows``, as in training.
Models and baselines alike give one ``(anchors, pred, actual)`` triple: one
pair per anchor for a nowcast, each anchor's steps, anchor-major, for a
forecast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import Baseline
from .dataset import FORECAST_HORIZON, SPLITS, TARGET, FoldPlan, TimeSeriesFrame, \
    apply_scaler, invert_target
from .errors import EmptyReports, LengthMismatch, MixedGroups, NoAdmissibleWindows, \
    NonFinite, SpecMismatch
from .models import TrainedModel, predict_batch, rollout_forecast_batch, spec_windows
from .preprocess import build_windows


def _checked_pair(pred, actual) -> tuple[np.ndarray, np.ndarray]:
    """Both as float arrays of one non-empty shape, every value finite."""
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape or pred.size == 0:
        raise LengthMismatch(f"{pred.shape} vs {actual.shape}")
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(actual))):
        raise NonFinite("metrics require finite values")
    return pred, actual


def mse(pred, actual) -> float:
    pred, actual = _checked_pair(pred, actual)
    return float(((pred - actual) ** 2).mean())


def mae(pred, actual) -> float:
    pred, actual = _checked_pair(pred, actual)
    return float(np.abs(pred - actual).mean())


@dataclass(frozen=True)
class EvalReport:
    """One (model, task, split, seed) score row, original units."""

    model_id: str
    task: str
    split: str
    mse: float
    mae: float
    n_points: int
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.mse) and np.isfinite(self.mae)):
            raise ValueError(f"non-finite metric: mse {self.mse!r}, mae {self.mae!r}")
        if self.mse < 0 or self.mae < 0:
            raise ValueError("negative metric")
        if self.n_points < 0:
            raise ValueError(f"negative n_points {self.n_points}")
        if self.mae ** 2 > self.mse * (1 + 1e-9):
            raise ValueError(f"mae^2 {self.mae**2} exceeds mse {self.mse}")


@dataclass(frozen=True)
class SeedAggregate:
    model_id: str
    task: str
    split: str
    mean_mse: float
    std_mse: float
    mean_mae: float
    std_mae: float
    n_seeds: int


def _split_ranges(plan: FoldPlan, split: str):
    if split not in SPLITS:
        raise SpecMismatch(f"unknown split {split!r}")
    return getattr(plan, split)


def model_pairs(model: TrainedModel, frame: TimeSeriesFrame, ranges):
    """(anchors, pred, actual) in original units for one model over the ranges.

    A forecast reads the windows of ``FORECAST_HORIZON`` steps in a row: the
    one anchored at t + FORECAST_HORIZON - 1 spans [t-h, t+FORECAST_HORIZON],
    the rollout's history, future covariates and truth, vetted by one rule.
    """
    spec = model.spec
    scaler = model.scaler
    forecast = spec.task == "forecast"
    steps = FORECAST_HORIZON if forecast else 1
    try:
        ws = spec_windows(spec, apply_scaler(frame, scaler), ranges, steps)
    except NoAdmissibleWindows:
        if not forecast:
            raise
        raise NoAdmissibleWindows(f"no admissible forecast anchors (h={spec.h}, "
                                  f"horizon={FORECAST_HORIZON})") from None
    anchors = ws.t - (steps - 1)
    y = frame.col(TARGET)
    if not forecast:
        return anchors, invert_target(scaler, predict_batch(model, ws)), y[anchors]
    preds = invert_target(scaler, rollout_forecast_batch(model, ws))
    future = anchors[:, None] + np.arange(1, FORECAST_HORIZON + 1)
    return anchors, preds.ravel(), y[future].ravel()


def _baseline_pairs(baseline: Baseline, frame: TimeSeriesFrame, plan: FoldPlan,
                    split: str, task: str):
    """(anchors, pred, actual) in original units for one baseline over a split.

    The windows are those of ``build_windows`` with no covariates and the
    last ``history_needed`` target rows as history; the truth is the anchor
    itself (nowcast) or the ``FORECAST_HORIZON`` following rows (forecast).
    """
    if task not in baseline.tasks:
        raise SpecMismatch(f"{baseline.name} cannot score a {task}")
    ws = build_windows(frame, (), baseline.history_needed - 1,
                       0 if task == "nowcast" else FORECAST_HORIZON,
                       with_target_history=True, plan_ranges=_split_ranges(plan, split))
    preds = baseline.predict(frame.col(TARGET), plan.train, ws)
    return ws.t, np.ravel(preds), ws.y.ravel()


def evaluate(predictor, frame: TimeSeriesFrame, plan: FoldPlan, task: str,
             split: str = "test") -> EvalReport:
    """Score a TrainedModel or a Baseline row on one split, original units.

    A baseline's ``model_id`` is its report name and its seed is 0.
    """
    if isinstance(predictor, TrainedModel):
        if predictor.spec.task != task:
            raise SpecMismatch(f"model trained for {predictor.spec.task}, asked {task}")
        _, preds, actual = model_pairs(predictor, frame, _split_ranges(plan, split))
        model_id = predictor.spec.arch
        seed = predictor.spec.seed
    elif isinstance(predictor, Baseline):
        _, preds, actual = _baseline_pairs(predictor, frame, plan, split, task)
        model_id = predictor.name
        seed = 0
    else:
        raise SpecMismatch(f"cannot evaluate {type(predictor).__name__}")
    return EvalReport(model_id=model_id, task=task, split=split,
                      mse=mse(preds, actual), mae=mae(preds, actual),
                      n_points=len(preds), seed=seed)


def forecast_horizon_breakdown(model: TrainedModel, frame: TimeSeriesFrame,
                               plan: FoldPlan) -> list[float]:
    """Per-step test MSE over the same anchors the pooled forecast metric uses."""
    _, preds, actual = model_pairs(model, frame, plan.test)
    preds = preds.reshape(-1, FORECAST_HORIZON)
    actual = actual.reshape(-1, FORECAST_HORIZON)
    return [mse(preds[:, k], actual[:, k]) for k in range(FORECAST_HORIZON)]


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    """Mean and sample (n-1) standard deviation; a run of equal values is
    that value with std 0, which the float sums need not give exactly."""
    if np.all(values == values[0]):
        return float(values[0]), 0.0
    return float(values.mean()), float(values.std(ddof=1))


def aggregate_seeds(reports: list[EvalReport]) -> SeedAggregate:
    """Mean and sample (n-1) standard deviation across seeds; std 0 for one."""
    if not reports:
        raise EmptyReports("nothing to aggregate")
    first = reports[0]
    for r in reports[1:]:
        if (r.model_id, r.task, r.split) != (first.model_id, first.task, first.split):
            raise MixedGroups(f"{r.model_id}/{r.task}/{r.split} mixed with "
                              f"{first.model_id}/{first.task}/{first.split}")
    mean_mse, std_mse = _mean_std(np.array([r.mse for r in reports]))
    mean_mae, std_mae = _mean_std(np.array([r.mae for r in reports]))
    return SeedAggregate(model_id=first.model_id, task=first.task,
                         split=first.split,
                         mean_mse=mean_mse, std_mse=std_mse,
                         mean_mae=mean_mae, std_mae=std_mae,
                         n_seeds=len(reports))
