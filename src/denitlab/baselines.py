"""Deterministic reference predictors. All operate in original units.

TrainingMean is the only one that sees training data (a single statistic);
RunningMean deliberately peeks at the evaluation series itself, making it a
tough comparison rather than a deployable predictor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyTraining, InsufficientHistory

BASELINE_KINDS = ("training_mean", "running_mean", "seasonal", "trend_n")


@dataclass(frozen=True)
class BaselineSpec:
    kind: str
    horizon: int = 6
    n: int = 6  # trend_n window only

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline {self.kind!r}")
        if self.kind == "trend_n" and self.n < 2:
            raise ValueError("trend_n needs n >= 2")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    @property
    def name(self) -> str:
        if self.kind == "trend_n":
            return f"BaselineTrend{self.n}"
        return {"training_mean": "BaselineTrainingMean",
                "running_mean": "BaselineTestRunningMean",
                "seasonal": "BaselineSeasonal"}[self.kind]

    @property
    def history_needed(self) -> int:
        """Target rows, ending at the anchor, that must be valid."""
        if self.kind == "seasonal":
            return self.horizon
        if self.kind == "trend_n":
            return self.n
        return 1


def training_mean_predict(train_targets: np.ndarray, query_count: int) -> np.ndarray:
    train_targets = np.asarray(train_targets, dtype=float)
    train_targets = train_targets[np.isfinite(train_targets)]
    if train_targets.size == 0:
        raise EmptyTraining("no finite training targets")
    return np.full(query_count, train_targets.mean())


def running_mean_predict(observed: np.ndarray) -> np.ndarray:
    """Prediction at t = mean of the values seen so far in this series.

    The first step has no past, so it self-predicts observed[0] and
    contributes one zero-error term. Missing values pass through the running
    statistic unchanged.
    """
    observed = np.asarray(observed, dtype=float)
    if observed.size == 0:
        raise EmptyTraining("empty series")
    preds = np.empty(len(observed))
    total = 0.0
    count = 0
    for t, v in enumerate(observed):
        if count == 0:
            preds[t] = v if np.isfinite(v) else np.nan
        else:
            preds[t] = total / count
        if np.isfinite(v):
            total += v
            count += 1
    return preds


def seasonal_predict(history: np.ndarray, horizon: int = 6) -> np.ndarray:
    """The next block repeats the immediately preceding horizon-length block.

    History runs along the last axis: a (B, L) history gives (B, horizon).
    """
    history = np.asarray(history, dtype=float)
    if history.shape[-1] < horizon:
        raise InsufficientHistory(f"need {horizon} past values, have {history.shape[-1]}")
    return np.array(history[..., -horizon:])


def trend_n_predict(history: np.ndarray, n: int, horizon: int = 6) -> np.ndarray:
    """Least-squares line through the last n points, extrapolated forward.

    History runs along the last axis: a (B, L) history gives (B, horizon).
    """
    history = np.asarray(history, dtype=float)
    if n < 2:
        raise InsufficientHistory("trend needs n >= 2")
    if history.shape[-1] < n:
        raise InsufficientHistory(f"need {n} past values, have {history.shape[-1]}")
    ys = history[..., -n:]
    xs = np.arange(n, dtype=float)
    x_mean = xs.mean()
    y_mean = ys.mean(axis=-1, keepdims=True)
    denom = ((xs - x_mean) ** 2).sum()
    slope = ((xs - x_mean) * (ys - y_mean)).sum(axis=-1, keepdims=True) / denom
    intercept = y_mean - slope * x_mean
    future = np.arange(n, n + horizon, dtype=float)
    return intercept + slope * future
