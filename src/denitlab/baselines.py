"""Deterministic reference predictors. All operate in original units.

TrainingMean is the only one that sees training data (a single statistic);
RunningMean deliberately peeks at the evaluation series itself, making it a
tough comparison rather than a deployable predictor.

Each baseline is one ``Baseline`` row: report name, the tasks it can score,
the target history it reads and its prediction. The score table's rows are
``REPORT_BASELINES``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .dataset import FORECAST_HORIZON
from .errors import EmptyTraining, InsufficientHistory


class Baseline(NamedTuple):
    """One reference predictor. ``predict`` looks its ``*_predict`` function
    up at call time, so a patched one runs."""

    name: str  # report name
    tasks: tuple[str, ...]  # the tasks it can score
    history_needed: int  # target rows, ending at the anchor, that must be valid
    predict: Callable  # (target, train ranges, windows) -> predictions


TRAINING_MEAN = Baseline("BaselineTrainingMean", ("nowcast", "forecast"), 1,
                         lambda y, train, ws: training_mean_predict(
                             np.concatenate([y[a:b] for a, b in train]), ws.y.size))
RUNNING_MEAN = Baseline("BaselineTestRunningMean", ("nowcast",), 1,
                        lambda y, train, ws: running_mean_predict(ws.y))
SEASONAL = Baseline("BaselineSeasonal", ("forecast",), FORECAST_HORIZON,
                    lambda y, train, ws: seasonal_predict(ws.y_hist, ws.horizon))


def _trend(n: int) -> Baseline:
    return Baseline(f"BaselineTrend{n}", ("forecast",), n,
                    lambda y, train, ws: trend_n_predict(ws.y_hist, n, ws.horizon))


TREND3 = _trend(3)
TREND6 = _trend(6)

#: The score table's baseline rows in report order; a task keeps those it can score.
REPORT_BASELINES = (TRAINING_MEAN, RUNNING_MEAN, SEASONAL, TREND3, TREND6)

#: The published test-set MSEs (mg²/L²) of the baselines on the pilot
#: dataset's final split, as (task, baseline, MSE) rows.
PUBLISHED_TEST_MSE = (
    ("forecast", SEASONAL, 0.51),
    ("forecast", TREND6, 0.50),
    ("forecast", TREND3, 0.73),
    ("forecast", TRAINING_MEAN, 7.16),
    ("nowcast", TRAINING_MEAN, 7.18),
    ("nowcast", RUNNING_MEAN, 4.42),
)


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
    finite = np.isfinite(observed)
    # summed in series order from +0.0, as a running total would: no -0.0
    total = np.cumsum(np.where(finite, observed, 0.0)) + 0.0
    count = np.cumsum(finite)
    preds = np.where(finite, observed, np.nan)
    past = np.flatnonzero(count[:-1]) + 1  # steps with a finite value before them
    preds[past] = total[past - 1] / count[past - 1]
    return preds


def seasonal_predict(history: np.ndarray,
                     horizon: int = FORECAST_HORIZON) -> np.ndarray:
    """The next block repeats the immediately preceding horizon-length block.

    History runs along the last axis: a (B, L) history gives (B, horizon).
    """
    history = np.asarray(history, dtype=float)
    if history.shape[-1] < horizon:
        raise InsufficientHistory(f"need {horizon} past values, have {history.shape[-1]}")
    return np.array(history[..., -horizon:])


def trend_n_predict(history: np.ndarray, n: int,
                    horizon: int = FORECAST_HORIZON) -> np.ndarray:
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
