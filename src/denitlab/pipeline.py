"""Glue between frames, plans and model training.

Standardization is always fitted on the plan's training ranges only, then
applied to the whole frame; windows are built per range so they never span
a split boundary. Forecast models train on one-step-ahead windows and are
evaluated by six-step rollouts elsewhere.
"""

from __future__ import annotations

from .dataset import FoldPlan, TimeSeriesFrame, apply_scaler, fit_scaler
from .errors import EmptyWindows, NoAdmissibleWindows, NonFiniteLoss, \
    TrainingLossRose
from .evaluation import evaluate
from .models import ARCH_TABLE, ModelSpec, TrainLog, TrainedModel, spec_windows, \
    train_model
from .preprocess import CleaningMask, CleaningParams, detect_cleaning, interpolate_target
from .utils import parallel_map


def prepare_frame(frame: TimeSeriesFrame,
                  params: CleaningParams = CleaningParams()
                  ) -> tuple[TimeSeriesFrame, CleaningMask]:
    """Detect cleaning episodes from pressure and interpolate the target across them."""
    mask = detect_cleaning(frame.col("pressure_bottom"), frame.col("pressure_top"),
                           params)
    return interpolate_target(frame, mask), mask


def train_on_plan(spec: ModelSpec, frame: TimeSeriesFrame, plan: FoldPlan
                  ) -> tuple[TrainedModel, TrainLog]:
    """Standardize on the plan's train ranges, window, and fit one model."""
    scaler = fit_scaler(frame, plan.train)
    scaled = apply_scaler(frame, scaler)
    train_ws = spec_windows(spec, scaled, plan.train)
    val_ws = None
    if ARCH_TABLE[spec.arch].needs_validation:
        try:
            val_ws = spec_windows(spec, scaled, plan.validation)
        except NoAdmissibleWindows:
            raise NoAdmissibleWindows(
                f"validation ranges admit no windows for h={spec.h}") from None
    return train_model(spec, train_ws, val_ws, scaler)


def score_grid(frame: TimeSeriesFrame, tasks, splits, jobs: int = 1
               ) -> list[tuple[float, ...] | None]:
    """Train each (spec, plan) task, then its original-unit MSE on each split.

    Gives one entry per task, in task order whatever ``jobs``: a tuple of MSEs
    in ``splits`` order. This is the one place a trial's failure is decided:
    a training that diverges or finds no windows gives None, so a search or
    sweep can score it and go on; any other error propagates.
    """
    def score(task):
        spec, plan = task
        try:
            model, _ = train_on_plan(spec, frame, plan)
            return tuple(evaluate(model, frame, plan, spec.task, split=split).mse
                         for split in splits)
        except (NonFiniteLoss, TrainingLossRose, NoAdmissibleWindows, EmptyWindows):
            return None

    return parallel_map(score, tasks, jobs=jobs)
