"""Exhaustive covariate-subset sweep with importance summaries, plus the
input-history-length sweep.

Every non-empty subset of the candidate covariates gets one model, trained on
the final split with the base spec's (typically optimized) hyperparameters
held fixed. The empty subset is not fitted as an intercept-only model, so it
contributes to neither side of the with/without-covariate comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import FoldPlan, TimeSeriesFrame
from .errors import EmptyTable, GuardrailExceeded
from .evaluation import replicate_mean
from .models import ModelSpec
from .pipeline import score_grid

MAX_SWEEP_COVARIATES = 16


@dataclass(frozen=True)
class AblationRow:
    bitmask: int
    covariates: tuple[str, ...]
    val_mse: float | None
    test_mse: float | None

    @property
    def skipped(self) -> bool:
        return self.test_mse is None

    @property
    def note(self) -> str:
        return "training failed" if self.skipped else ""


@dataclass(frozen=True)
class AblationTable:
    """2^n - 1 rows, one per non-empty subset in bitmask order; a subset
    whose training failed has no scores and the note "training failed"."""

    covariate_names: tuple[str, ...]
    rows: tuple[AblationRow, ...]

    def scored_rows(self) -> list[AblationRow]:
        return [r for r in self.rows if not r.skipped]

    def to_csv(self, path) -> None:
        """Scored rows only (one line per trained subset)."""
        with open(path, "w") as fh:
            fh.write("bitmask,covariates,val_mse,test_mse\n")
            for r in self.scored_rows():
                names = "|".join(r.covariates)
                fh.write(f"{r.bitmask},{names},{r.val_mse!r},{r.test_mse!r}\n")


def _subset(names: tuple[str, ...], mask: int) -> tuple[str, ...]:
    return tuple(n for i, n in enumerate(names) if mask >> i & 1)


def _seed_means(specs, seeds, frame: TimeSeriesFrame, plan: FoldPlan, splits,
                jobs: int) -> list[tuple[float, ...] | None]:
    """Per spec, its MSEs on ``splits`` averaged over ``seeds`` by
    ``replicate_mean``, or None if any of its trainings failed. Empty ``seeds``
    trains each spec's own seed."""
    cells = [[(replace(spec, seed=seed), plan) for seed in tuple(seeds) or (spec.seed,)]
             for spec in specs]
    return [None if None in runs else tuple(map(replicate_mean, zip(*runs)))
            for runs in score_grid(frame, cells, splits, jobs=jobs)]


def covariate_sweep(base_spec: ModelSpec, covariate_names, frame: TimeSeriesFrame,
                    plan: FoldPlan, seeds: tuple[int, ...] = (),
                    jobs: int = 1) -> AblationTable:
    """Train one model per non-empty covariate subset and seed; deterministic
    per (subset, seed). A row holds its seeds' mean scores (``_seed_means``)."""
    names = tuple(covariate_names)
    if len(names) > MAX_SWEEP_COVARIATES:
        raise GuardrailExceeded(
            f"{len(names)} covariates would need {2 ** len(names)} trainings")
    if len(set(names)) != len(names):
        raise GuardrailExceeded("duplicate covariate names")
    masks = range(1, 2 ** len(names))
    means = _seed_means([replace(base_spec, covariates=_subset(names, m)) for m in masks],
                        seeds, frame, plan, ("validation", "test"), jobs)
    return AblationTable(covariate_names=names, rows=tuple(
        AblationRow(m, _subset(names, m), *(s or (None, None)))
        for m, s in zip(masks, means)))


def importance(table: AblationTable, k: int | None = None) -> dict:
    """The ``importance.json`` document: per covariate, the mean test MSE of the
    scored subsets with and without it, and its prevalence among the top ~5%."""
    scored = table.scored_rows()
    if not scored:
        raise EmptyTable("no scored rows")
    if k is None:
        k = math.ceil(0.05 * len(scored))
    k = min(k, len(scored))
    top = sorted(scored, key=lambda r: (r.test_mse, r.bitmask))[:k]

    covariates = {}
    for i, name in enumerate(table.covariate_names):
        with_mse = [r.test_mse for r in scored if r.bitmask >> i & 1]
        without_mse = [r.test_mse for r in scored if not r.bitmask >> i & 1]
        covariates[name] = {
            "mean_mse_with": float(np.mean(with_mse)) if with_mse else math.nan,
            "mean_mse_without": float(np.mean(without_mse)) if without_mse else math.nan,
            "n_with": len(with_mse),
            "n_without": len(without_mse),
            "top_k_prevalence": sum(1 for r in top if r.bitmask >> i & 1) / k,
        }
    return {"top_k": k, "covariates": covariates}


def history_sweep(base_spec: ModelSpec, h_values, frame: TimeSeriesFrame,
                  plan: FoldPlan, seeds: tuple[int, ...] = (),
                  jobs: int = 1) -> list[tuple[int, float | None]]:
    """One model per history length and seed, everything else fixed; a row
    holds its seeds' mean test MSE (``_seed_means``), absent rows None."""
    h_values = [int(h) for h in h_values]
    means = _seed_means([replace(base_spec, h=h) for h in h_values], seeds, frame,
                        plan, ("test",), jobs)
    return [(h, None if s is None else s[0]) for h, s in zip(h_values, means)]
