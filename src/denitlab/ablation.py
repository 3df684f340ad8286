"""Exhaustive covariate-subset sweep with importance summaries, plus the
input-history-length sweep.

Every non-empty subset of the candidate covariates gets one model, trained on
the final split with the base spec's (typically optimized) hyperparameters
held fixed. The empty subset is not fitted as an intercept-only model, so it
contributes to neither side of the with/without-covariate comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import FoldPlan, TimeSeriesFrame
from .errors import EmptyTable, GuardrailExceeded
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


@dataclass(frozen=True)
class CovariateImportance:
    name: str
    mean_mse_with: float
    mean_mse_without: float
    n_with: int
    n_without: int
    top_k_prevalence: float


@dataclass(frozen=True)
class ImportanceSummary:
    k: int
    per_covariate: tuple[CovariateImportance, ...]

    def to_json(self) -> str:
        return json.dumps({
            "top_k": self.k,
            "covariates": {
                c.name: {
                    "mean_mse_with": c.mean_mse_with,
                    "mean_mse_without": c.mean_mse_without,
                    "n_with": c.n_with,
                    "n_without": c.n_without,
                    "top_k_prevalence": c.top_k_prevalence,
                } for c in self.per_covariate
            },
        }, indent=2)


def _subset(names: tuple[str, ...], mask: int) -> tuple[str, ...]:
    return tuple(n for i, n in enumerate(names) if mask >> i & 1)


def covariate_sweep(base_spec: ModelSpec, covariate_names, frame: TimeSeriesFrame,
                    plan: FoldPlan, seeds: tuple[int, ...] = (),
                    jobs: int = 1) -> AblationTable:
    """Train one model per non-empty covariate subset and seed; deterministic
    per (subset, seed). A row holds its seeds' mean scores, or none if any
    of its trainings failed. Empty ``seeds`` trains the base spec's seed."""
    names = tuple(covariate_names)
    if len(names) > MAX_SWEEP_COVARIATES:
        raise GuardrailExceeded(
            f"{len(names)} covariates would need {2 ** len(names)} trainings")
    if len(set(names)) != len(names):
        raise GuardrailExceeded("duplicate covariate names")
    seeds = tuple(seeds) or (base_spec.seed,)

    masks = range(1, 2 ** len(names))
    tasks = [(replace(base_spec, covariates=_subset(names, m), seed=seed), plan)
             for m in masks for seed in seeds]
    scores = score_grid(frame, tasks, ("validation", "test"), jobs=jobs)

    rows = []
    k = len(seeds)
    for i, mask in enumerate(masks):
        runs = scores[i * k:(i + 1) * k]
        if None in runs:
            row = (None, None)
        else:  # the seed mean, summed in seed order
            row = (sum(s[0] for s in runs) / k, sum(s[1] for s in runs) / k)
        rows.append(AblationRow(mask, _subset(names, mask), *row))
    return AblationTable(covariate_names=names, rows=tuple(rows))


def importance(table: AblationTable, k: int | None = None) -> ImportanceSummary:
    """With/without mean MSE per covariate and prevalence among the top ~5%."""
    scored = table.scored_rows()
    if not scored:
        raise EmptyTable("no scored rows")
    if k is None:
        k = math.ceil(0.05 * len(scored))
    k = min(k, len(scored))
    by_score = sorted(scored, key=lambda r: (r.test_mse, r.bitmask))
    top = by_score[:k]

    summaries = []
    for i, name in enumerate(table.covariate_names):
        with_rows = [r for r in scored if r.bitmask >> i & 1]
        without_rows = [r for r in scored if not r.bitmask >> i & 1]
        mean_with = float(np.mean([r.test_mse for r in with_rows])) \
            if with_rows else math.nan
        mean_without = float(np.mean([r.test_mse for r in without_rows])) \
            if without_rows else math.nan
        prevalence = sum(1 for r in top if r.bitmask >> i & 1) / k
        summaries.append(CovariateImportance(
            name=name, mean_mse_with=mean_with, mean_mse_without=mean_without,
            n_with=len(with_rows), n_without=len(without_rows),
            top_k_prevalence=prevalence))
    return ImportanceSummary(k=k, per_covariate=tuple(summaries))


def history_sweep(base_spec: ModelSpec, h_values, frame: TimeSeriesFrame,
                  plan: FoldPlan, jobs: int = 1) -> list[tuple[int, float | None]]:
    """One model per history length, everything else fixed; absent rows are None."""
    h_values = [int(h) for h in h_values]
    scores = score_grid(frame, [(replace(base_spec, h=h), plan) for h in h_values],
                        ("test",), jobs=jobs)
    return [(h, None if s is None else s[0]) for h, s in zip(h_values, scores)]
