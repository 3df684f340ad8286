"""Seeded random search over hyperparameters, scored by mean validation MSE
across the blocked cross-validation folds.

Random search keeps trials independent (hence trivially parallel) and makes
the whole procedure a pure function of (space, data, seed). Trials that
fail (``pipeline.score_grid`` gives None) score +inf instead of aborting
the search. The winning spec is then retrained once on the final 72/8 split,
early-stopped on its validation range, by the CLI ``train`` command with
``use_best_specs``; that model is what gets evaluated on test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .dataset import FoldPlan, TimeSeriesFrame
from .errors import AllTrialsFailed, InvalidConfig
from .evaluation import replicate_mean
from .models import ModelSpec
# perfbench/test_spans.py checks that the tracer patches hyperopt.train_on_plan
from .pipeline import score_grid, train_on_plan  # noqa: F401


@dataclass(frozen=True)
class HyperoptSettings:
    """:func:`search`'s budget and seed, and per-arch search-space overrides."""

    budget: int = 50
    seed: int = 0
    space: dict = field(default_factory=dict)  # arch -> dimension overrides

    def __post_init__(self):
        if self.budget < 1:
            raise InvalidConfig("hyperopt.budget must be >= 1")
        if self.seed < 0:
            raise InvalidConfig(f"hyperopt.seed must be an integer >= 0, got {self.seed}")


@dataclass(frozen=True)
class GridDim:
    """A finite set of candidate values, drawn uniformly."""

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise InvalidConfig("empty grid dimension")

    def sample(self, rng: np.random.Generator):
        return self.values[int(rng.integers(len(self.values)))]


# perfbench/ imports this name; choice dimensions are plain grids
CategoricalDim = GridDim


@dataclass(frozen=True)
class LogUniformDim:
    lo: float
    hi: float

    def __post_init__(self):
        if not 0 < self.lo <= self.hi < math.inf:
            raise InvalidConfig(f"log-uniform range [{self.lo}, {self.hi}] invalid")

    def sample(self, rng: np.random.Generator):
        return float(np.exp(rng.uniform(math.log(self.lo), math.log(self.hi))))


@dataclass(frozen=True)
class SearchSpace:
    """Per-arch dimensions; must include ``h`` and ``covariates`` candidates."""

    arch: str
    dimensions: dict[str, Any]

    def __post_init__(self):
        for required in ("h", "covariates"):
            if required not in self.dimensions:
                raise InvalidConfig(f"search space lacks the {required!r} dimension")

    def sample_spec(self, rng: np.random.Generator, task: str) -> ModelSpec:
        drawn = {name: dim.sample(rng) for name, dim in self.dimensions.items()}
        h = int(drawn.pop("h"))
        covariates = tuple(drawn.pop("covariates"))
        seed = int(rng.integers(2 ** 63))
        return ModelSpec(arch=self.arch, covariates=covariates, h=h, task=task,
                         hyperparams=drawn, seed=seed)


@dataclass(frozen=True)
class Trial:
    index: int
    spec: ModelSpec
    fold_val_mse: tuple[float, ...]

    @property
    def mean_val_mse(self) -> float:
        return replicate_mean(self.fold_val_mse)


def search(space: SearchSpace, frame: TimeSeriesFrame, folds: list[FoldPlan],
           task: str, budget: int = HyperoptSettings.budget,
           search_seed: int = HyperoptSettings.seed,
           jobs: int = 1) -> tuple[ModelSpec, list[Trial]]:
    """Sample ``budget`` specs, score each on every fold, return the winner.

    Ties break on the earliest trial index; identical (space, seed, data)
    reruns reproduce the identical trial list.
    """
    HyperoptSettings(budget, search_seed)  # refuses a budget < 1 or a seed < 0
    rng = np.random.default_rng(search_seed)
    specs = [space.sample_spec(rng, task) for _ in range(budget)]

    cells = score_grid(frame, [[(spec, fold) for fold in folds] for spec in specs],
                       ("validation",), jobs=jobs)
    trials = [Trial(index=i, spec=spec,
                    fold_val_mse=tuple(math.inf if s is None else s[0] for s in runs))
              for i, (spec, runs) in enumerate(zip(specs, cells))]

    best = min(trials, key=lambda t: t.mean_val_mse)
    if not math.isfinite(best.mean_val_mse):
        raise AllTrialsFailed(f"all {budget} trials diverged")
    return best.spec, trials

