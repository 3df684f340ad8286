"""Model specification, trained-model container, and training log."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Any

from ..dataset import Scaler
from ..errors import InvalidSpec

TASKS = ("nowcast", "forecast")

#: Default hyperparameters per architecture. Default search ranges live in
#: ``denitlab.models.ARCH_TABLE``.
DEFAULT_HYPERPARAMS: dict[str, dict[str, Any]] = {
    "elastic_net": {
        "alpha": 1e-3,
        "l1_ratio": 0.5,
        "tol": 1e-6,
        "max_iter": 2000,
    },
    "gbt": {
        "n_trees": 100,
        "max_depth": 3,
        "learning_rate": 0.1,
        "min_samples_leaf": 5,
        "subsample": 1.0,
    },
    "recurrent": {
        "hidden": 16,
        "learning_rate": 1e-2,
        "batch_size": 32,
        "max_epochs": 100,
        "patience": 5,
        "momentum": 0.9,
    },
    "tcn": {
        "hidden": 16,
        "levels": 2,
        "kernel_size": 3,
        "learning_rate": 1e-2,
        "batch_size": 32,
        "max_epochs": 100,
        "patience": 5,
        "momentum": 0.9,
    },
}
ARCHS = tuple(DEFAULT_HYPERPARAMS)


def _is_count(value) -> bool:
    """An integer that is not a bool (``True`` is an Integral)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _count_at_least(lo: int):
    return lambda v: _is_count(v) and v >= lo


_VALIDATORS = {
    "alpha": lambda v: 0 <= v < math.inf,
    "l1_ratio": lambda v: 0 <= v <= 1,
    "tol": lambda v: 0 < v < math.inf,
    "max_iter": _count_at_least(1),
    "n_trees": _count_at_least(0),
    "max_depth": _count_at_least(1),
    "learning_rate": lambda v: 0 < v < math.inf,
    "min_samples_leaf": _count_at_least(1),
    "subsample": lambda v: 0 < v <= 1,
    "hidden": _count_at_least(1),
    "levels": _count_at_least(1),
    "kernel_size": _count_at_least(1),
    "batch_size": _count_at_least(1),
    "max_epochs": _count_at_least(1),
    "patience": _count_at_least(1),
    "momentum": lambda v: 0 <= v < 1,
    "h": _count_at_least(0),  # the history length, not a hyperparameter
}


def in_range(name: str, value) -> bool:
    """Whether ``value`` is allowed for hyperparameter ``name``, or for ``h``."""
    try:
        return bool(_VALIDATORS[name](value))
    except TypeError:  # not a number
        return False


def check_hyperparams(arch: str, hyperparams: dict[str, Any]) -> None:
    """Raise InvalidSpec at the first override ``arch`` lacks or whose value
    is out of range."""
    for name, value in hyperparams.items():
        if name not in DEFAULT_HYPERPARAMS[arch]:
            raise InvalidSpec(f"{arch} has no hyperparameter {name!r}")
        if not in_range(name, value):
            raise InvalidSpec(f"hyperparameter {name}={value!r} out of range")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture + hyperparameters + covariate subset + history length + seed.

    The unit of hyperparameter search and ablation enumeration; the seed
    fully determines every stochastic choice made while fitting.
    """

    arch: str
    covariates: tuple[str, ...]
    h: int
    task: str
    hyperparams: dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise InvalidSpec(f"unknown arch {self.arch!r}")
        if self.task not in TASKS:
            raise InvalidSpec(f"unknown task {self.task!r}")
        if not in_range("h", self.h):
            raise InvalidSpec(f"history length h must be an integer >= 0, got {self.h!r}")
        if not self.covariates and self.task == "nowcast":
            raise InvalidSpec("nowcasting with zero covariates has no inputs")
        object.__setattr__(self, "covariates", tuple(self.covariates))
        check_hyperparams(self.arch, self.hyperparams)

    def resolved(self) -> dict[str, Any]:
        """Hyperparameters with arch defaults filled in."""
        merged = dict(DEFAULT_HYPERPARAMS[self.arch])
        merged.update(self.hyperparams)
        return merged

    @property
    def uses_target_history(self) -> bool:
        return self.task == "forecast"

    def to_dict(self) -> dict:
        return {
            "arch": self.arch,
            "covariates": list(self.covariates),
            "h": self.h,
            "task": self.task,
            "hyperparams": dict(self.hyperparams),
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        return ModelSpec(arch=d["arch"], covariates=tuple(d["covariates"]),
                         h=int(d["h"]), task=d["task"],
                         hyperparams=dict(d.get("hyperparams", {})),
                         seed=int(d.get("seed", 0)))


@dataclass(frozen=True)
class TrainLog:
    """Per-iteration training (and optional validation) losses.

    Entry 0 is the state before any update; iteration i appends entry i. For
    the networks an iteration is an epoch: ``train_loss[0]`` is the loss over
    the whole training set before training, ``train_loss[e]`` the mean of
    epoch e's mini-batch losses weighted by batch size, and ``val_loss[e]``
    the validation-set loss after epoch e.
    """

    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]
    stop_reason: str  # early_stop | max_iter | converged

    def __post_init__(self):
        if self.stop_reason not in ("early_stop", "max_iter", "converged"):
            raise ValueError(f"bad stop_reason {self.stop_reason!r}")
        if self.val_loss and len(self.val_loss) != len(self.train_loss):
            raise ValueError("val_loss length differs from train_loss length")

    @property
    def stopped_at(self) -> int:
        """The last iteration run."""
        return len(self.train_loss) - 1


@dataclass(frozen=True)
class TrainedModel:
    """Fitted state behind the common predict contract.

    ``parameters`` is arch-specific; predictions are a pure function of
    (parameters, input window). ``scaler`` is the standardizer the model was
    trained under; predictions live in its scaled domain until inverted.
    """

    spec: ModelSpec
    parameters: dict[str, Any]
    scaler: Scaler
