"""Declarative experiment configuration.

One YAML document fully determines a run: dataset source (file path or
inline synthetic-generator config), task, architectures, hyperparameters or
search spaces, fold settings, seeds, and output directory. Every default is
echoed into the run manifest so a partial config is still reproducible, and
the run id is a hash of the fully resolved document.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from types import UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

import yaml

from . import __version__
from .anomaly import AnomalyParams
from .dataset import (
    COVARIATES, SPLITS, TARGET, FinalSplitSettings, FoldSettings, read_text,
)
from .errors import (
    BadParams, InvalidConfig, InvalidFractions, InvalidSpec, NotAFile, NotUTF8,
)
from .hyperopt import GridDim, HyperoptSettings, LogUniformDim, SearchSpace
from .models import ARCH_TABLE, ARCHS, DEFAULT_HYPERPARAMS, TASKS, ModelSpec
from .models.spec import check_hyperparams, in_range
from .preprocess import CleaningParams
from .synthpilot import SynthConfig


@dataclass(frozen=True)
class AblationSettings:
    covariates: tuple[str, ...] = COVARIATES
    h_values: tuple[int, ...] = ()
    seeds: tuple[int, ...] = ()   # empty: the base spec's seed only


@dataclass(frozen=True)
class AnomalySettings(AnomalyParams):
    split: str = "test"

    def __post_init__(self):
        if self.split not in SPLITS:
            raise InvalidConfig(f"anomaly.split must be one of {'|'.join(SPLITS)}, "
                                f"got {self.split!r}")
        super().__post_init__()  # range checks; _build turns BadParams into InvalidConfig


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "nowcast"
    archs: tuple[str, ...] = ("elastic_net",)
    seeds: tuple[int, ...] = (0,)
    covariates: tuple[str, ...] = COVARIATES
    h: int = 5
    hyperparams: dict = field(default_factory=dict)  # arch -> overrides
    dataset: str | None = None
    synth: SynthConfig | None = None
    cleaning: CleaningParams = CleaningParams()
    folds: FoldSettings = FoldSettings()
    final_split: FinalSplitSettings = FinalSplitSettings()
    hyperopt: HyperoptSettings = HyperoptSettings()
    ablation: AblationSettings = AblationSettings()
    anomaly: AnomalySettings = AnomalySettings()
    use_best_specs: bool = False
    jobs: int = 1
    out: str = "runs/experiment"

    def __post_init__(self):
        if self.task not in TASKS:
            raise InvalidConfig(f"unknown task {self.task!r}")
        if not self.archs:
            raise InvalidConfig("need at least one arch")
        for arch in self.archs:
            if arch not in ARCHS:
                raise InvalidConfig(f"unknown arch {arch!r}")
        _check_distinct(self.archs, "archs", "an arch")
        if not self.seeds:
            raise InvalidConfig("need at least one seed")
        _check_distinct(self.seeds, "seeds", "a seed")
        _check_distinct(self.ablation.seeds, "ablation.seeds", "a seed")
        _check_distinct(self.ablation.h_values, "ablation.h_values", "a history length")
        if self.jobs < 1:
            raise InvalidConfig(f"jobs must be >= 1, got {self.jobs}")
        for arch, overrides in self.hyperparams.items():
            if arch not in ARCHS:
                raise InvalidConfig(f"hyperparams for unknown arch {arch!r}")
            if not isinstance(overrides, dict):
                raise InvalidConfig(f"hyperparams.{arch} must be a mapping")
            try:
                check_hyperparams(arch, overrides)
            except InvalidSpec as exc:
                raise InvalidConfig(f"hyperparams.{arch}: {exc}") from None
        _check_covariates(self.covariates, "covariates")
        _check_covariates(self.ablation.covariates, "ablation.covariates")
        for arch in self.hyperopt.space:
            build_search_space(self, arch)  # a malformed space fails at load
        if not self.ablation.covariates:
            raise InvalidConfig("ablation.covariates names no covariate")
        # the specs the commands build, so that ModelSpec's rules fail at load
        bases = [self.base_spec(arch) for arch in self.archs]
        for what, seeds in (("seeds", self.seeds),
                            ("ablation.seeds", self.ablation.seeds)):
            for seed in seeds:  # the base spec with each seed
                try:
                    replace(bases[0], seed=seed)
                except InvalidSpec as exc:
                    raise InvalidConfig(f"{what}: {exc}") from None
        for h in self.ablation.h_values:  # the ablation base spec with each h
            try:
                replace(bases[0], covariates=self.ablation.covariates, h=h)
            except InvalidSpec as exc:
                raise InvalidConfig(f"ablation.h_values: {exc}") from None

    def base_spec(self, arch: str) -> ModelSpec:
        """The spec ``arch`` trains with, unless a best spec replaces it."""
        return ModelSpec(arch=arch, covariates=self.covariates, h=self.h,
                         task=self.task, hyperparams=dict(self.hyperparams.get(arch, {})))

    def resolved_dict(self) -> dict:
        return _plain(asdict(self))

    def run_id(self) -> str:
        payload = json.dumps({"config": self.resolved_dict(),
                              "version": __version__},
                             sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _check_distinct(values, what: str, noun: str) -> None:
    if len(set(values)) != len(values):
        raise InvalidConfig(f"{what} names {noun} twice")


def _check_covariates(names, what: str) -> None:
    """Every name a covariate column of the dataset schema, none twice."""
    for name in names:
        if name == TARGET:
            raise InvalidConfig(f"{what}: {name!r} is the target, not a covariate")
        if name not in COVARIATES:
            raise InvalidConfig(f"{what}: no covariate column {name!r}")
    _check_distinct(names, what, "a covariate")


def _plain(obj):
    """Recursively convert tuples to lists so the manifest is pure JSON."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _typed(tp, value, what: str):
    """``value`` checked against the annotation ``tp``: a dataclass is built
    from a mapping and a tuple from a list; scalars are never converted."""
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):  # X | None
        if value is None:
            return None
        (tp,) = (arg for arg in args if arg is not type(None))
        return _typed(tp, value, what)
    if is_dataclass(tp):
        return _build(tp, value, what)
    if origin is tuple:
        if not isinstance(value, list):
            raise InvalidConfig(f"{what} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(args) != len(value):
            raise InvalidConfig(f"{what} must have {len(args)} entries")
        return tuple(_typed(arg, v, f"{what}[]") for arg, v in zip(args, value))
    if tp is float and type(value) is int:
        return value
    if not isinstance(value, tp) or (isinstance(value, bool) and tp is not bool):
        raise InvalidConfig(f"{what} must be {tp.__name__}, got {value!r}")
    return value


def _build(cls, data, what: str):
    """Dataclass ``cls`` from a mapping, each field checked by ``_typed``."""
    if not isinstance(data, dict):
        raise InvalidConfig(f"{what or 'config root'} must be a mapping")
    hints = get_type_hints(cls)
    kwargs = {}
    for name, value in data.items():
        path = f"{what}.{name}" if what else str(name)
        if name not in hints:
            raise InvalidConfig(f"unknown field {path}")
        kwargs[name] = _typed(hints[name], value, path)
    try:
        return cls(**kwargs)
    except (TypeError, BadParams, InvalidFractions) as exc:
        raise InvalidConfig(f"{what or 'config'}: {exc}") from None


class _Loader(yaml.SafeLoader):
    """YAML 1.1 safe loading, plus YAML 1.2's floats written with an exponent
    and no dot (``1e-05``, ``1e+16``), which is how ``json.dumps`` writes small
    and large floats: a manifest's ``config`` then loads back as written."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def load_config(path) -> ExperimentConfig:
    try:
        raw = yaml.load(read_text(path, f"config {path}"), Loader=_Loader)
    except FileNotFoundError:
        raise InvalidConfig(f"config file not found: {path}") from None
    except (NotAFile, NotUTF8) as exc:
        raise InvalidConfig(str(exc)) from None
    except yaml.YAMLError as exc:
        raise InvalidConfig(f"config is not valid YAML: {exc}") from None
    return _build(ExperimentConfig, {} if raw is None else raw, "")


# --- search-space defaults ---------------------------------------------------

def _default_covariate_candidates(covariates: tuple[str, ...]) -> GridDim:
    """Full set, every leave-one-out subset, and every singleton."""
    full = tuple(covariates)
    candidates = [full]
    if len(full) > 1:
        for i in range(len(full)):
            candidates.append(tuple(n for j, n in enumerate(full) if j != i))
    for name in full:
        candidates.append((name,))
    return GridDim(values=tuple(dict.fromkeys(candidates)))


def _parse_dimension(name: str, value) -> Any:
    if isinstance(value, dict):
        if len(value) != 1 or next(iter(value)) not in ("grid", "choice", "log_uniform"):
            raise InvalidConfig(f"dimension {name!r} needs exactly one of "
                                f"grid|log_uniform|choice, got keys {list(value)}")
        ((kind, value),) = value.items()
        if kind == "log_uniform":
            lo, hi = _typed(tuple[float, float], value,
                            f"dimension {name!r} log_uniform")
            return LogUniformDim(float(lo), float(hi))
    if not isinstance(value, (list, tuple)):
        raise InvalidConfig(f"cannot parse dimension {name!r}: {value!r}")
    return GridDim(tuple(tuple(v) if isinstance(v, (list, tuple)) else v
                         for v in value))


def build_search_space(config: ExperimentConfig, arch: str) -> SearchSpace:
    """The arch's default dimensions, then ``h`` and ``covariates``, each
    replaced in place by a ``hyperopt.space`` override of the same name."""
    if arch not in ARCH_TABLE:
        raise InvalidConfig(f"hyperopt.space for unknown arch {arch!r}")
    space = config.hyperopt.space.get(arch, {})
    if not isinstance(space, dict):
        raise InvalidConfig(f"hyperopt.space.{arch} must be a mapping")
    dims = {name: _parse_dimension(name, value)
            for name, value in ARCH_TABLE[arch].search.items()}
    dims["h"] = GridDim(values=(0, 2, 5, 11, 23))
    dims["covariates"] = _default_covariate_candidates(config.covariates)
    for name, value in space.items():
        if name not in {"h", "covariates", *DEFAULT_HYPERPARAMS[arch]}:
            raise InvalidConfig(f"hyperopt.space.{arch}: {arch} has no "
                                f"hyperparameter {name!r}")
        dims[name] = _parse_dimension(name, value)
    for name, dim in dims.items():
        if name == "covariates":
            continue
        # a log-uniform draw is a float between the bounds
        kind, values = (("grid", dim.values) if isinstance(dim, GridDim)
                        else ("log_uniform bound", (dim.lo, dim.hi)))
        for value in values:
            if not in_range(name, value):
                raise InvalidConfig(f"hyperopt.space.{arch}.{name}: {kind} "
                                    f"{value!r} out of range")
    covariates = dims["covariates"]
    if not isinstance(covariates, GridDim) or not all(
            isinstance(c, (list, tuple)) and all(isinstance(n, str) for n in c)
            for c in covariates.values):
        raise InvalidConfig(f"hyperopt.space.{arch}.covariates candidates must be "
                            f"lists of column names")
    for candidate in covariates.values:
        _check_covariates(candidate, f"hyperopt.space.{arch}.covariates")
    return SearchSpace(arch=arch, dimensions=dims)
