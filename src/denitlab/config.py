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
from dataclasses import asdict, dataclass, field
from importlib import metadata
from typing import Any

import yaml

from .anomaly import AnomalyParams
from .dataset import COVARIATES, SAMPLES_PER_WEEK
from .errors import BadParams, InvalidConfig
from .hyperopt import CategoricalDim, GridDim, LogUniformDim, SearchSpace
from .models import ARCHS, TASKS
from .preprocess import CleaningParams
from .synthpilot import CarrierSchedule, CleaningSchedule, DosingParams, Fault, \
    NitrateInProfile, PressureParams, ReactionParams, SinusoidProfile, SpikyProfile, \
    SynthConfig


def _package_version() -> str:
    try:
        return metadata.version("denitlab")
    except metadata.PackageNotFoundError:
        return "unknown"


SPLITS = ("train", "validation", "test")


def _check_seeds(seeds, what: str) -> None:
    for seed in seeds:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise InvalidConfig(f"{what} must be integers, got {seed!r}")


@dataclass(frozen=True)
class FoldSettings:
    n_folds: int = 4
    train_block: int = 3 * SAMPLES_PER_WEEK
    val_block: int = SAMPLES_PER_WEEK
    test_fraction: float = 0.20


@dataclass(frozen=True)
class FinalSplitSettings:
    train_fraction: float = 0.72
    val_fraction: float = 0.08


@dataclass(frozen=True)
class HyperoptSettings:
    budget: int = 50
    seed: int = 0
    space: dict = field(default_factory=dict)  # per-arch dimension overrides


@dataclass(frozen=True)
class AblationSettings:
    covariates: tuple[str, ...] = COVARIATES
    h_values: tuple[int, ...] = ()
    multi_seed: bool = False      # one seed per subset unless flipped
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)

    def __post_init__(self):
        _check_seeds(self.seeds, "ablation.seeds")


@dataclass(frozen=True)
class AnomalySettings:
    peak_window: int = 49
    peak_sigma: float = 5.0
    follow_ratio: float = 0.5
    bias_window: int = 36
    bias_threshold: float = 1.0
    split: str = "test"

    def __post_init__(self):
        if self.split not in SPLITS:
            raise InvalidConfig(f"anomaly.split must be one of {'|'.join(SPLITS)}, "
                                f"got {self.split!r}")
        self.params()  # range checks at load; _build turns BadParams into InvalidConfig

    def params(self) -> AnomalyParams:
        return AnomalyParams(peak_window=self.peak_window, peak_sigma=self.peak_sigma,
                             follow_ratio=self.follow_ratio,
                             bias_window=self.bias_window,
                             bias_threshold=self.bias_threshold)


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
        for arch in self.archs:
            if arch not in ARCHS:
                raise InvalidConfig(f"unknown arch {arch!r}")
        if not self.seeds:
            raise InvalidConfig("need at least one seed")
        _check_seeds(self.seeds, "seeds")
        for arch in self.hyperparams:
            if arch not in ARCHS:
                raise InvalidConfig(f"hyperparams for unknown arch {arch!r}")

    def resolved_dict(self) -> dict:
        doc = asdict(self)
        doc["synth"] = None if self.synth is None else asdict(self.synth)
        return _plain(doc)

    def run_id(self) -> str:
        payload = json.dumps({"config": self.resolved_dict(),
                              "version": _package_version()},
                             sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _plain(obj):
    """Recursively convert tuples to lists so the manifest is pure JSON."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _build(cls, data: dict, what: str):
    if not isinstance(data, dict):
        raise InvalidConfig(f"{what} must be a mapping")
    try:
        return cls(**data)
    except (TypeError, BadParams) as exc:
        raise InvalidConfig(f"{what}: {exc}") from None


def _tupled(seq, what: str) -> tuple:
    if not isinstance(seq, (list, tuple)):
        raise InvalidConfig(f"{what} must be a list")
    return tuple(seq)


def parse_synth(data: dict) -> SynthConfig:
    data = dict(data)
    kwargs: dict[str, Any] = {}
    nested = {
        "dosing": DosingParams, "temperature": SinusoidProfile,
        "flow": SinusoidProfile, "nitrate_in": NitrateInProfile,
        "oxygen": SpikyProfile, "ammonium": SpikyProfile,
        "ortho_phosphate": SpikyProfile, "turbidity": SpikyProfile,
        "pressure": PressureParams, "carrier": CarrierSchedule,
        "cleaning": CleaningSchedule, "reaction": ReactionParams,
    }
    for key, cls in nested.items():
        if key in data:
            sub = data.pop(key)
            if key == "carrier" and "refills" in sub:
                sub = dict(sub)
                sub["refills"] = tuple(tuple(r) for r in sub["refills"])
            kwargs[key] = _build(cls, sub, f"synth.{key}")
    if "faults" in data:
        kwargs["faults"] = tuple(_build(Fault, f, "synth.faults[]")
                                 for f in data.pop("faults"))
    kwargs.update(data)
    return _build(SynthConfig, kwargs, "synth")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise InvalidConfig(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise InvalidConfig(f"config is not valid YAML: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise InvalidConfig("config root must be a mapping")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    data = dict(raw)
    kwargs: dict[str, Any] = {}
    if "synth" in data:
        kwargs["synth"] = parse_synth(data.pop("synth"))
    for key, cls in (("cleaning", CleaningParams), ("folds", FoldSettings),
                     ("final_split", FinalSplitSettings),
                     ("anomaly", AnomalySettings)):
        if key in data:
            kwargs[key] = _build(cls, data.pop(key), key)
    if "hyperopt" in data:
        sub = dict(data.pop("hyperopt"))
        sub.setdefault("space", {})
        kwargs["hyperopt"] = _build(HyperoptSettings, sub, "hyperopt")
    if "ablation" in data:
        sub = dict(data.pop("ablation"))
        for key in ("covariates", "h_values", "seeds"):
            if key in sub:
                sub[key] = _tupled(sub[key], f"ablation.{key}")
        kwargs["ablation"] = _build(AblationSettings, sub, "ablation")
    for key in ("archs", "seeds", "covariates"):
        if key in data:
            kwargs[key] = _tupled(data.pop(key), key)
    kwargs.update(data)
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise InvalidConfig(str(exc)) from None


# --- search-space defaults ---------------------------------------------------

def _default_h_candidates() -> GridDim:
    return GridDim(values=(0, 2, 5, 11, 23))


def _default_covariate_candidates(covariates: tuple[str, ...]) -> CategoricalDim:
    """Full set, every leave-one-out subset, and every singleton."""
    full = tuple(covariates)
    candidates = [full]
    if len(full) > 1:
        for i in range(len(full)):
            candidates.append(tuple(n for j, n in enumerate(full) if j != i))
    for name in full:
        candidates.append((name,))
    return CategoricalDim(values=tuple(dict.fromkeys(candidates)))


def default_dimensions(arch: str) -> dict:
    if arch == "elastic_net":
        return {"alpha": LogUniformDim(1e-4, 1e1),
                "l1_ratio": GridDim((0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                     0.6, 0.7, 0.8, 0.9, 1.0))}
    if arch == "gbt":
        return {"n_trees": GridDim((50, 100, 200, 350, 500)),
                "max_depth": GridDim((1, 2, 3, 4, 5, 6)),
                "learning_rate": LogUniformDim(0.01, 0.3),
                "min_samples_leaf": GridDim((1, 5, 20)),
                "subsample": GridDim((0.7, 1.0))}
    if arch == "recurrent":
        return {"hidden": GridDim((8, 16, 32, 64)),
                "learning_rate": LogUniformDim(1e-4, 1e-2),
                "batch_size": GridDim((32, 64)),
                "max_epochs": GridDim((100,)),
                "patience": GridDim((5,))}
    if arch == "tcn":
        return {"hidden": GridDim((8, 16, 32, 64)),
                "levels": GridDim((1, 2, 3)),
                "kernel_size": GridDim((2, 3, 5)),
                "learning_rate": LogUniformDim(1e-4, 1e-2),
                "batch_size": GridDim((32, 64)),
                "max_epochs": GridDim((100,)),
                "patience": GridDim((5,))}
    raise InvalidConfig(f"no default space for arch {arch!r}")


def _parse_dimension(name: str, value) -> Any:
    if isinstance(value, dict):
        if "grid" in value:
            return GridDim(tuple(value["grid"]))
        if "log_uniform" in value:
            lo, hi = value["log_uniform"]
            return LogUniformDim(float(lo), float(hi))
        if "choice" in value:
            vals = value["choice"]
            vals = tuple(tuple(v) if isinstance(v, (list, tuple)) else v
                         for v in vals)
            return CategoricalDim(vals)
        raise InvalidConfig(f"dimension {name!r} needs grid|log_uniform|choice")
    if isinstance(value, (list, tuple)):
        return GridDim(tuple(value))
    raise InvalidConfig(f"cannot parse dimension {name!r}: {value!r}")


def build_search_space(config: ExperimentConfig, arch: str) -> SearchSpace:
    dims = default_dimensions(arch)
    dims["h"] = _default_h_candidates()
    dims["covariates"] = _default_covariate_candidates(config.covariates)
    for name, value in config.hyperopt.space.get(arch, {}).items():
        parsed = _parse_dimension(name, value)
        if name == "covariates" and isinstance(parsed, GridDim):
            parsed = CategoricalDim(tuple(tuple(v) for v in parsed.values))
        dims[name] = parsed
    return SearchSpace(arch=arch, dimensions=dims)
