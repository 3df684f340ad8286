"""Command-line driver wiring the modules into reproducible experiments.

Every command takes a declarative config and an output directory, writes its
artifacts idempotently (reruns produce byte-identical files), and records the
fully resolved config plus a run id in ``manifest.json`` — the one artifact
that carries a timestamp. Exit codes: 2 config error, 3 data error,
4 training failure. An OS error on the config file or the output directory
is a config error; on any other path, a data error.

Commands chained in one process (``main`` called in a loop, as the
experiment scripts do) read and clean a dataset once: the cleaned frame is
kept under the SHA-256 of the CSV's bytes, or the synth config, plus the
cleaning params, and a later command with the same key reuses it. Each
command still reads the file to hash it, so a rewritten CSV is seen. A
shell chain starts one process per command and reads once per command.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

# One BLAS thread per process, set before numpy loads: `--jobs N` forks N
# workers, and artifacts must not depend on the host's core count. A value
# the user exported wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import dataset as ds
from . import errors as err
from .ablation import covariate_sweep, history_sweep, importance
from .anomaly import detect_anomalies, events_to_json
from .baselines import REPORT_BASELINES
from .config import ExperimentConfig, build_search_space, load_config
from .evaluation import EvalReport, evaluate, forecast_horizon_breakdown, model_pairs, \
    replicate_mean, replicate_std
from .hyperopt import search
from .models import ModelSpec, load_model, save_model
from .pipeline import prepare_frame, train_on_plan
from .preprocess import segments
from .synthpilot import generate
from .utils import parallel_map

DATA_ENV = "DENITLAB_DATA"


def _write_manifest(config: ExperimentConfig, out: Path, command: str) -> None:
    manifest = {
        "command": command,
        "run_id": config.run_id(),
        "written_at": datetime.now(timezone.utc).isoformat(),
        "config": config.resolved_dict(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


#: The last cleaned frame and mask ``_load_frame`` gave, as ``(key, (frame, mask))``.
_frame_memo: tuple | None = None


def _load_frame(config: ExperimentConfig, dataset_override: str | None):
    """Source the frame (CSV path, synth config, or DENITLAB_DATA), then clean it.

    The result is kept for the next call with the same key (see the module
    docstring); a hit hands back the same read-only frame and frozen mask.
    """
    global _frame_memo
    path = dataset_override or config.dataset
    if path is None and config.synth is None:
        path = os.environ.get(DATA_ENV)
    if path is not None:
        data = ds.read_file_bytes(path, f"dataset {path}")
        key = (hashlib.sha256(data).digest(), config.cleaning)
    elif config.synth is not None:
        key = (config.synth, config.cleaning)
    else:
        raise err.InvalidConfig(
            f"no dataset: set 'dataset' or 'synth' in the config, pass --dataset, "
            f"or export {DATA_ENV}")
    if _frame_memo is None or _frame_memo[0] != key:
        if path is not None:
            frame = ds.load_csv(path, data)
        else:
            frame, _ = generate(config.synth)
        _frame_memo = (key, prepare_frame(frame, config.cleaning))
    return _frame_memo[1]


def _load_planned(config: ExperimentConfig, dataset_override: str | None):
    """The cleaned frame, its cleaning mask and the final train/val/test plan."""
    frame, mask = _load_frame(config, dataset_override)
    return frame, mask, ds.make_final_split(frame, **asdict(config.final_split))


def _arch_spec(config: ExperimentConfig, out: Path, arch: str) -> ModelSpec:
    """The spec ``arch`` trains with: its best spec under ``use_best_specs``."""
    if not config.use_best_specs:
        return config.base_spec(arch)
    best_path = out / f"best_spec_{arch}.json"
    if not best_path.exists():
        raise err.InvalidConfig(
            f"use_best_specs set but {best_path} is missing; run hyperopt first")
    try:
        base = ModelSpec.from_dict(json.load(ds.read_text(best_path)))
    except (err.NotAFile, err.NotUTF8) as exc:
        raise err.InvalidConfig(str(exc)) from None
    except (ValueError, KeyError, TypeError) as exc:
        raise err.InvalidConfig(f"{best_path} is not a model spec: "
                                f"{type(exc).__name__}: {exc}") from None
    if base.arch != arch:
        raise err.InvalidConfig(f"{best_path} holds a spec for {base.arch}, "
                                f"not {arch}")
    return replace(base, task=config.task)


def _model_specs(config: ExperimentConfig, out: Path) -> list[ModelSpec]:
    """One spec per arch and seed, arch-major."""
    return [replace(_arch_spec(config, out, arch), seed=int(seed))
            for arch in config.archs for seed in config.seeds]


def _model_name(spec: ModelSpec) -> str:
    """A trained model's name: its file stem and its key in the JSON artifacts."""
    return f"{spec.arch}_seed{spec.seed}"


def _model_path(out: Path, spec: ModelSpec) -> Path:
    return out / "models" / f"{_model_name(spec)}.bin"


def cmd_synth(config: ExperimentConfig, out: Path, args) -> None:
    if config.synth is None:
        raise err.InvalidConfig("synth command needs a 'synth' section")
    frame, schedule = generate(config.synth)
    ds.save_csv(frame, out / "data.csv")
    (out / "faults.json").write_text(schedule.to_json())
    print(f"wrote {out / 'data.csv'} ({len(frame)} rows) and {out / 'faults.json'}")


def cmd_train(config: ExperimentConfig, out: Path, args) -> None:
    specs = _model_specs(config, out)
    frame, mask, plan = _load_planned(config, args.dataset)
    (out / "cleaning_mask.json").write_text(mask.to_json())
    (out / "models").mkdir(exist_ok=True)
    fits = parallel_map(lambda spec: train_on_plan(spec, frame, plan), specs,
                        jobs=config.jobs)
    save_model(fits[0][0], out / "model.bin")
    logs = {}
    for spec, (model, log) in zip(specs, fits):
        save_model(model, _model_path(out, spec))
        logs[_model_name(spec)] = {
            "stop_reason": log.stop_reason,
            "stopped_at": log.stopped_at,
            "train_loss": list(log.train_loss),
            "val_loss": list(log.val_loss),
        }
        print(f"trained {spec.arch} seed {spec.seed}: "
              f"{log.stop_reason} at {log.stopped_at}")
    (out / "train_logs.json").write_text(json.dumps(logs, indent=2))


def _report_rows(config: ExperimentConfig, models, frame, plan) -> list[EvalReport]:
    rows: list[EvalReport] = []
    for model in models:
        for split in ds.SPLITS:
            rows.append(evaluate(model, frame, plan, config.task, split=split))
    for b in REPORT_BASELINES:
        if config.task in b.tasks:
            for split in ("validation", "test"):
                rows.append(evaluate(b, frame, plan, config.task, split=split))
    return rows


def cmd_evaluate(config: ExperimentConfig, out: Path, args) -> None:
    frame, _, plan = _load_planned(config, args.dataset)
    models = [load_model(_model_path(out, spec)) for spec in _model_specs(config, out)]
    rows = _report_rows(config, models, frame, plan)
    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model_id", "task", "split", "seed", "mse", "mae", "n_points"])
        for r in rows:
            writer.writerow([r.model_id, r.task, r.split, r.seed,
                             repr(r.mse), repr(r.mae), r.n_points])
    if config.task == "forecast":
        horizons = {_model_name(m.spec): forecast_horizon_breakdown(m, frame, plan)
                    for m in models}
        (out / "horizons.json").write_text(json.dumps(horizons, indent=2))
    print(f"wrote {out / 'report.csv'} ({len(rows)} rows)")


def cmd_hyperopt(config: ExperimentConfig, out: Path, args) -> None:
    frame, _ = _load_frame(config, args.dataset)
    folds = ds.make_cv_folds(frame, **asdict(config.folds))
    with open(out / "trials.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arch", "trial", "fold", "val_mse", "mean_val_mse", "spec"])
        for arch in config.archs:
            space = build_search_space(config, arch)
            best, trials = search(space, frame, folds, config.task,
                                  budget=config.hyperopt.budget,
                                  search_seed=config.hyperopt.seed,
                                  jobs=config.jobs)
            for t in trials:
                for k, v in enumerate(t.fold_val_mse):
                    writer.writerow([arch, t.index, k, repr(v),
                                     repr(t.mean_val_mse),
                                     json.dumps(t.spec.to_dict())])
            (out / f"best_spec_{arch}.json").write_text(
                json.dumps(best.to_dict(), indent=2))
            print(f"{arch}: best mean val MSE "
                  f"{min(t.mean_val_mse for t in trials):.4f} over "
                  f"{len(trials)} trials")


def cmd_ablate(config: ExperimentConfig, out: Path, args) -> None:
    frame, _, plan = _load_planned(config, args.dataset)
    base = replace(_arch_spec(config, out, config.archs[0]), seed=int(config.seeds[0]),
                   covariates=config.ablation.covariates)
    table = covariate_sweep(base, config.ablation.covariates, frame, plan,
                            seeds=config.ablation.seeds, jobs=config.jobs)
    table.to_csv(out / "ablation.csv")
    (out / "importance.json").write_text(json.dumps(importance(table), indent=2))
    if config.ablation.h_values:
        pairs = history_sweep(base, config.ablation.h_values, frame, plan,
                              seeds=config.ablation.seeds, jobs=config.jobs)
        with open(out / "history.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["h", "test_mse"])
            for h, score in pairs:
                writer.writerow([h, "" if score is None else repr(score)])
    print(f"wrote {out / 'ablation.csv'} "
          f"({len(table.scored_rows())} scored rows) and importance.json")


def cmd_anomaly(config: ExperimentConfig, out: Path, args) -> None:
    frame, _, plan = _load_planned(config, args.dataset)
    model = load_model(out / "model.bin")
    if model.spec.task != "nowcast":
        raise err.SpecMismatch("anomaly analysis expects a nowcast model")
    anchors, preds, actual = model_pairs(model, frame,
                                         getattr(plan, config.anomaly.split))
    # each contiguous stretch of the frame alone: no event spans an outage
    starts = np.searchsorted(anchors, [lo for lo, _ in segments(frame)])
    events = detect_anomalies(preds, actual, config.anomaly, starts)
    (out / "anomalies.json").write_text(
        events_to_json(events, anchors, frame.timestamps()))
    print(f"wrote {out / 'anomalies.json'} ({len(events)} events)")


def cmd_report(config: ExperimentConfig, out: Path, args) -> None:
    path = out / "report.csv"
    if not path.exists():
        raise err.InvalidConfig(f"{path} missing; run evaluate first")
    rows: dict[tuple, list[EvalReport]] = {}
    with ds.read_text(path) as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            try:
                report = EvalReport(model_id=rec["model_id"], task=rec["task"],
                                    split=rec["split"], seed=int(rec["seed"]),
                                    mse=float(rec["mse"]), mae=float(rec["mae"]),
                                    n_points=int(rec["n_points"]))
            except (ValueError, KeyError, TypeError) as exc:
                raise err.UnparsableValue(
                    f"{path} line {reader.line_num}: not a score row: "
                    f"{type(exc).__name__}: {exc}") from None
            key = (report.model_id, report.task, report.split)
            rows.setdefault(key, []).append(report)

    def mean_std(values) -> dict:
        return {"mean": replicate_mean(values), "std": replicate_std(values)}

    tables: dict[str, list] = {}
    for task in sorted({key[1] for key in rows}):
        entries = []
        for model_id in sorted({key[0] for key in rows if key[1] == task}):
            test = rows.get((model_id, task, "test"))
            if test is None:
                continue
            val = rows.get((model_id, task, "validation"))
            entries.append({
                "model": model_id,
                "val_mse": None if val is None else mean_std([r.mse for r in val]),
                "test_mse": mean_std([r.mse for r in test]),
                "test_mae": mean_std([r.mae for r in test]),
                "n_seeds": len(test),
            })
        entries.sort(key=lambda e: e["test_mse"]["mean"])
        tables[task] = entries
    (out / "table1.json").write_text(json.dumps(tables, indent=2))
    print(f"wrote {out / 'table1.json'}")


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "hyperopt": cmd_hyperopt,
    "ablate": cmd_ablate,
    "anomaly": cmd_anomaly,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denitlab",
        description="Data-driven modelling experiments for pilot-reactor denitrification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config (YAML)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--jobs", type=int, default=None, help="max parallel trainings")
        p.add_argument("--seed", type=int, default=None, help="override the seeds list")
        p.add_argument("--dataset", default=None, help="override the dataset path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.jobs is not None:
            config = replace(config, jobs=args.jobs)
        if args.seed is not None:
            config = replace(config, seeds=(args.seed,))
        out = Path(args.out if args.out is not None else config.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise err.InvalidConfig(
                f"output directory {out} cannot be made: {exc.strerror}") from None
        _COMMANDS[args.command](config, out, args)
        _write_manifest(config, out, args.command)
    except err.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (err.DataError, OSError) as exc:  # an OSError names its path
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except err.TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
