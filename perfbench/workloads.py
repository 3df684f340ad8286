"""The benchmark workloads: inputs made from the seed, one unit of work, checks.

Each workload is a closed loop in one process: the next unit of work starts
when the previous one has finished. ``setup`` makes the inputs (it is timed
as set-up and repeated), ``run_once`` is the timed unit of work, and
``check`` reads what the unit produced and returns an :class:`Outcome`.

The synthetic plant behind every workload uses a fixed generator seed; the
workload seed decides what varies between runs (outage and blank-cell
positions, or the hyperparameter draws), so the amount of work, and with it
the timing, is the same for every seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from denitlab import cli, hyperopt
from denitlab import dataset as ds
from denitlab import synthpilot
from denitlab.errors import AllTrialsFailed
from denitlab.hyperopt import CategoricalDim, GridDim, LogUniformDim, SearchSpace
from denitlab.pipeline import prepare_frame

HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    fits: int                  # completed model trainings
    attempted: int             # operations tried (commands, trial-folds, subsets)
    failed: int                # operations that failed
    quality: float             # the workload's quality_mse
    digest: str                # hash of the unit's artifacts
    problems: list[str] = field(default_factory=list)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def _train_region_rows(n_rows: int) -> int:
    """Rows that stay inside the training part of the 72/8/20 final split."""
    return int(0.7 * n_rows)


def _blank_cells(rng: np.random.Generator, values: np.ndarray, rows: int,
                 columns, count: int) -> None:
    """Blank ``count`` distinct cells among the first ``rows`` rows of ``columns``."""
    columns = np.asarray(columns)
    cells = rng.choice(rows * len(columns), size=count, replace=False)
    values[cells // len(columns), columns[cells % len(columns)]] = np.nan


class CliGappyNowcast:
    """train -> evaluate -> report -> anomaly -> ablate through ``denitlab.cli.main``.

    The only workload that parses CSV, turns missing timestamps into gap
    records and runs the baselines, anomaly detection and the covariate
    sweep (15 cheap elastic-net fits, where per-call re-scaling and
    re-windowing is a large share). The seed places multi-hour outages
    (dropped rows) and blank sensor cells in the training part of the frame;
    the test tail carries a methanol-dosing dropout that the anomaly stage
    looks for, and is the same for every seed.
    """

    name = "cli_gappy_nowcast"
    JOBS = 1
    gaps = 0                   # gap records plus blank cells in the input
    DAYS = 28
    SYNTH_SEED = 13
    OUTAGES = (24, 36, 48)     # samples dropped per outage (4, 6 and 8 hours)
    BLANK_CELLS = 40
    CONFIG = HERE / "cli_gappy_nowcast.yaml"
    COMMANDS = ("train", "evaluate", "report", "anomaly", "ablate")
    SWEEP_COVARIATES = 4       # ablation.covariates in the config
    ARCHS = ("elastic_net", "gbt")
    BASELINES = ("BaselineTrainingMean", "BaselineTestRunningMean")
    ARTIFACTS = ("cleaning_mask.json", "model.bin", "models/elastic_net_seed0.bin",
                 "models/gbt_seed0.bin", "train_logs.json", "report.csv",
                 "table1.json", "anomalies.json", "ablation.csv", "importance.json",
                 "manifest.json")

    def __init__(self, work: Path, seed: int, jobs: int):
        self.work = work
        self.seed = seed
        self.csv = work / "gappy.csv"

    def setup(self) -> None:
        n = self.DAYS * ds.SAMPLES_PER_DAY
        fault = synthpilot.Fault("methanol_dropout", start=int(0.9 * n), duration=24)
        frame, _ = synthpilot.generate(synthpilot.SynthConfig(
            days=self.DAYS, seed=self.SYNTH_SEED, faults=(fault,)))
        rng = np.random.default_rng(self.seed)
        limit = _train_region_rows(n - sum(self.OUTAGES))
        values = np.array(frame.values)
        _blank_cells(rng, values, limit, range(values.shape[1]), self.BLANK_CELLS)

        # one outage per equal slot of [1 day, limit), so outages never touch
        keep = np.ones(n, dtype=bool)
        gaps = []
        slot = (limit - ds.SAMPLES_PER_DAY) // len(self.OUTAGES)
        for i, length in enumerate(self.OUTAGES):
            lo = ds.SAMPLES_PER_DAY + i * slot
            start = int(rng.integers(lo + 1, lo + slot - length))
            keep[start:start + length] = False
            gaps.append(ds.Gap(after_index=int(keep[:start].sum()) - 1,
                               missing_steps=length))
        gappy = ds.TimeSeriesFrame(frame.start_time, frame.names, frame.units,
                                   values[keep], gaps=tuple(gaps))
        ds.save_csv(gappy, self.csv)
        loaded = ds.load_csv(self.csv)
        if loaded.gaps != gappy.gaps or not np.array_equal(
                loaded.values, gappy.values, equal_nan=True):
            raise RuntimeError("the gappy CSV does not read back as written")
        self.gaps = len(loaded.gaps) + int(np.isnan(loaded.values).sum())

    def _cli(self, command: str, out: Path) -> int:
        argv = [command, "--config", str(self.CONFIG), "--out", str(out),
                "--dataset", str(self.csv)]
        captured = io.StringIO()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(captured):
                code = cli.main(argv)
        except Exception:  # a traceback is a failed command, not a benchmark crash
            traceback.print_exc(file=captured)
            code = 1
        if code != 0:
            print(f"{command} exited {code}: {captured.getvalue().strip()}",
                  file=sys.stderr)
        return code

    def run_once(self, k: int):
        out = self.work / f"iter{k}"
        return out, [self._cli(c, out) for c in self.COMMANDS]

    def check(self, result) -> Outcome:
        out, codes = result
        problems = [f"{c} exited {code}" for c, code in zip(self.COMMANDS, codes) if code]
        problems += [f"missing {a}" for a in self.ARTIFACTS if not (out / a).is_file()]
        fits, quality, digest = 0, math.nan, ""
        if not problems:
            with open(out / "ablation.csv", newline="") as fh:
                subsets = list(csv.DictReader(fh))
            fits = len(json.loads((out / "train_logs.json").read_text())) + len(subsets)
            with open(out / "report.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            got = sorted((r["model_id"], r["split"]) for r in rows)
            want = sorted([(a, s) for a in self.ARCHS
                           for s in ("train", "validation", "test")]
                          + [(b, s) for b in self.BASELINES
                             for s in ("validation", "test")])
            if got != want:
                problems.append(f"report.csv rows {got} != {want}")
            if not all(math.isfinite(float(r["mse"])) and int(r["n_points"]) > 0
                       for r in rows):
                problems.append("report.csv has a non-finite score or no points")
            tests = [float(r["mse"]) for r in rows
                     if r["model_id"] in self.ARCHS and r["split"] == "test"]
            quality = sum(tests) / len(tests) if tests else math.nan
            table = json.loads((out / "table1.json").read_text())
            if len(table.get("nowcast", [])) != len(self.ARCHS) + len(self.BASELINES):
                problems.append("table1.json does not rank every model and baseline")
            events = json.loads((out / "anomalies.json").read_text())
            if not isinstance(events, list) or any(e["class"] not in (1, 2, 3)
                                                   for e in events):
                problems.append("anomalies.json is not a list of classed events")
            want_subsets = 2 ** self.SWEEP_COVARIATES - 1
            if len(subsets) != want_subsets:
                problems.append(f"ablation.csv scores {len(subsets)} subsets, "
                                f"want {want_subsets}")
            summary = json.loads((out / "importance.json").read_text())["covariates"]
            if len(summary) != self.SWEEP_COVARIATES or any(
                    c["n_with"] + c["n_without"] != len(subsets) for c in summary.values()):
                problems.append("importance.json does not partition the scored subsets")
            digest = _sha(*(a.encode() + (out / a).read_bytes()
                            for a in self.ARTIFACTS if a != "manifest.json"))
        shutil.rmtree(out, ignore_errors=True)
        failed = len(self.COMMANDS) if problems else 0
        return Outcome(fits, len(self.COMMANDS), failed, quality, digest, problems)


class HyperoptForecast:
    """A fixed small ``hyperopt.search`` over tcn and recurrent, forecast task.

    Runs the network fits, six-step rollout scoring, re-windowing on every
    trial-fold and the thread pool, on an in-memory gapless frame with the
    four blocked CV folds. Only learning rates and network seeds are drawn,
    from the workload seed; sizes and epochs are fixed so every seed does the
    same work.
    """

    name = "hyperopt_forecast"
    JOBS = 2                   # capped at nproc by the caller
    gaps = 0
    DAYS = 36
    SYNTH_SEED = 7
    ARCHS = ("tcn", "recurrent")
    BUDGET = 2
    COVARIATES = ("temperature", "nitrate_in", "oxygen_in", "methanol", "water_flow")

    def __init__(self, work: Path, seed: int, jobs: int):
        self.seed = seed
        self.jobs = jobs

    def setup(self) -> None:
        frame, _ = synthpilot.generate(synthpilot.SynthConfig(
            days=self.DAYS, seed=self.SYNTH_SEED))
        self.frame, _ = prepare_frame(frame)
        self.folds = ds.make_cv_folds(self.frame)
        shared = {"h": GridDim((2,)), "covariates": CategoricalDim((self.COVARIATES,)),
                  "hidden": GridDim((8,)), "learning_rate": LogUniformDim(5e-3, 1e-2),
                  "batch_size": GridDim((64,)), "max_epochs": GridDim((2,)),
                  "patience": GridDim((2,))}
        self.spaces = {
            "tcn": SearchSpace("tcn", {**shared, "levels": GridDim((2,)),
                                       "kernel_size": GridDim((2,))}),
            "recurrent": SearchSpace("recurrent", dict(shared)),
        }

    def run_once(self, k: int):
        results = {}
        for arch in self.ARCHS:
            try:
                results[arch] = hyperopt.search(
                    self.spaces[arch], self.frame, self.folds, "forecast",
                    budget=self.BUDGET, search_seed=self.seed, jobs=self.jobs)
            except AllTrialsFailed as exc:
                results[arch] = exc
        return results

    def check(self, results) -> Outcome:
        per_arch = self.BUDGET * len(self.folds)
        attempted = per_arch * len(self.ARCHS)
        problems, failed, fits, best, doc = [], 0, 0, math.inf, []
        for arch in self.ARCHS:
            result = results[arch]
            if isinstance(result, AllTrialsFailed):
                problems.append(f"{arch}: {result}")
                failed += per_arch
                continue
            spec, trials = result
            scores = [v for t in trials for v in t.fold_val_mse]
            if len(trials) != self.BUDGET or len(scores) != per_arch:
                problems.append(f"{arch}: {len(scores)} trial-folds, want {per_arch}")
            if spec.arch != arch or spec.task != "forecast":
                problems.append(f"{arch}: best spec is {spec.arch}/{spec.task}")
            failed += sum(1 for v in scores if not math.isfinite(v))
            fits += sum(1 for v in scores if math.isfinite(v))
            best = min([best] + [t.mean_val_mse for t in trials])
            doc.append([arch, spec.to_dict(),
                        [[t.index, t.spec.to_dict(), [repr(v) for v in t.fold_val_mse]]
                         for t in trials]])
        if not math.isfinite(best):
            problems.append("no finite validation score")
        if problems:
            failed = attempted
        digest = _sha(json.dumps(doc, sort_keys=True).encode())
        return Outcome(fits, attempted, failed, best, digest, problems)


WORKLOADS = {w.name: w for w in (CliGappyNowcast, HyperoptForecast)}
