"""Which package functions the traced run wraps, and the per-layer metrics.

Each wrapped function becomes a span named ``<module>.<function>`` (the
module path below ``denitlab``). A few spans are split by argument:
``train_network`` by architecture and ``evaluate`` by predictor kind. Every
per-layer value is a mean per iteration (one unit of work of the workload),
except the ``synthpilot``/``save_csv`` spans, which are means per set-up.
"""

from __future__ import annotations

import math
from collections import defaultdict

from spans import Span, self_times, unattributed

#: Spans reported as ``<name>.calls`` and ``<name>.self_s``.
TIMED_SPANS = (
    "cli.main",
    "dataset.load_csv",
    "dataset.fit_scaler",
    "dataset.apply_scaler",
    "pipeline.prepare_frame",
    "preprocess.detect_cleaning",
    "preprocess.interpolate_target",
    "preprocess.build_windows",
    "pipeline.train_on_plan",
    "models.train_model",
    "models.stack_inputs",
    "models.predict_batch",
    "models.rollout_forecast_batch",
    "models.save_model",
    "models.load_model",
    "models.elastic_net.fit_elastic_net",
    "models.gbt.fit_gbt",
    "models.gbt.predict_gbt",
    "models.networks.train_network.recurrent",
    "models.networks.train_network.tcn",
    "baselines.training_mean_predict",
    "baselines.running_mean_predict",
    "baselines.seasonal_predict",
    "baselines.trend_n_predict",
    "evaluation.evaluate.model",
    "evaluation.evaluate.baseline",
    "anomaly.detect_anomalies",
    "hyperopt.search",
    "ablation.covariate_sweep",
    "ablation.importance",
    "utils.parallel_map",
    "utils.parallel_map.task",
)

#: Spans that run during set-up, reported per set-up repetition.
SETUP_SPANS = ("synthpilot.generate", "dataset.save_csv")

CLI_COMMANDS = ("train", "evaluate", "report", "anomaly", "ablate")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{n}.{k}", u, "lower") for n in TIMED_SPANS
     for k, u in (("calls", "count/iter"), ("self_s", "s/iter"))]
    + [(f"{n}.self_s", "s/setup", "lower") for n in SETUP_SPANS]
    + [(f"cli.{c}.s", "s/iter", "lower") for c in CLI_COMMANDS]
    + [
        ("models.elastic_net.sweeps", "count/iter", "lower"),
        ("models.elastic_net.converged_ratio", "ratio", "higher"),
        ("models.networks.epochs", "count/iter", "lower"),
        ("preprocess.windows.candidates", "count/iter", "higher"),
        ("preprocess.windows.emitted", "count/iter", "higher"),
        ("preprocess.windows.admit_ratio", "ratio", "higher"),
        ("evaluation.points", "count/iter", "higher"),
        ("utils.parallel_map.utilization", "ratio", "higher"),
        ("dataset.load_csv.rows", "count/iter", "higher"),
        ("dataset.gaps", "count", "higher"),
        ("anomaly.events", "count/iter", "higher"),
        ("hyperopt.trial_folds", "count/iter", "higher"),
        ("hyperopt.trial_folds_failed", "count/iter", "lower"),
        ("ablation.subsets", "count/iter", "higher"),
        ("ablation.subsets_failed", "count/iter", "lower"),
        ("trace.wall_s", "s/iter", "lower"),
        ("trace.untraced_wall_s", "s/iter", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.unattributed_s", "s/iter", "lower"),
        ("trace.self_sum_s", "s/iter", "lower"),
        ("trace.iterations", "count", "higher"),
        ("host.probe_s", "s", "lower"),
    ]
)


def _count_frame(frame, c):
    c["rows"] = len(frame)


def _count_windows(ws, c):
    c["candidates"] = ws.candidates
    c["emitted"] = len(ws.samples)


def _count_enet(result, c):
    _, _, log, converged = result
    c["sweeps"] = log.stopped_at
    c["converged"] = int(bool(converged))


def _count_network(result, c):
    c["epochs"] = result[1].stopped_at


def _count_report(report, c):
    c["points"] = report.n_points


def _count_events(events, c):
    c["events"] = len(events)


def _count_search(result, c):
    trials = result[1]
    scores = [v for t in trials for v in t.fold_val_mse]
    c["trial_folds"] = len(scores)
    c["trial_folds_failed"] = sum(1 for v in scores if not math.isfinite(v))


def _count_sweep(table, c):
    rows = [r for r in table.rows if r.bitmask]
    c["subsets"] = len(rows)
    c["subsets_failed"] = sum(1 for r in rows if r.note == "training failed")


def targets(tracer) -> dict:
    """(module, attribute) -> wrapper factory, for ``Tracer.install``."""
    def span(name, count=None):
        return lambda fn: tracer.wrap(fn, name, count)

    def network_name(spec, *args, **kwargs):
        return f"models.networks.train_network.{spec.arch}"

    def evaluate_name(predictor, *args, **kwargs):
        kind = "model" if hasattr(predictor, "spec") else "baseline"
        return f"evaluation.evaluate.{kind}"

    table = {
        ("denitlab.cli", "main"): span("cli.main"),
        ("denitlab.dataset", "load_csv"): span("dataset.load_csv", _count_frame),
        ("denitlab.dataset", "save_csv"): span("dataset.save_csv"),
        ("denitlab.dataset", "fit_scaler"): span("dataset.fit_scaler"),
        ("denitlab.dataset", "apply_scaler"): span("dataset.apply_scaler"),
        ("denitlab.pipeline", "prepare_frame"): span("pipeline.prepare_frame"),
        ("denitlab.preprocess", "detect_cleaning"): span("preprocess.detect_cleaning"),
        ("denitlab.preprocess", "interpolate_target"):
            span("preprocess.interpolate_target"),
        ("denitlab.preprocess", "build_windows"):
            span("preprocess.build_windows", _count_windows),
        ("denitlab.pipeline", "train_on_plan"): span("pipeline.train_on_plan"),
        ("denitlab.models", "train_model"): span("models.train_model"),
        ("denitlab.models", "stack_inputs"): span("models.stack_inputs"),
        ("denitlab.models", "predict_batch"): span("models.predict_batch"),
        ("denitlab.models", "rollout_forecast_batch"):
            span("models.rollout_forecast_batch"),
        ("denitlab.models", "save_model"): span("models.save_model"),
        ("denitlab.models", "load_model"): span("models.load_model"),
        ("denitlab.models.elastic_net", "fit_elastic_net"):
            span("models.elastic_net.fit_elastic_net", _count_enet),
        ("denitlab.models.gbt", "fit_gbt"): span("models.gbt.fit_gbt"),
        ("denitlab.models.gbt", "predict_gbt"): span("models.gbt.predict_gbt"),
        ("denitlab.models.networks", "train_network"):
            span(network_name, _count_network),
        ("denitlab.evaluation", "evaluate"): span(evaluate_name, _count_report),
        ("denitlab.anomaly", "detect_anomalies"):
            span("anomaly.detect_anomalies", _count_events),
        ("denitlab.hyperopt", "search"): span("hyperopt.search", _count_search),
        ("denitlab.ablation", "covariate_sweep"):
            span("ablation.covariate_sweep", _count_sweep),
        ("denitlab.ablation", "importance"): span("ablation.importance"),
        ("denitlab.synthpilot", "generate"): span("synthpilot.generate"),
        ("denitlab.utils", "parallel_map"): tracer.wrap_parallel_map,
    }
    for kind in ("training_mean", "running_mean", "seasonal", "trend_n"):
        fn = f"{kind}_predict"
        table[("denitlab.baselines", fn)] = span(f"baselines.{fn}")
    for command in CLI_COMMANDS:
        table[("denitlab.cli", f"cmd_{command}")] = span(f"cli.{command}")
    return table


class LayerTotals:
    """Sums over traced iterations; ``metrics`` turns them into per-iteration means."""

    def __init__(self):
        self.iterations = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.wall = 0.0
        self.unattributed = 0.0
        self.self_sum = 0.0
        self.busy = 0.0        # summed parallel_map task time
        self.pool_capacity = 0.0  # jobs x parallel_map wall
        self.setups = 0
        self.setup_self_s = defaultdict(float)

    def add_iteration(self, spans: list[Span], t0: float, t1: float) -> float:
        """Fold one traced iteration in.

        Returns the sum of its self times minus the wall time that root spans
        cover, which is zero when every span ran in one thread.
        """
        own = self_times(spans)
        for s in spans:
            self.calls[s.name] += 1
            self.self_s[s.name] += own[s.id]
            self.total_s[s.name] += s.duration
            for key, value in s.counters.items():
                self.counters[key] += value
            if s.name == "utils.parallel_map":
                self.pool_capacity += s.counters["jobs"] * s.duration
            elif s.name == "utils.parallel_map.task":
                self.busy += s.duration
        self.iterations += 1
        self.wall += t1 - t0
        gap = unattributed(spans, t0, t1)
        self.unattributed += gap
        total_self = sum(own.values())
        self.self_sum += total_self
        return total_self - ((t1 - t0) - gap)

    def add_setup(self, spans: list[Span]) -> None:
        own = self_times(spans)
        self.setups += 1
        for s in spans:
            self.setup_self_s[s.name] += own[s.id]

    def metrics(self, untraced_wall: float, overhead_frac: float,
                gaps: int) -> dict[str, float]:
        n = max(self.iterations, 1)
        out: dict[str, float] = {}
        for name in TIMED_SPANS:
            out[f"{name}.calls"] = self.calls[name] / n
            out[f"{name}.self_s"] = self.self_s[name] / n
        for name in SETUP_SPANS:
            out[f"{name}.self_s"] = self.setup_self_s[name] / max(self.setups, 1)
        for command in CLI_COMMANDS:
            out[f"cli.{command}.s"] = self.total_s[f"cli.{command}"] / n
        c = self.counters
        fits = self.calls["models.elastic_net.fit_elastic_net"]
        out["models.elastic_net.sweeps"] = c["sweeps"] / n
        out["models.elastic_net.converged_ratio"] = c["converged"] / fits if fits else 0.0
        out["models.networks.epochs"] = c["epochs"] / n
        out["preprocess.windows.candidates"] = c["candidates"] / n
        out["preprocess.windows.emitted"] = c["emitted"] / n
        out["preprocess.windows.admit_ratio"] = (
            c["emitted"] / c["candidates"] if c["candidates"] else 0.0)
        out["evaluation.points"] = c["points"] / n
        out["utils.parallel_map.utilization"] = (
            self.busy / self.pool_capacity if self.pool_capacity else 0.0)
        out["dataset.load_csv.rows"] = c["rows"] / n
        out["dataset.gaps"] = float(gaps)
        out["anomaly.events"] = c["events"] / n
        out["hyperopt.trial_folds"] = c["trial_folds"] / n
        out["hyperopt.trial_folds_failed"] = c["trial_folds_failed"] / n
        out["ablation.subsets"] = c["subsets"] / n
        out["ablation.subsets_failed"] = c["subsets_failed"] / n
        out["trace.wall_s"] = self.wall / n
        out["trace.untraced_wall_s"] = untraced_wall
        out["trace.overhead_frac"] = overhead_frac
        out["trace.unattributed_s"] = self.unattributed / n
        out["trace.self_sum_s"] = self.self_sum / n
        out["trace.iterations"] = float(self.iterations)
        return out
