"""The package names that perfbench/ patches and imports exist.

The traced benchmark wraps package functions by (module, attribute), and its
workloads import package names. A refactor that drops or renames one would
otherwise fail only in the traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``layers`` and ``spans`` modules; ``workloads`` is imported
    too, which fails if a package name it imports is gone."""
    if not (PERFBENCH / "layers.py").is_file():
        pytest.skip("perfbench sources absent")
    sys.path.insert(0, str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
        spans = importlib.import_module("spans")
        importlib.import_module("workloads")
        yield layers, spans
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_target_exists(perfbench):
    layers, spans = perfbench
    table = layers.targets(spans.Tracer())
    assert table
    missing = [f"{module}.{attr}" for module, attr in table
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_traced_spans_carry_their_counters(perfbench):
    """A model and the nowcast baselines scored, and a covariate sweep run,
    under the traced benchmark's wrappers give the spans and counters its
    per-layer metrics read. Calls go through module attributes, which is
    where ``install`` puts the wrappers."""
    from denitlab import ablation, evaluation
    from denitlab.baselines import REPORT_BASELINES
    from denitlab.dataset import make_final_split
    from denitlab.models import ModelSpec
    from denitlab.pipeline import train_on_plan
    from denitlab.synthpilot import SynthConfig, generate

    layers, spans = perfbench
    frame, _ = generate(SynthConfig(days=3, seed=0))
    plan = make_final_split(frame)
    covariates = ("nitrate_in", "methanol")
    spec = ModelSpec("elastic_net", covariates, h=1, task="nowcast", seed=0)
    model, _ = train_on_plan(spec, frame, plan)
    tracer = spans.Tracer()
    tracer.install(layers.targets(tracer))
    try:
        evaluation.evaluate(model, frame, plan, "nowcast")
        for baseline in REPORT_BASELINES:
            if "nowcast" in baseline.tasks:
                evaluation.evaluate(baseline, frame, plan, "nowcast")
        ablation.covariate_sweep(spec, covariates, frame, plan, jobs=1)
    finally:
        tracer.uninstall()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s.counters)
    model_points = [c["points"] for c in by_name["evaluation.evaluate.model"]]
    assert model_points and min(model_points) > 0  # the sweep scores models too
    baseline_points = [c["points"] for c in by_name["evaluation.evaluate.baseline"]]
    assert len(baseline_points) == 2 and min(baseline_points) > 0
    # each row calls its patched ``*_predict`` function
    assert len(by_name["baselines.training_mean_predict"]) == 1
    assert len(by_name["baselines.running_mean_predict"]) == 1
    assert by_name["ablation.covariate_sweep"] == [{"subsets": 3, "subsets_failed": 0}]
    windows = by_name["preprocess.build_windows"]
    assert windows and all(c["emitted"] <= c["candidates"] for c in windows)
