"""Acceptance suite.

Criteria 1 and 2 reproduce published-dataset numbers and require the dataset
CSV at $DENITLAB_DATA; they are skipped when it is absent. Criteria 3-5 are
dataset-free and must always pass. Each criterion prints one PASS line on the
way out (a failed assertion aborts before the print).
"""

import importlib.util
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from denitlab import dataset as ds
from denitlab.ablation import covariate_sweep
from denitlab.anomaly import AnomalyParams, detect_anomalies
from denitlab.baselines import PUBLISHED_TEST_MSE, SEASONAL, TRAINING_MEAN, \
    running_mean_predict, trend_n_predict
from denitlab.dataset import make_cv_folds, make_final_split
from denitlab.evaluation import evaluate, replicate_std
from denitlab.hyperopt import search
from denitlab.models import ModelSpec, serialize
from denitlab.models.elastic_net import fit_elastic_net
from denitlab.models.gbt import fit_gbt
from denitlab.pipeline import prepare_frame, train_on_plan
from denitlab.preprocess import CleaningMask, build_windows, detect_cleaning, \
    interpolate_target
from denitlab.synthpilot import DosingParams, Fault, SynthConfig, generate, \
    methanol_dose

from conftest import make_frame
from test_models_networks import finite_difference_worst_error

DATASET = os.environ.get("DENITLAB_DATA")
needs_dataset = pytest.mark.skipif(
    not DATASET, reason="published dataset not present at $DENITLAB_DATA")


def _ok(line: str) -> None:
    print(f"ACCEPTANCE {line}: PASS")


# --- criterion 1: baseline point reproduction (dataset-conditional) ---------

@needs_dataset
@pytest.mark.dataset
def test_criterion_1_baseline_point_reproduction():
    frame, _ = prepare_frame(ds.load_csv(DATASET))
    plan = make_final_split(frame)
    for task, spec, expected in PUBLISHED_TEST_MSE:
        got = evaluate(spec, frame, plan, task, split="test").mse
        assert abs(got - expected) / expected <= 0.05, \
            f"{task}/{spec.name}: got {got:.4f}, published {expected}"
    _ok("1 baseline point reproduction")


def test_reproduce_baselines_script_without_dataset_exits_2(monkeypatch):
    # the script's imports and argument handling run with no dataset at all
    path = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_baselines.py"
    module_spec = importlib.util.spec_from_file_location("reproduce_baselines", path)
    script = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(script)
    monkeypatch.delenv("DENITLAB_DATA", raising=False)
    monkeypatch.setattr(sys, "argv", [str(path)])
    assert script.main() == 2


# --- criterion 2: learned-model ranking (dataset-conditional, slow) ---------

@needs_dataset
@pytest.mark.dataset
@pytest.mark.slow
def test_criterion_2_learned_models_halve_seasonal_baseline():
    from denitlab.config import ExperimentConfig, build_search_space

    frame, _ = prepare_frame(ds.load_csv(DATASET))
    folds = make_cv_folds(frame)
    plan = make_final_split(frame)
    seasonal = evaluate(SEASONAL, frame, plan, "forecast", split="test").mse
    config = ExperimentConfig(task="forecast")
    for arch in ("elastic_net", "gbt", "recurrent", "tcn"):
        space = build_search_space(config, arch)
        best, _ = search(space, frame, folds, "forecast", budget=50,
                         search_seed=0)
        model, _ = train_on_plan(best, frame, plan)
        got = evaluate(model, frame, plan, "forecast", split="test").mse
        assert got < 0.5 * seasonal, \
            f"{arch}: {got:.4f} not below half of seasonal {seasonal:.4f}"
    _ok("2 learned forecast models halve the seasonal baseline")


# --- criterion 3: property suite (mandatory) ---------------------------------

def test_criterion_3a_elastic_net_vs_normal_equations():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(20, 60))
        p = int(rng.integers(1, 6))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.normal(0, 0.5, n)
        w, b, _, _ = fit_elastic_net(X, y, alpha=0.0, tol=1e-13, max_iter=100000)
        ref, *_ = np.linalg.lstsq(np.column_stack([X, np.ones(n)]), y, rcond=None)
        assert np.abs(np.append(w, b) - ref).max() <= 1e-6
    _ok("3a elastic net matches the normal-equations oracle (50 problems)")


def test_criterion_3b_network_gradient_checks():
    for arch in ("recurrent", "tcn"):
        for seed in range(5):
            worst = finite_difference_worst_error(arch, seed)
            assert worst <= 1e-4, f"{arch} seed {seed}: rel err {worst:.2e}"
    _ok("3b network gradients pass finite-difference checks (5 seeds x 2 archs)")


def test_criterion_3c_gbt_loss_monotonicity():
    rng = np.random.default_rng(1)
    for trial in range(100):
        n = int(rng.integers(30, 90))
        X = rng.normal(size=(n, 3))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + rng.normal(0, 0.3, n)
        _, log = fit_gbt(X, y, n_trees=25, max_depth=3, learning_rate=0.2,
                         min_samples_leaf=2, seed=trial)
        diffs = np.diff(log.train_loss)
        assert np.all(diffs <= 1e-12)
    _ok("3c gbt training loss is monotone non-increasing (100 problems)")


def test_criterion_3d_baseline_bruteforce_oracles():
    rng = np.random.default_rng(2)
    for _ in range(25):
        series = rng.normal(5, 2, int(rng.integers(5, 60)))
        preds = running_mean_predict(series)
        for t in range(len(series)):
            expected = series[0] if t == 0 else series[:t].mean()
            assert preds[t] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        n = int(rng.integers(2, 8))
        hist = rng.normal(size=n + 3)
        got = trend_n_predict(hist, n=n, horizon=4)
        coeff = np.polyfit(np.arange(n, dtype=float), hist[-n:], 1)
        expected = np.polyval(coeff, np.arange(n, n + 4, dtype=float))
        assert got == pytest.approx(expected, rel=1e-8, abs=1e-8)
    _ok("3d running-mean and trend baselines match brute force")


def test_criterion_3e_scaler_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        values = rng.normal(rng.uniform(-100, 100), rng.uniform(0.1, 50),
                            int(rng.integers(4, 200)))
        frame = make_frame({"nitrate_out": values})
        scaler = ds.fit_scaler(frame, [(0, len(values))])
        back = ds.invert_target(
            scaler, ds.apply_scaler(frame, scaler).col("nitrate_out"))
        scale = np.maximum(np.abs(values), abs(scaler.mean[0]) + scaler.std[0])
        assert np.all(np.abs(back - values) / scale <= 1e-12)
    _ok("3e scaler round trip is the identity to 1e-12")


def test_criterion_3f_fold_arithmetic_on_random_lengths():
    rng = np.random.default_rng(4)
    week = ds.SAMPLES_PER_WEEK
    for _ in range(20):
        n = int(rng.integers(5 * week + 1, 45 * week))
        frame = make_frame({"nitrate_out": np.arange(n, dtype=float)})
        n_test = math.ceil(0.2 * n)
        for plan in make_cv_folds(frame):
            assert plan.test == ((n - n_test, n),)
            pieces = sorted([*plan.train, *plan.validation])
            pos = 0
            for s, e in pieces:
                assert s == pos
                pos = e
            assert pos == n - n_test
        final = make_final_split(frame)
        assert final.train[0][1] == math.floor(0.72 * n)
        assert final.validation[0][1] == math.floor(0.80 * n)
    _ok("3f fold arithmetic exact on 20 random lengths")


def test_criterion_3g_interpolation_idempotence():
    frame, schedule = generate(SynthConfig(days=8, seed=21))
    mask = CleaningMask(intervals=schedule.cleaning, length=len(frame))
    once = interpolate_target(frame, mask)
    twice = interpolate_target(once, mask)
    assert np.array_equal(once.values, twice.values)
    _ok("3g target interpolation is idempotent")


def test_criterion_3h_window_gap_exclusion():
    n = 60
    frame = make_frame(
        {"nitrate_in": np.arange(n, dtype=float),
         "nitrate_out": np.arange(n, dtype=float)},
        gaps=(ds.Gap(after_index=20, missing_steps=4),
              ds.Gap(after_index=40, missing_steps=1)))
    ws = build_windows(frame, ["nitrate_in"], h=3, horizon=2,
                       with_target_history=True, plan_ranges=[(0, n)])
    for s in ws.samples:
        lo, hi = s.t - 3, s.t + 2
        for b in (20, 40):
            assert not (lo <= b < hi)
    assert len(ws.samples) + ws.skipped == ws.candidates == n
    _ok("3h windows never span gaps")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # row counts, not fits
def test_criterion_3i_ablation_row_counts():
    frame, _ = generate(SynthConfig(days=6, seed=5))
    plan = make_final_split(frame)
    names = ("nitrate_in", "methanol", "temperature", "water_flow",
             "oxygen_in", "turbidity")
    for n in range(1, 7):
        base = ModelSpec("elastic_net", names[:n], h=0, task="nowcast",
                         hyperparams={"alpha": 1e-3, "max_iter": 300,
                                      "tol": 1e-3}, seed=0)
        table = covariate_sweep(base, names[:n], frame, plan)
        assert len(table.scored_rows()) == 2 ** n - 1
        assert len(table.rows) == 2 ** n - 1
    _ok("3i ablation scores 2^n - 1 subsets for n in 1..6")


def test_criterion_3j_dosing_identity_and_clamp():
    dosing = DosingParams(k1=1.0, k2=0.5, c_out_target=2.0)
    assert methanol_dose(2.0, 10.0, 8.0, dosing) == pytest.approx(24.0)
    setpoint = DosingParams(k1=3.0, k2=0.0, c_out_target=4.0)
    assert methanol_dose(9.9, 4.0, 7.7, setpoint) == 0.0
    assert methanol_dose(5.0, 1.0, 0.0, setpoint) == 0.0  # negative demand clamps
    _ok("3j dosing formula identity and clamp cases")


def test_criterion_3k_anomaly_symmetries():
    params = AnomalyParams(peak_window=21, peak_sigma=5.0, follow_ratio=0.5,
                           bias_window=12, bias_threshold=1.0)
    rng = np.random.default_rng(6)
    base = np.sin(np.arange(300) / 7.0) + rng.normal(0, 0.05, 300)
    actual = np.array(base)
    actual[100:107] += 15.0
    pred = np.array(base)
    fwd = detect_anomalies(pred, actual, params)
    rev = detect_anomalies(actual, pred, params)
    assert [(e.start_index, e.end_index) for e in fwd if e.klass == 1] \
        == [(e.start_index, e.end_index) for e in rev if e.klass == 2]
    shifted = detect_anomalies(pred + 123.4, actual + 123.4, params)
    assert [(e.klass, e.start_index, e.end_index) for e in fwd] \
        == [(e.klass, e.start_index, e.end_index) for e in shifted]
    _ok("3k anomaly role symmetry and translation invariance")


def test_criterion_3l_seed_determinism_bit_identical():
    frame, _ = generate(SynthConfig(days=8, seed=30))
    plan = make_final_split(frame)
    for arch, hp in [("gbt", {"n_trees": 10, "subsample": 0.8}),
                     ("recurrent", {"hidden": 4, "max_epochs": 2}),
                     ("tcn", {"hidden": 4, "levels": 1, "kernel_size": 2,
                              "max_epochs": 2})]:
        spec = ModelSpec(arch, ("nitrate_in", "methanol"), h=1, task="nowcast",
                         hyperparams=hp, seed=17)
        m1, _ = train_on_plan(spec, frame, plan)
        m2, _ = train_on_plan(spec, frame, plan)
        assert serialize(m1) == serialize(m2)
    _ok("3l identical seeds produce bit-identical artifacts")


# --- criterion 4: end-to-end synthetic pipeline ------------------------------

def test_criterion_4_end_to_end_synthetic_pipeline():
    n = 60 * 144
    fault = Fault("methanol_dropout", int(n * 0.85), 24)  # 4 h inside the test tail
    config = SynthConfig(days=60, seed=13, faults=(fault,))
    frame, schedule = generate(config)

    mask = detect_cleaning(frame.col("pressure_bottom"), frame.col("pressure_top"))
    assert mask.intervals == schedule.cleaning  # (b) exact schedule recovery

    cleaned = interpolate_target(frame, mask)
    plan = make_final_split(cleaned)
    spec = ModelSpec("elastic_net", ds.COVARIATES, h=2, task="nowcast",
                     hyperparams={"alpha": 1e-3}, seed=0)
    model, _ = train_on_plan(spec, cleaned, plan)
    en = evaluate(model, cleaned, plan, "nowcast", split="test")
    tm = evaluate(TRAINING_MEAN, cleaned, plan, "nowcast", split="test")
    assert en.mse < tm.mse  # (a)

    scaled = ds.apply_scaler(cleaned, model.scaler)
    ws = build_windows(scaled, spec.covariates, spec.h, horizon=0,
                       with_target_history=False, plan_ranges=plan.test)
    anchors = ws.t
    from denitlab.models import predict_batch
    preds = ds.invert_target(model.scaler, predict_batch(model, ws))
    actual = cleaned.col(ds.TARGET)[anchors]
    events = detect_anomalies(preds, actual, AnomalyParams())
    fault_lo, fault_hi = fault.start, fault.start + fault.duration
    overlapping = [
        e for e in events if e.klass == 1
        and anchors[e.start_index] < fault_hi + 12
        and anchors[e.end_index - 1] + 1 > fault_lo
    ]
    assert overlapping, "no class-1 event overlaps the methanol fault"  # (c)
    _ok("4 end-to-end synthetic pipeline (train/evaluate/anomaly)")


# --- criterion 5: multi-seed reporting ---------------------------------------

def test_criterion_5_multi_seed_reporting():
    frame, _ = generate(SynthConfig(days=8, seed=40))
    plan = make_final_split(frame)
    seeds = range(10)

    def mses_on_test(arch, hp):
        out = []
        for seed in seeds:
            spec = ModelSpec(arch, ("nitrate_in", "methanol"), h=1,
                             task="nowcast", hyperparams=hp, seed=seed)
            model, _ = train_on_plan(spec, frame, plan)
            out.append(evaluate(model, frame, plan, "nowcast", split="test").mse)
        return out

    enet = mses_on_test("elastic_net", {"alpha": 1e-3})
    assert len(enet) == 10
    assert replicate_std(enet) == 0.0  # deterministic arch: seeds change nothing

    net = mses_on_test("recurrent", {"hidden": 4, "max_epochs": 3})
    assert len(net) == 10
    assert replicate_std(net) > 0.0
    rerun = mses_on_test("recurrent", {"hidden": 4, "max_epochs": 3})
    assert replicate_std(net) == pytest.approx(np.std(rerun, ddof=1))
    _ok("5 multi-seed aggregation uses sample std (0 for deterministic archs)")
