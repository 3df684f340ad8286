import hashlib
import inspect
import json

import numpy as np
import pytest

from denitlab.config import ExperimentConfig, build_search_space
from denitlab.dataset import Scaler, apply_scaler, fit_scaler, invert_target, \
    make_final_split
from denitlab.errors import InvalidSpec, SpecMismatch
from denitlab.models import (
    ARCH_TABLE, ARCHS, TASKS, ModelSpec, TrainedModel, deserialize, predict_batch, rollout_forecast_batch,
    serialize, spec_windows, train_model,
)
from denitlab.models.elastic_net import fit_elastic_net
from denitlab.models.gbt import fit_gbt
from denitlab.models.spec import DEFAULT_HYPERPARAMS
from denitlab.pipeline import train_on_plan
from denitlab.preprocess import build_windows

from conftest import make_frame


def identity_scaler(names):
    names = tuple(names)
    return Scaler(names=names, mean=np.zeros(len(names)),
                  std=np.ones(len(names)), fitted_on=((0, 1),),
                  target_index=names.index("nitrate_out"))


def constant_model(value, covariates=("nitrate_in",), h=0, task="nowcast"):
    n_feat = (h + 1) * (len(covariates) + (1 if task == "forecast" else 0))
    spec = ModelSpec("elastic_net", covariates, h=h, task=task)
    return TrainedModel(spec=spec,
                        parameters={"w": np.zeros(n_feat), "b": value,
                                    "converged": True},
                        scaler=identity_scaler([*covariates, "nitrate_out"]))


class TestPredict:
    def test_zero_weight_model_predicts_intercept(self):
        model = constant_model(3.5)
        ws = build_windows(make_frame({"nitrate_in": [7.0], "nitrate_out": [1.0]}),
                           ["nitrate_in"], h=0, horizon=0,
                           with_target_history=False, plan_ranges=[(0, 1)])
        assert predict_batch(model, ws).tolist() == [3.5]

    def test_same_sample_twice_identical_bits(self, small_frame):
        frame, _ = small_frame
        plan = make_final_split(frame)
        spec = ModelSpec("recurrent", ("nitrate_in", "methanol"), h=2,
                         task="nowcast",
                         hyperparams={"hidden": 4, "max_epochs": 2}, seed=0)
        model, _ = train_on_plan(spec, frame, plan)
        ws = spec_windows(spec, apply_scaler(frame, model.scaler), plan.test)
        assert np.array_equal(predict_batch(model, ws), predict_batch(model, ws))

    def test_shape_mismatch_rejected(self):
        model = constant_model(0.0, covariates=("nitrate_in",), h=1)
        frame = make_frame({"nitrate_in": np.ones(4), "nitrate_out": np.zeros(4)})
        bad = build_windows(frame, ["nitrate_in"], h=2, horizon=0,
                            with_target_history=False, plan_ranges=[(0, 4)])
        with pytest.raises(SpecMismatch):
            predict_batch(model, bad)

    def test_forecast_sample_needs_history(self):
        model = constant_model(0.0, task="forecast")
        frame = make_frame({"nitrate_in": np.ones(2), "nitrate_out": np.zeros(2)})
        bad = build_windows(frame, ["nitrate_in"], h=0, horizon=1,
                            with_target_history=False, plan_ranges=[(0, 2)])
        with pytest.raises(SpecMismatch):
            predict_batch(model, bad)


class TestSerialization:
    @pytest.mark.parametrize("arch,hp", [
        ("elastic_net", {"alpha": 1e-3}),
        ("gbt", {"n_trees": 10, "max_depth": 2}),
        ("recurrent", {"hidden": 4, "max_epochs": 2}),
        ("tcn", {"hidden": 4, "levels": 2, "kernel_size": 2, "max_epochs": 2}),
    ])
    def test_round_trip_predicts_identically(self, small_frame, arch, hp):
        frame, _ = small_frame
        plan = make_final_split(frame)
        spec = ModelSpec(arch, ("nitrate_in", "methanol", "water_flow"), h=2,
                         task="nowcast", hyperparams=hp, seed=5)
        model, _ = train_on_plan(spec, frame, plan)
        clone = deserialize(serialize(model))
        ws = spec_windows(spec, apply_scaler(frame, model.scaler), plan.test)
        assert np.array_equal(predict_batch(model, ws), predict_batch(clone, ws))

    def test_rejects_foreign_documents(self):
        with pytest.raises(SpecMismatch):
            deserialize('{"format": "something-else"}')


def rollout(model, frame, t, steps=6):
    """Rollout at the single anchor t, scaled and inverted with the model's scaler.

    The window is the spec's with ``steps - 1`` more history rows, anchored at
    t + steps - 1: the one anchor of the range [t-h, t+steps+1).
    """
    h = model.spec.h
    ws = build_windows(apply_scaler(frame, model.scaler), model.spec.covariates,
                       h + steps - 1, horizon=1, with_target_history=True,
                       plan_ranges=[(t - h, t + steps + 1)])
    assert ws.t.tolist() == [t + steps - 1]
    return invert_target(model.scaler, rollout_forecast_batch(model, ws)[0])


class TestRollout:
    def test_divergent_toy_model_doubles(self):
        # hand-built forecast model: prediction = 2 * last observed target
        spec = ModelSpec("elastic_net", (), h=0, task="forecast")
        model = TrainedModel(
            spec=spec, parameters={"w": np.array([2.0]), "b": 0.0,
                                   "converged": True},
            scaler=identity_scaler(["nitrate_out"]))
        frame = make_frame({"nitrate_out": [1.0] + [0.0] * 6})
        preds = rollout(model, frame, t=0, steps=6)
        assert preds == pytest.approx([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])

    def test_perfect_one_step_model_gives_zero_six_step_mse(self):
        # noiseless process: the target is an exact affine function of a
        # sinusoid, and sinusoids satisfy a two-lag linear recurrence, so an
        # h=1 linear model is a perfect one-step predictor
        t_axis = np.arange(600)
        c_in = 11.0 + 2.0 * np.sin(2 * np.pi * t_axis / 144)
        frame = make_frame({"nitrate_in": c_in, "nitrate_out": 0.48 * c_in})
        plan = make_final_split(frame)
        spec = ModelSpec("elastic_net", ("nitrate_in",), h=1, task="forecast",
                         hyperparams={"alpha": 0.0, "tol": 1e-14,
                                      "max_iter": 200000}, seed=0)
        model, _ = train_on_plan(spec, frame, plan)
        t = plan.test[0][0] + 10
        preds = rollout(model, frame, t=t, steps=6)
        actual = frame.col("nitrate_out")[t + 1:t + 7]
        assert np.abs(preds - actual).max() < 1e-6

    def test_constant_history_fixed_point_matches_seasonal(self):
        # a model that copies the last target: on constant history the rollout
        # repeats the constant, exactly what the seasonal baseline emits
        from denitlab.baselines import seasonal_predict
        spec = ModelSpec("elastic_net", (), h=0, task="forecast")
        model = TrainedModel(
            spec=spec, parameters={"w": np.array([1.0]), "b": 0.0,
                                   "converged": True},
            scaler=identity_scaler(["nitrate_out"]))
        frame = make_frame({"nitrate_out": [4.2] * 12})
        preds = rollout(model, frame, t=5, steps=6)
        assert preds == pytest.approx(seasonal_predict(frame.col("nitrate_out")[:6], 6))

    def test_nowcast_model_cannot_roll_out(self):
        model = constant_model(0.0)
        frame = make_frame({"nitrate_in": [1.0] * 10, "nitrate_out": [1.0] * 10})
        with pytest.raises(SpecMismatch):
            rollout(model, frame, t=2, steps=6)


class TestTrainModelContract:
    def test_window_set_must_match_spec(self, small_frame):
        frame, _ = small_frame
        plan = make_final_split(frame)
        scaler = fit_scaler(frame, plan.train)
        scaled = apply_scaler(frame, scaler)
        ws = build_windows(scaled, ["nitrate_in"], h=1, horizon=0,
                           with_target_history=False, plan_ranges=plan.train)
        wrong = ModelSpec("elastic_net", ("methanol",), h=1, task="nowcast")
        with pytest.raises(SpecMismatch):
            train_model(wrong, ws, None, scaler)

    @pytest.mark.parametrize("task, horizon, side", [
        ("nowcast", 1, "train"), ("nowcast", 1, "validation"),
        ("forecast", 0, "train"), ("forecast", 0, "validation")])
    def test_window_horizon_must_match_task(self, task, horizon, side):
        # a nowcast fitted on horizon-1 windows would learn y[t+1]
        from denitlab.synthpilot import SynthConfig, generate
        frame, _ = generate(SynthConfig(days=8, seed=1))
        plan = make_final_split(frame)
        scaler = fit_scaler(frame, plan.train)
        scaled = apply_scaler(frame, scaler)
        spec = ModelSpec("elastic_net", ("nitrate_in",), h=1, task=task,
                         hyperparams={"alpha": 0.0})
        right = spec_windows(spec, scaled, plan.train)
        wrong = build_windows(scaled, ["nitrate_in"], h=1, horizon=horizon,
                              with_target_history=spec.uses_target_history,
                              plan_ranges=plan.train)
        train, val = (wrong, right) if side == "train" else (right, wrong)
        with pytest.raises(SpecMismatch, match=f"horizon {horizon}"):
            train_model(spec, train, val, scaler)


GOLDEN_HYPERPARAMS = {
    "elastic_net": {"alpha": 1e-3},
    "gbt": {"n_trees": 10, "max_depth": 2, "subsample": 0.7},
    "recurrent": {"hidden": 4, "max_epochs": 2},
    "tcn": {"hidden": 4, "levels": 2, "kernel_size": 2, "max_epochs": 2},
}

# (serialized model, first 5 default-space specs at seed 0), recorded before
# the per-arch code moved into one table; the two elastic-net models were
# re-recorded when the solver gained its exact step
GOLDEN_DIGESTS = {
    ("elastic_net", "nowcast"): (
        "f1ee78edcf6a3f2fc204f406ab4045f607397a711fb3aeae84c985b8b61861dd",
        "91758003b787716d3a841308d3db6fc4902ec34b0f6e3727b293e194f97d1623"),
    ("elastic_net", "forecast"): (
        "7c62cb92fdec7c7d3658dcd25297015402b680829bc2abf1409f4edd92744f05",
        "84e5123e95902e7efda10ed69c761b195a5d0caa64ebd3d47c99d84d65d10f44"),
    ("gbt", "nowcast"): (
        "fe57aaab129a0c22a44090a7c83655ca00bb40b5bdcc5229b954898956c3ddea",
        "154875de0d0beda1245161ff97ca5a52803902d4867b84cfb655bea702a1a1fa"),
    ("gbt", "forecast"): (
        "1abcbb117ec02199c8e72f47a0fb288660f46c6c9cb0f97bfd9338e4dda342ef",
        "f22864b722c242b25cdd107dadc54ef5da09f5f5704db4fee43920d9045b08d0"),
    ("recurrent", "nowcast"): (
        "8b092b3b9e0eb714167c872e9e9f186da7da033406c5c711bbb9af43da23599e",
        "9ab62fc2c5f6fbdd1b59f558e27f5534a16425bb413e719c25f4c6d65080c22e"),
    ("recurrent", "forecast"): (
        "67586f56d539524233721bd70f61ceed5a8bd46c1c85adf40663e2583b6a2b68",
        "4cea001d2126ab8925aa2febb719ca50447feef371157642006adc140917aa9a"),
    ("tcn", "nowcast"): (
        "49875ce185c3e90680f9286ed7d7ba179bcdaf9cd400ab02de7b6b695cfeb4d7",
        "f71b2eb1b27e061aa2b8da48bacffe66bcdf122d68d687bc408559e165520cdf"),
    ("tcn", "forecast"): (
        "042737f20d7e0d03048e5087cd7ba80df7c5aaeda10799d516fdca92b1d501ef",
        "7bcc38481fa693776b2911535ef9c869da9996d8fd935b16a6b258e0b6fc06be"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenDigests:
    def test_every_arch_has_one_table_entry(self):
        assert set(ARCH_TABLE) == set(ARCHS)

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("arch", ARCHS)
    def test_trained_model_unchanged(self, small_frame, arch, task):
        frame, _ = small_frame
        spec = ModelSpec(arch, ("nitrate_in", "methanol", "water_flow"), h=2,
                         task=task, hyperparams=GOLDEN_HYPERPARAMS[arch], seed=5)
        model, _ = train_on_plan(spec, frame, make_final_split(frame))
        assert _sha256(serialize(model)) == GOLDEN_DIGESTS[arch, task][0]

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("arch", ARCHS)
    def test_default_space_draws_unchanged(self, arch, task):
        # hyperparams keep the space's dimension order, so a reordered space
        # changes the digest as well as every draw
        space = build_search_space(ExperimentConfig(), arch)
        rng = np.random.default_rng(0)
        specs = [space.sample_spec(rng, task).to_dict() for _ in range(5)]
        assert _sha256(json.dumps(specs)) == GOLDEN_DIGESTS[arch, task][1]


COUNT_HYPERPARAMS = ("max_iter", "n_trees", "max_depth", "min_samples_leaf",
                     "hidden", "levels", "kernel_size", "batch_size",
                     "max_epochs", "patience")


class TestSpecValidation:
    @staticmethod
    def spec(name, value):
        arch = next(a for a, hp in DEFAULT_HYPERPARAMS.items() if name in hp)
        return ModelSpec(arch, ("nitrate_in",), h=1, task="nowcast",
                         hyperparams={name: value})

    @pytest.mark.parametrize("value", [2.5, 2.0, True],
                             ids=["fraction", "whole-float", "bool"])
    @pytest.mark.parametrize("name", COUNT_HYPERPARAMS)
    def test_count_hyperparameter_must_be_an_integer(self, name, value):
        with pytest.raises(InvalidSpec):
            self.spec(name, value)

    @pytest.mark.parametrize("name", COUNT_HYPERPARAMS)
    def test_count_hyperparameter_accepts_numpy_integers(self, name):
        assert self.spec(name, np.int64(3)).hyperparams[name] == 3

    def test_bool_history_length_rejected(self):
        with pytest.raises(InvalidSpec):
            ModelSpec("elastic_net", ("nitrate_in",), h=True, task="nowcast")

    @pytest.mark.parametrize("arch,fit", [("elastic_net", fit_elastic_net),
                                          ("gbt", fit_gbt)])
    def test_fitter_defaults_are_the_arch_defaults(self, arch, fit):
        params = inspect.signature(fit).parameters
        assert ({name: params[name].default for name in DEFAULT_HYPERPARAMS[arch]}
                == DEFAULT_HYPERPARAMS[arch])
        with pytest.raises(TypeError):  # a misspelled hyperparameter
            fit(np.eye(3), np.arange(3.0), max_iters=5)
