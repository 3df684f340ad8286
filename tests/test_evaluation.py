import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denitlab.baselines import SEASONAL, TRAINING_MEAN, TREND3, TREND6
from denitlab.dataset import make_final_split
from denitlab.errors import LengthMismatch, MixedGroups, NonFinite, SpecMismatch
from denitlab.evaluation import (
    EvalReport, aggregate_seeds, evaluate, forecast_horizon_breakdown, mae, mse,
)
from denitlab.models import ModelSpec
from denitlab.pipeline import train_on_plan

from conftest import make_frame


class TestMetrics:
    def test_perfect_prediction(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_arithmetic(self):
        assert mse([0.0, 0.0], [1.0, 3.0]) == pytest.approx(5.0)
        assert mae([0.0, 0.0], [1.0, 3.0]) == pytest.approx(2.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mse([1.0], [1.0, 2.0])
        with pytest.raises(LengthMismatch):
            mse([], [])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            mse([np.nan], [1.0])
        with pytest.raises(NonFinite):
            mae([1.0], [np.inf])

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=1000)
        actual = rng.normal(size=1000)
        naive_mse = sum((p - a) ** 2 for p, a in zip(pred, actual)) / 1000
        naive_mae = sum(abs(p - a) for p, a in zip(pred, actual)) / 1000
        assert abs(mse(pred, actual) - naive_mse) / naive_mse <= 1e-10
        assert abs(mae(pred, actual) - naive_mae) / naive_mae <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=60),
           st.integers(0, 2 ** 31))
    def test_mae_squared_never_exceeds_mse(self, pred, seed):
        rng = np.random.default_rng(seed)
        actual = rng.normal(size=len(pred))
        assert mae(pred, actual) ** 2 <= mse(pred, actual) * (1 + 1e-9)


class TestEvalReport:
    def test_cauchy_schwarz_guard(self):
        with pytest.raises(ValueError):
            EvalReport("m", "nowcast", "test", mse=1.0, mae=2.0, n_points=3, seed=0)

    def test_valid_report(self):
        r = EvalReport("m", "nowcast", "test", mse=4.0, mae=1.5, n_points=3, seed=0)
        assert r.mse == 4.0


class TestAggregateSeeds:
    def test_sample_std(self):
        reports = [EvalReport("m", "nowcast", "test", float(v), 0.1, 10, s)
                   for s, v in enumerate([1.0, 2.0, 3.0])]
        agg = aggregate_seeds(reports)
        assert agg.mean_mse == pytest.approx(2.0)
        assert agg.std_mse == pytest.approx(1.0)  # ddof=1

    def test_single_report_std_zero(self):
        agg = aggregate_seeds([EvalReport("m", "nowcast", "test", 1.0, 0.5, 5, 0)])
        assert agg.std_mse == 0.0
        assert agg.n_seeds == 1

    def test_identical_reports_std_zero(self):
        reports = [EvalReport("m", "nowcast", "test", 2.5, 1.0, 5, s)
                   for s in range(10)]
        agg = aggregate_seeds(reports)
        assert agg.std_mse == 0.0
        assert agg.n_seeds == 10

    def test_identical_inexact_scores_report_the_value_and_std_zero(self):
        # ten copies of these sum to neither 10x the value nor a zero spread
        v = 0.2384738857005055
        reports = [EvalReport("m", "nowcast", "test", v, 0.3, 5, s) for s in range(10)]
        agg = aggregate_seeds(reports)
        assert (agg.mean_mse, agg.std_mse) == (v, 0.0)
        assert (agg.mean_mae, agg.std_mae) == (0.3, 0.0)

    def test_mixed_groups_rejected(self):
        with pytest.raises(MixedGroups):
            aggregate_seeds([
                EvalReport("m", "nowcast", "test", 1.0, 0.5, 5, 0),
                EvalReport("other", "nowcast", "test", 1.0, 0.5, 5, 1),
            ])


def _linear_frame(n=400, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    x = 10 + np.sin(2 * np.pi * np.arange(n) / 144) + rng.normal(0, 0.5, n)
    y = 0.5 * x + noise * rng.normal(size=n)
    return make_frame({"nitrate_in": x, "nitrate_out": y})


class TestEvaluate:
    def test_training_mean_on_constant_target_is_zero(self):
        frame = make_frame({"nitrate_in": np.arange(100.0),
                            "nitrate_out": np.full(100, 3.0)})
        plan = make_final_split(frame)
        report = evaluate(TRAINING_MEAN, frame, plan, "nowcast", split="test")
        assert report.mse == 0.0

    def test_model_evaluation_beats_baseline_on_linear_data(self):
        frame = _linear_frame()
        plan = make_final_split(frame)
        spec = ModelSpec("elastic_net", ("nitrate_in",), h=0, task="nowcast",
                         hyperparams={"alpha": 1e-6}, seed=0)
        model, _ = train_on_plan(spec, frame, plan)
        model_report = evaluate(model, frame, plan, "nowcast", split="test")
        base_report = evaluate(TRAINING_MEAN, frame, plan, "nowcast", split="test")
        assert model_report.mse < 1e-6
        assert model_report.mse < base_report.mse

    def test_seasonal_baseline_rejected_for_nowcast(self):
        frame = _linear_frame()
        plan = make_final_split(frame)
        with pytest.raises(SpecMismatch):
            evaluate(SEASONAL, frame, plan, "nowcast")

    def test_task_mismatch_rejected(self):
        frame = _linear_frame()
        plan = make_final_split(frame)
        spec = ModelSpec("elastic_net", ("nitrate_in",), h=0, task="nowcast",
                         seed=0)
        model, _ = train_on_plan(spec, frame, plan)
        with pytest.raises(SpecMismatch):
            evaluate(model, frame, plan, "forecast")

    def test_forecast_pools_six_horizons(self):
        frame = _linear_frame()
        plan = make_final_split(frame)
        spec = ModelSpec("elastic_net", ("nitrate_in",), h=1, task="forecast",
                         hyperparams={"alpha": 1e-3, "max_iter": 20000}, seed=0)
        model, _ = train_on_plan(spec, frame, plan)
        report = evaluate(model, frame, plan, "forecast", split="test")
        assert report.n_points % 6 == 0
        breakdown = forecast_horizon_breakdown(model, frame, plan)
        assert len(breakdown) == 6
        assert np.mean(breakdown) == pytest.approx(report.mse)

    def test_copy_model_equals_lag_one_at_horizon_one(self):
        # a forecast model that outputs the last observed target must score
        # exactly like a one-step-lagged copy of the series
        from denitlab.dataset import Scaler, apply_scaler
        from denitlab.models import TrainedModel, predict_batch
        from denitlab.preprocess import build_windows

        frame = _linear_frame(noise=0.3, seed=5)
        plan = make_final_split(frame)
        names = ("nitrate_in", "nitrate_out")
        scaler = Scaler(names=names, mean=np.zeros(2), std=np.ones(2),
                        fitted_on=((0, 1),), target_index=1)
        spec = ModelSpec("elastic_net", ("nitrate_in",), h=0, task="forecast")
        model = TrainedModel(spec=spec,
                             parameters={"w": np.array([0.0, 1.0]), "b": 0.0,
                                         "converged": True},
                             scaler=scaler)
        ws = build_windows(apply_scaler(frame, scaler), ("nitrate_in",), 0,
                           horizon=1, with_target_history=True,
                           plan_ranges=plan.test)
        preds = predict_batch(model, ws)
        y = frame.col("nitrate_out")
        anchors = ws.t
        assert mse(preds, y[anchors + 1]) == pytest.approx(
            mse(y[anchors], y[anchors + 1]))

    def test_exact_scaled_predictions_invert_to_zero_mse(self):
        frame = _linear_frame()
        plan = make_final_split(frame)
        spec = ModelSpec("elastic_net", ("nitrate_in",), h=0, task="nowcast",
                         hyperparams={"alpha": 0.0, "tol": 1e-14,
                                      "max_iter": 100000}, seed=0)
        model, _ = train_on_plan(spec, frame, plan)
        report = evaluate(model, frame, plan, "nowcast", split="test")
        assert report.mse < 1e-12


def _gappy_frame(seed, n=300):
    """Two covariates and a target with blank cells and four gap breaks."""
    from denitlab.dataset import Gap
    rng = np.random.default_rng(seed)
    cols = {name: 10 + rng.normal(size=n)
            for name in ("nitrate_in", "methanol", "nitrate_out")}
    for values in cols.values():
        values[rng.random(n) < 0.03] = np.nan
    breaks = sorted(rng.choice(np.arange(5, n - 5), size=4, replace=False).tolist())
    return make_frame(cols, gaps=tuple(Gap(int(b), 3) for b in breaks))


@pytest.mark.parametrize("h", [0, 2])
@pytest.mark.parametrize("task", ["nowcast", "forecast"])
def test_model_scores_the_anchors_of_its_training_rule(task, h):
    from denitlab.dataset import FORECAST_HORIZON, SPLITS, apply_scaler
    from denitlab.evaluation import model_pairs
    from denitlab.models import spec_windows
    frame = _gappy_frame(0)
    plan = make_final_split(frame, 0.5, 0.2)
    spec = ModelSpec("elastic_net", ("nitrate_in", "methanol"), h=h, task=task,
                     hyperparams={"alpha": 1e-3})
    model, _ = train_on_plan(spec, frame, plan)
    scaled = apply_scaler(frame, model.scaler)
    steps = FORECAST_HORIZON if task == "forecast" else 1
    for split in SPLITS:
        ranges = getattr(plan, split)
        anchors, _, _ = model_pairs(model, frame, ranges)
        assert np.array_equal(anchors,
                              spec_windows(spec, scaled, ranges, steps).t - (steps - 1))


class TestForecastAnchorSets:
    """Forecast scoring keeps exactly the anchors a per-anchor scan admits."""

    @staticmethod
    def _admitted(frame, ranges, first, last, columns):
        """Anchors t whose rows t+first .. t+last stay in one range, cross
        no gap and are finite in ``columns``."""
        breaks = frame.gap_break_indices()
        finite = np.all(np.isfinite(frame.values[:, [frame.col_index(c)
                                                     for c in columns]]), axis=1)
        out = []
        for rs, re_ in ranges:
            for t in range(rs, re_):
                lo, hi = t + first, t + last
                if lo >= rs and hi < re_ and finite[lo:hi + 1].all() \
                        and not any(lo <= b < hi for b in breaks):
                    out.append(t)
        return np.array(out, dtype=int)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spec", [TRAINING_MEAN, SEASONAL, TREND3, TREND6],
                             ids=lambda s: s.name)
    def test_baseline_blocks_match_scan(self, seed, spec):
        from denitlab.baselines import seasonal_predict, training_mean_predict, \
            trend_n_predict
        from denitlab.evaluation import _baseline_pairs
        frame = _gappy_frame(seed)
        plan = make_final_split(frame, 0.5, 0.2)
        y = frame.col("nitrate_out")
        need = spec.history_needed
        for split in ("train", "validation", "test"):
            anchors = self._admitted(frame, getattr(plan, split), 1 - need, 6,
                                     ("nitrate_out",))
            if spec is TRAINING_MEAN:
                train_y = np.concatenate([y[s:e] for s, e in plan.train])
                blocks = [training_mean_predict(train_y, 6)] * len(anchors)
            elif spec is SEASONAL:
                blocks = [seasonal_predict(y[t - 5:t + 1], 6) for t in anchors]
            else:
                blocks = [trend_n_predict(y[t - need + 1:t + 1], need, 6)
                          for t in anchors]
            _, preds, actual = _baseline_pairs(spec, frame, plan, split, "forecast")
            assert np.array_equal(actual, np.concatenate(
                [y[t + 1:t + 7] for t in anchors]))
            assert np.array_equal(preds, np.concatenate(blocks))

    def test_training_mean_forecast_needs_anchor_target_and_no_gap_after_it(self):
        # the anchor's own target must be valid and no gap may separate it
        # from t+1, as for every other forecast row
        from denitlab.dataset import Gap
        from denitlab.evaluation import _baseline_pairs
        y = np.arange(100.0)
        y[80] = np.nan
        frame = make_frame({"nitrate_in": np.ones(100), "nitrate_out": y},
                           gaps=(Gap(90, 2),))
        plan = make_final_split(frame, 0.5, 0.2)
        assert plan.test == ((70, 100),)
        _, _, actual = _baseline_pairs(TRAINING_MEAN, frame, plan, "test", "forecast")
        anchors = actual.reshape(-1, 6)[:, 0] - 1  # y[t + 1] == t + 1
        # parent rule (t+1 .. t+6 only) also admitted 80 and 90
        assert np.array_equal(anchors, np.r_[70:74, 81:85, 91:94])

    def test_rollout_reads_covariates_through_t_plus_five(self):
        # step s reads covariate rows t-h+s-1 .. t+s-1, so a blank covariate
        # at row 50 spoils anchors 45..49 (future) and 50..52 (history) only
        from denitlab.dataset import Scaler, apply_scaler
        from denitlab.evaluation import model_pairs
        from denitlab.models import TrainedModel, rollout_forecast_batch
        from denitlab.preprocess import build_windows
        rng = np.random.default_rng(0)
        methanol = 10 + rng.normal(size=60)
        methanol[50] = np.nan
        frame = make_frame({"methanol": methanol,
                            "nitrate_out": 10 + rng.normal(size=60)})
        scaler = Scaler(names=frame.names, mean=np.zeros(2), std=np.ones(2),
                        fitted_on=((0, 1),), target_index=1)
        spec = ModelSpec("elastic_net", ("methanol",), h=2, task="forecast")
        model = TrainedModel(spec=spec, parameters={"w": np.full(6, 0.1), "b": 0.0,
                                                    "converged": True},
                             scaler=scaler)
        # the rollout windows of anchors 44 and 45 end at rows 49 and 50
        ws = build_windows(apply_scaler(frame, scaler), ("methanol",), 2 + 5,
                           horizon=1, with_target_history=True,
                           plan_ranges=((42, 52),))
        assert (ws.t - 5).tolist() == [44]
        assert np.all(np.isfinite(rollout_forecast_batch(model, ws)))
        anchors, preds, _ = model_pairs(model, frame, ((30, 60),))
        assert np.array_equal(anchors, np.r_[32:45, 53])
        assert np.all(np.isfinite(preds))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("h", [0, 2])
    def test_model_rollout_anchors_match_scan(self, seed, h):
        from denitlab.dataset import Scaler
        from denitlab.evaluation import model_pairs
        from denitlab.models import TrainedModel
        frame = _gappy_frame(seed)
        plan = make_final_split(frame, 0.5, 0.2)
        scaler = Scaler(names=frame.names, mean=np.zeros(3), std=np.ones(3),
                        fitted_on=((0, 1),), target_index=2)
        spec = ModelSpec("elastic_net", ("methanol",), h=h, task="forecast")
        model = TrainedModel(spec=spec,
                             parameters={"w": np.zeros(2 * (h + 1)), "b": 0.0,
                                         "converged": True},
                             scaler=scaler)
        anchors = np.intersect1d(
            self._admitted(frame, plan.test, -h, 6, ("nitrate_out",)),
            self._admitted(frame, plan.test, -h, 5, ("methanol",)))
        got, _, actual = model_pairs(model, frame, plan.test)
        assert np.array_equal(got, anchors)
        y = frame.col("nitrate_out")
        assert np.array_equal(actual, y[anchors[:, None] + np.arange(1, 7)].ravel())

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("h", [0, 2])
    def test_model_scores_equal_single_anchor_rollouts(self, seed, h):
        # scoring rolls out every anchor in one batch; here each anchor rolls
        # out alone (one row against many through the same matrix product:
        # last bits differ)
        from denitlab.dataset import apply_scaler, invert_target
        from denitlab.evaluation import model_pairs
        from denitlab.models import rollout_forecast_batch
        from denitlab.preprocess import build_windows
        frame = _gappy_frame(seed)
        plan = make_final_split(frame, 0.5, 0.2)
        spec = ModelSpec("elastic_net", ("nitrate_in", "methanol"), h=h,
                         task="forecast", hyperparams={"alpha": 1e-3}, seed=0)
        model, _ = train_on_plan(spec, frame, plan)
        assert np.any(model.parameters["w"] != 0.0)
        anchors = np.intersect1d(
            self._admitted(frame, plan.test, -h, 6, ("nitrate_out",)),
            self._admitted(frame, plan.test, -h, 5, ("nitrate_in", "methanol")))
        _, preds, _ = model_pairs(model, frame, plan.test)
        scaled = apply_scaler(frame, model.scaler)

        def alone(t):
            # the one rollout window of the range [t-h, t+7) is anchored at t+5
            ws = build_windows(scaled, spec.covariates, h + 5, horizon=1,
                               with_target_history=True, plan_ranges=[(t - h, t + 7)])
            return invert_target(model.scaler, rollout_forecast_batch(model, ws)[0])

        np.testing.assert_allclose(preds, np.concatenate([alone(t) for t in anchors]),
                                   rtol=1e-13)
