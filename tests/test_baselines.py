import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denitlab.baselines import (
    RUNNING_MEAN, SEASONAL, TRAINING_MEAN, TREND3, TREND6, running_mean_predict,
    seasonal_predict, training_mean_predict, trend_n_predict,
)
from denitlab.errors import EmptyTraining, InsufficientHistory

finite_lists = st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                  allow_nan=False), min_size=1, max_size=50)


class TestTrainingMean:
    def test_constant_prediction(self):
        assert training_mean_predict(np.array([1.0, 2.0, 3.0]), 4) \
            == pytest.approx([2.0] * 4)

    def test_constant_series_zero_error(self):
        preds = training_mean_predict(np.full(10, 3.3), 5)
        assert ((preds - 3.3) ** 2).mean() == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyTraining):
            training_mean_predict(np.array([]), 1)


class TestRunningMean:
    def test_prefix_means(self):
        preds = running_mean_predict(np.array([2.0, 4.0, 6.0, 8.0]))
        assert preds == pytest.approx([2.0, 2.0, 3.0, 4.0])

    def test_singleton_self_predicts(self):
        assert running_mean_predict(np.array([5.0])) == pytest.approx([5.0])

    @settings(max_examples=40, deadline=None)
    @given(finite_lists)
    def test_matches_bruteforce(self, values):
        got = running_mean_predict(np.array(values))
        for t in range(len(values)):
            expected = values[0] if t == 0 else np.mean(values[:t])
            assert got[t] == pytest.approx(expected)


class TestSeasonal:
    def test_repeats_preceding_hour(self):
        hist = np.array([9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert seasonal_predict(hist, 6) == pytest.approx([1, 2, 3, 4, 5, 6])

    def test_constant_series_zero_forecast_error(self):
        hist = np.full(12, 2.5)
        assert seasonal_predict(hist, 6) == pytest.approx([2.5] * 6)

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            seasonal_predict(np.array([1.0, 2.0]), 6)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e5, 1e5), min_size=6, max_size=30),
           st.floats(-1e5, 1e5))
    def test_translation_equivariance(self, hist, c):
        hist = np.array(hist)
        base = seasonal_predict(hist, 6)
        shifted = seasonal_predict(hist + c, 6)
        assert shifted == pytest.approx(base + c, abs=1e-6, rel=1e-9)


class TestTrendN:
    def test_exact_line_extrapolation(self):
        hist = np.array([1.0, 2.0, 3.0])  # slope 1 through (0,1),(1,2),(2,3)
        assert trend_n_predict(hist, n=3, horizon=2) == pytest.approx([4.0, 5.0])

    def test_two_equal_points_extrapolate_flat(self):
        assert trend_n_predict(np.array([7.0, 7.0]), n=2, horizon=3) \
            == pytest.approx([7.0, 7.0, 7.0])

    def test_uses_only_last_n(self):
        hist = np.array([100.0, -50.0, 1.0, 2.0, 3.0])
        assert trend_n_predict(hist, n=3, horizon=1) == pytest.approx([4.0])

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            trend_n_predict(np.array([1.0]), n=2, horizon=1)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e4, 1e4), min_size=4, max_size=20),
           st.floats(-1e4, 1e4))
    def test_translation_equivariance(self, hist, c):
        hist = np.array(hist)
        base = trend_n_predict(hist, n=4, horizon=3)
        shifted = trend_n_predict(hist + c, n=4, horizon=3)
        assert shifted == pytest.approx(base + c, abs=1e-6, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e4, 1e4), min_size=5, max_size=25))
    def test_matches_polyfit_oracle(self, hist):
        hist = np.array(hist)
        got = trend_n_predict(hist, n=5, horizon=4)
        coeffs = np.polyfit(np.arange(5), hist[-5:], deg=1)
        expected = np.polyval(coeffs, np.arange(5, 9))
        assert got == pytest.approx(expected, abs=1e-6, rel=1e-6)


class TestBatchedHistory:
    """A (B, L) history gives the (B, horizon) stack of the row-by-row calls."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), st.integers(6, 15), st.integers(0, 2 ** 32 - 1))
    def test_two_dimensional_calls_equal_row_by_row(self, batch, length, seed):
        hist = np.random.default_rng(seed).normal(10.0, 3.0, size=(batch, length))
        for n in (2, 3, 6):
            assert np.array_equal(trend_n_predict(hist, n, 6),
                                  np.stack([trend_n_predict(row, n, 6) for row in hist]))
        assert np.array_equal(seasonal_predict(hist, 6),
                              np.stack([seasonal_predict(row, 6) for row in hist]))

    def test_short_history_rejected_along_last_axis(self):
        with pytest.raises(InsufficientHistory):
            seasonal_predict(np.zeros((10, 5)), 6)
        with pytest.raises(InsufficientHistory):
            trend_n_predict(np.zeros((10, 2)), n=3)


def test_spec_names_match_reporting_convention():
    assert TRAINING_MEAN.name == "BaselineTrainingMean"
    assert RUNNING_MEAN.name == "BaselineTestRunningMean"
    assert SEASONAL.name == "BaselineSeasonal"
    assert TREND6.name == "BaselineTrend6"
    assert TREND3.name == "BaselineTrend3"


def test_trend_requires_two_points():
    with pytest.raises(InsufficientHistory):
        trend_n_predict(np.zeros(5), n=1)
