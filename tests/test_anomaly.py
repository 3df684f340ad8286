import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denitlab.anomaly import (
    MISSED_TARGET_PEAK, SPURIOUS_PREDICTED_PEAK, SUSTAINED_BIAS, AnomalyParams,
    _diff_corr, detect_anomalies, events_to_json,
)
from denitlab.errors import BadParams, LengthMismatch, NonFinite

PARAMS = AnomalyParams(peak_window=21, peak_sigma=5.0, follow_ratio=0.5,
                       bias_window=12, bias_threshold=1.0)


def wiggly(n=240, seed=0, amplitude=1.0):
    rng = np.random.default_rng(seed)
    return amplitude * np.sin(np.arange(n) / 5.0) + rng.normal(0, 0.05, n)


class TestDetect:
    def test_identical_series_yield_nothing(self):
        x = wiggly()
        assert detect_anomalies(x, x, PARAMS) == []

    def test_missed_peak_flagged_as_class_one(self):
        actual = np.zeros(200)
        actual[100:106] = 10.0
        pred = np.zeros(200)
        events = detect_anomalies(pred, actual, PARAMS)
        assert len(events) == 1
        ev = events[0]
        assert ev.klass == MISSED_TARGET_PEAK
        assert (ev.start_index, ev.end_index) == (100, 106)
        assert ev.magnitude == pytest.approx(10.0)

    def test_spurious_peak_flagged_as_class_two(self):
        pred = np.zeros(200)
        pred[50:55] = 8.0
        events = detect_anomalies(pred, np.zeros(200), PARAMS)
        assert [ev.klass for ev in events] == [SPURIOUS_PREDICTED_PEAK]

    def test_followed_peak_not_anomalous(self):
        actual = np.zeros(200)
        actual[100:106] = 10.0
        pred = 0.9 * actual
        assert detect_anomalies(pred, actual, PARAMS) == []

    def test_constant_bias_with_tracked_shape_is_class_three(self):
        actual = wiggly()
        pred = actual + 2 * PARAMS.bias_threshold
        events = detect_anomalies(pred, actual, PARAMS)
        assert len(events) == 1
        ev = events[0]
        assert ev.klass == SUSTAINED_BIAS
        assert (ev.start_index, ev.end_index) == (0, len(actual))
        assert ev.magnitude == pytest.approx(2 * PARAMS.bias_threshold)

    def test_bias_without_shape_tracking_is_not_class_three(self):
        rng = np.random.default_rng(1)
        actual = wiggly(seed=2, amplitude=2.0)
        pred = rng.normal(0, 2.0, len(actual)) + 2 * PARAMS.bias_threshold
        events = detect_anomalies(pred, actual, PARAMS)
        assert all(ev.klass != SUSTAINED_BIAS for ev in events)

    def test_short_bias_run_ignored(self):
        actual = wiggly()
        pred = np.array(actual)
        pred[100:106] += 2 * PARAMS.bias_threshold  # shorter than bias_window
        events = detect_anomalies(pred, actual, PARAMS)
        assert all(ev.klass != SUSTAINED_BIAS for ev in events)

    def test_stretches_are_analysed_apart(self):
        # two 60-row stretches with a +1.5 bias on the 30 rows either side of
        # the join: taken as one series they give a class-3 event across it,
        # each alone is shorter than bias_window
        actual = wiggly(120)
        pred = np.array(actual)
        pred[30:90] += 1.5
        assert [ev.klass for ev in detect_anomalies(pred, actual)] == [SUSTAINED_BIAS]
        assert detect_anomalies(pred, actual, AnomalyParams(), starts=[60]) == []

    def test_stretch_events_are_each_stretch_alone_at_its_offset(self):
        actual = wiggly(seed=3)
        pred = np.array(actual)
        pred[20:26] = 8.0
        pred[150:200] += 2 * PARAMS.bias_threshold
        actual[90:95] = 6.0
        starts = [0, 80, 80, 140, 141, 240]  # repeats and a 1-row stretch
        got = detect_anomalies(pred, actual, PARAMS, starts)
        want = []
        for lo, hi in [(0, 80), (80, 140), (141, 240)]:
            want += [(ev.klass, ev.start_index + lo, ev.end_index + lo, ev.magnitude)
                     for ev in detect_anomalies(pred[lo:hi], actual[lo:hi], PARAMS)]
        assert [(ev.klass, ev.start_index, ev.end_index, ev.magnitude)
                for ev in got] == sorted(want, key=lambda ev: ev[:2])
        assert {ev.klass for ev in got} == {1, 2, 3}

    def test_length_mismatch_and_nan_rejected(self):
        with pytest.raises(LengthMismatch):
            detect_anomalies(np.zeros(5), np.zeros(6), PARAMS)
        with pytest.raises(NonFinite):
            detect_anomalies(np.array([np.nan, 0.0]), np.zeros(2), PARAMS)

    def test_bad_params_rejected(self):
        with pytest.raises(BadParams):
            AnomalyParams(peak_sigma=0.0)


class TestSymmetries:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_role_symmetry_swaps_class_one_and_two(self, seed):
        rng = np.random.default_rng(seed)
        base = wiggly(seed=seed)
        pred = np.array(base)
        actual = np.array(base)
        actual[60:66] += 12.0  # peak in actual only
        if seed % 2:
            pred[150:155] += 9.0  # sometimes a spurious peak as well
        fwd = detect_anomalies(pred, actual, PARAMS)
        rev = detect_anomalies(actual, pred, PARAMS)
        swap = {MISSED_TARGET_PEAK: SPURIOUS_PREDICTED_PEAK,
                SPURIOUS_PREDICTED_PEAK: MISSED_TARGET_PEAK,
                SUSTAINED_BIAS: SUSTAINED_BIAS}
        fwd_peaks = sorted((swap[e.klass], e.start_index, e.end_index,
                            round(e.magnitude, 9))
                           for e in fwd if e.klass != SUSTAINED_BIAS)
        rev_peaks = sorted((e.klass, e.start_index, e.end_index,
                            round(e.magnitude, 9))
                           for e in rev if e.klass != SUSTAINED_BIAS)
        assert fwd_peaks == rev_peaks

    @settings(max_examples=20, deadline=None)
    @given(shift=st.floats(-1e4, 1e4, allow_nan=False), seed=st.integers(0, 100))
    def test_translation_invariance(self, shift, seed):
        base = wiggly(seed=seed)
        pred = np.array(base)
        actual = np.array(base)
        actual[60:66] += 12.0
        pred[30:] += 1.7 * PARAMS.bias_threshold
        before = detect_anomalies(pred, actual, PARAMS)
        after = detect_anomalies(pred + shift, actual + shift, PARAMS)
        assert [(e.klass, e.start_index, e.end_index) for e in before] \
            == [(e.klass, e.start_index, e.end_index) for e in after]

    def test_same_class_events_disjoint(self):
        actual = np.zeros(400)
        for s in (50, 150, 250):
            actual[s:s + 6] = 10.0
        events = detect_anomalies(np.zeros(400), actual, PARAMS)
        ones = [e for e in events if e.klass == MISSED_TARGET_PEAK]
        assert len(ones) == 3
        for a, b in zip(ones, ones[1:]):
            assert a.end_index <= b.start_index


def test_json_export():
    import json
    from datetime import datetime, timedelta
    actual = np.zeros(120)
    actual[60:66] = 10.0
    events = detect_anomalies(np.zeros(120), actual, PARAMS)
    # series position i is frame row i + 5; rows are 10 minutes apart
    anchors = np.arange(120) + 5
    t0 = datetime(2024, 1, 1)
    timestamps = [t0 + timedelta(minutes=10 * r) for r in range(130)]
    doc = json.loads(events_to_json(events, anchors, timestamps))
    ev = events[0]
    assert doc[0]["class"] == 1
    assert doc[0]["start"] == ev.start_index + 5 == 65
    assert doc[0]["end"] == ev.end_index + 5
    assert doc[0]["start_time"] == timestamps[65].isoformat()
    assert doc[0]["end_time"] == timestamps[ev.end_index + 4].isoformat()


def _diff_corr_loop(pred, actual, window):
    """Frozen per-window reference for ``_diff_corr``: two-pass statistics of
    each centred window of the first differences, one window at a time."""
    n = len(pred)
    dp = np.diff(pred)
    da = np.diff(actual)
    m = len(dp)
    width = window if window % 2 else window + 1
    half = width // 2
    corr_d = np.empty(m)
    for j in range(m):
        lo = max(0, j - half)
        hi = min(m, j + half + 1)
        p = dp[lo:hi]
        a = da[lo:hi]
        sp = p.std()
        sa = a.std()
        if sp == 0.0 or sa == 0.0:
            corr_d[j] = 1.0 if np.array_equal(p, a) else 0.0
        else:
            corr_d[j] = float(((p - p.mean()) * (a - a.mean())).mean() / (sp * sa))
    out = np.empty(n)
    out[0] = corr_d[0]
    out[1:] = corr_d
    return out


def _window_stds(x, window):
    """Std of each centred window of the first differences of x, per sample."""
    d = np.diff(x)
    half = (window if window % 2 else window + 1) // 2
    s = np.array([d[max(0, j - half):j + half + 1].std() for j in range(len(d))])
    return np.concatenate([s[:1], s])


class TestDiffCorr:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 600),
           window=st.integers(2, 60))
    def test_matches_loop_oracle(self, seed, n, window):
        # drifting, trending series with a noisy, offset prediction
        rng = np.random.default_rng(seed)
        scale = 10 ** rng.uniform(-3, 1)
        actual = scale * (np.cumsum(rng.normal(size=n))
                          + rng.normal(0, 5) * np.arange(n))
        pred = actual + scale * rng.uniform(0.05, 2) * rng.normal(size=n) \
            + rng.normal(0, 2)
        want = _diff_corr_loop(pred, actual, window)
        got = _diff_corr(pred, actual, window)
        # windowed sums taken from prefix sums over the whole series carry an
        # absolute error of about n * eps * var(d); relative to a window's
        # own variance that bounds the correlation's error, which is far
        # below 1e-9 unless the window's differences nearly coincide
        sp, sa = _window_stds(pred, window), _window_stds(actual, window)
        flat = (sp == 0) | (sa == 0)
        assert np.array_equal(got[flat], want[flat])
        sp, sa = sp[~flat], sa[~flat]
        bound = n * np.finfo(float).eps * (np.var(np.diff(pred)) / sp ** 2
                                           + np.var(np.diff(actual)) / sa ** 2)
        assert np.all(np.abs(got - want)[~flat] <= 1e-9 + bound)

    def test_constant_windows_match_loop_exactly(self):
        # differences flat and equal (score 1), flat and unequal (score 0),
        # one side flat (score 0), then noise; the loop's std is exactly 0
        # wherever a window's differences are all equal
        rng = np.random.default_rng(3)
        dp = np.concatenate([np.zeros(40), np.ones(40), np.full(40, 2.0),
                             np.full(40, 2.0), rng.normal(size=40)])
        da = np.concatenate([np.zeros(40), np.ones(40), np.ones(40),
                             rng.normal(size=40), rng.normal(size=40)])
        pred = np.concatenate([[0.0], np.cumsum(dp)])
        actual = np.concatenate([[0.0], np.cumsum(da)])
        window = 12
        want = _diff_corr_loop(pred, actual, window)
        got = _diff_corr(pred, actual, window)
        flat = (_window_stds(pred, window) == 0) | (_window_stds(actual, window) == 0)
        assert set(want[flat]) == {0.0, 1.0}
        assert np.array_equal(got[flat], want[flat])
        np.testing.assert_allclose(got[~flat], want[~flat], rtol=0, atol=1e-9)

    def test_straight_stretch_scores_are_finite(self):
        # on the straight stretch the differences agree only to rounding, so
        # the windowed variance cancels to 0 or below there; such windows
        # are degenerate
        walk = np.cumsum(np.random.default_rng(0).normal(size=100))
        pred = np.concatenate([walk, walk[-1] + 0.1 * np.arange(1, 101)])
        corr = _diff_corr(pred, wiggly(200), 12)
        assert np.all(np.isfinite(corr))
