import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from denitlab.dataset import Gap
from denitlab.errors import BadParams, MaskTouchesBoundary, NoAdmissibleWindows
from denitlab.preprocess import (
    CleaningMask, CleaningParams, build_windows, detect_cleaning,
    interpolate_target, rolling_median, runs, segments,
)

from conftest import make_frame


class TestDetectCleaning:
    def test_flat_pressure_gives_empty_mask(self):
        flat = np.full(500, 100.0)
        mask = detect_cleaning(flat, flat, CleaningParams(deviation_threshold=5.0))
        assert mask.intervals == ()

    def test_injected_dip_recovered_exactly(self, small_frame):
        frame, schedule = small_frame
        mask = detect_cleaning(frame.col("pressure_bottom"),
                               frame.col("pressure_top"))
        assert mask.intervals == schedule.cleaning

    def test_single_sample_spike_below_min_run(self):
        p = np.full(200, 100.0)
        p[80] = 200.0
        mask = detect_cleaning(p, np.full(200, 50.0),
                               CleaningParams(deviation_threshold=10.0, min_run=3))
        assert mask.intervals == ()

    def test_bottom_only_config_ignores_top(self, small_frame):
        frame, schedule = small_frame
        flat_top = np.full(len(frame), 50.0)
        mask = detect_cleaning(frame.col("pressure_bottom"), flat_top,
                               CleaningParams(use="bottom"))
        assert mask.intervals == schedule.cleaning

    def test_nearby_runs_merge(self):
        p = np.full(300, 100.0)
        p[100:104] = 200.0
        p[105:109] = 200.0  # 1-sample gap, closer than 3
        mask = detect_cleaning(p, np.full(300, 50.0),
                               CleaningParams(deviation_threshold=10.0, min_run=3))
        assert mask.intervals == ((100, 109),)

    def test_bad_params_rejected(self):
        with pytest.raises(BadParams):
            CleaningParams(window=0)
        with pytest.raises(BadParams):
            CleaningParams(use="sideways")

    def test_rolling_median_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=97)
        x[10] = np.nan
        got = rolling_median(x, 9)
        for i in range(len(x)):
            seg = x[max(0, i - 4):i + 5]
            seg = seg[np.isfinite(seg)]
            assert got[i] == pytest.approx(np.median(seg))

    def test_rolling_median_of_empty_series_is_empty(self):
        assert rolling_median(np.array([]), 25).shape == (0,)


def _loop_runs(flags):
    """Run-finding as a scan over the flags: the reference for ``runs``."""
    found = []
    start = None
    for i, f in enumerate(flags):
        if f and start is None:
            start = i
        elif not f and start is not None:
            found.append((start, i))
            start = None
    if start is not None:
        found.append((start, len(flags)))
    return found


class TestRuns:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.booleans(), max_size=80))
    @example([])
    @example([True] * 7)
    @example([False] * 7)
    def test_matches_loop(self, flags):
        got = runs(np.array(flags, dtype=bool))
        assert got == _loop_runs(flags)
        # bounds reach JSON artifacts, which take Python ints only
        assert all(type(i) is int for run in got for i in run)


class TestSegments:
    def test_ranges_between_gap_breaks(self):
        y = np.arange(10.0)
        assert segments(make_frame({"nitrate_out": y})) == [(0, 10)]
        gappy = make_frame({"nitrate_out": y}, gaps=[Gap(0, 3), Gap(6, 1)])
        assert segments(gappy) == [(0, 1), (1, 7), (7, 10)]


class TestInterpolateTarget:
    def test_straight_line_fill(self):
        frame = make_frame({"nitrate_out": [4.0, 0.0, 0.0, 10.0]})
        mask = CleaningMask(intervals=((1, 3),), length=4)
        out = interpolate_target(frame, mask)
        assert out.col("nitrate_out") == pytest.approx([4.0, 6.0, 8.0, 10.0])

    def test_empty_mask_is_identity(self, small_frame):
        frame, _ = small_frame
        out = interpolate_target(frame, CleaningMask(intervals=(), length=len(frame)))
        assert out is frame

    def test_interval_at_boundary_raises(self):
        frame = make_frame({"nitrate_out": [4.0, 5.0, 6.0]})
        with pytest.raises(MaskTouchesBoundary):
            interpolate_target(frame, CleaningMask(intervals=((0, 1),), length=3))
        with pytest.raises(MaskTouchesBoundary):
            interpolate_target(frame, CleaningMask(intervals=((2, 3),), length=3))

    @pytest.mark.parametrize("intervals,named", [
        (((0, 1), (3, 4)), "[0, 1)"),
        (((1, 2), (3, 4)), "[3, 4)"),
    ])
    def test_first_unbracketed_interval_named(self, intervals, named):
        frame = make_frame({"nitrate_out": [4.0, 5.0, 6.0, 7.0]})
        with pytest.raises(MaskTouchesBoundary) as exc:
            interpolate_target(frame, CleaningMask(intervals=intervals, length=4))
        assert str(exc.value) == f"interval {named} has no bracketing valid value"

    def test_idempotent(self, small_frame):
        frame, schedule = small_frame
        mask = CleaningMask(intervals=schedule.cleaning, length=len(frame))
        once = interpolate_target(frame, mask)
        twice = interpolate_target(once, mask)
        assert np.array_equal(once.values, twice.values)

    def test_covariates_untouched(self, small_frame):
        frame, schedule = small_frame
        mask = CleaningMask(intervals=schedule.cleaning, length=len(frame))
        out = interpolate_target(frame, mask)
        for name in frame.names:
            if name != "nitrate_out":
                assert np.array_equal(out.col(name), frame.col(name))

    def test_brackets_skip_missing_values(self):
        frame = make_frame({"nitrate_out": [4.0, np.nan, 0.0, 0.0, 10.0]})
        mask = CleaningMask(intervals=((2, 4),), length=5)
        out = interpolate_target(frame, mask)
        # bracketing pair is (index 0, index 4): the line is 4 + 1.5*i
        assert out.col("nitrate_out")[2] == pytest.approx(7.0)
        assert out.col("nitrate_out")[3] == pytest.approx(8.5)


def _window_frame(n=10, gaps=()):
    cols = {
        "nitrate_in": np.arange(n, dtype=float),
        "methanol": np.arange(n, dtype=float) * 2,
        "nitrate_out": np.arange(n, dtype=float) + 0.5,
    }
    return make_frame(cols, gaps=gaps)


class TestBuildWindows:
    def test_counting_gap_free(self):
        ws = build_windows(_window_frame(10), ["nitrate_in", "methanol"], h=2,
                           horizon=0, with_target_history=False,
                           plan_ranges=[(0, 10)])
        assert len(ws) == 8
        assert ws.skipped == 2
        assert ws.candidates == 10

    def test_gap_excludes_spanning_windows(self):
        gapped = _window_frame(10, gaps=(Gap(after_index=4, missing_steps=3),))
        ws = build_windows(gapped, ["nitrate_in"], h=2, horizon=0,
                           with_target_history=False, plan_ranges=[(0, 10)])
        anchors = {s.t for s in ws.samples}
        # anchors 5 and 6 would reach across the gap after index 4
        assert anchors == {2, 3, 4, 7, 8, 9}

    def test_nowcast_windows_have_no_target_history(self):
        ws = build_windows(_window_frame(10), ["nitrate_in"], h=1, horizon=0,
                           with_target_history=False, plan_ranges=[(0, 10)])
        assert all(s.y_hist is None for s in ws.samples)

    def test_forecast_windows_carry_history_and_future(self):
        ws = build_windows(_window_frame(12), ["nitrate_in"], h=2, horizon=3,
                           with_target_history=True, plan_ranges=[(0, 12)])
        s = ws.samples[0]
        assert s.t == 2
        assert s.y_hist == pytest.approx([0.5, 1.5, 2.5])
        assert s.y == pytest.approx([3.5, 4.5, 5.5])

    def test_missing_covariate_skips_anchor(self):
        frame = _window_frame(10)
        values = np.array(frame.values)
        values[5, frame.col_index("nitrate_in")] = np.nan
        frame = frame.with_values(values)
        ws = build_windows(frame, ["nitrate_in"], h=1, horizon=0,
                           with_target_history=False, plan_ranges=[(0, 10)])
        # the NaN at index 5 poisons the anchors whose history touches it
        assert {s.t for s in ws.samples} == {1, 2, 3, 4, 7, 8, 9}

    def test_windows_respect_range_boundaries(self):
        ws = build_windows(_window_frame(20), ["nitrate_in"], h=2, horizon=1,
                           with_target_history=False,
                           plan_ranges=[(0, 10), (10, 20)])
        for s in ws.samples:
            lo, hi = s.t - 2, s.t + 1
            assert (lo >= 0 and hi < 10) or (lo >= 10 and hi < 20)

    def test_range_outside_frame_rejected(self):
        for bad in ([(-1, 5)], [(5, 11)]):
            with pytest.raises(BadParams):
                build_windows(_window_frame(10), ["nitrate_in"], h=0, horizon=0,
                              with_target_history=False, plan_ranges=bad)

    def test_no_admissible_raises(self):
        with pytest.raises(NoAdmissibleWindows):
            build_windows(_window_frame(5), ["nitrate_in"], h=10, horizon=0,
                          with_target_history=False, plan_ranges=[(0, 5)])

    @settings(max_examples=25, deadline=None)
    @given(h=st.integers(0, 4), horizon=st.integers(0, 3),
           n=st.integers(8, 30))
    def test_emitted_plus_skipped_equals_candidates(self, h, horizon, n):
        frame = _window_frame(n, gaps=(Gap(after_index=n // 2, missing_steps=1),))
        try:
            ws = build_windows(frame, ["nitrate_in"], h=h, horizon=horizon,
                               with_target_history=horizon > 0,
                               plan_ranges=[(0, n)])
        except NoAdmissibleWindows:
            return
        assert len(ws.samples) + ws.skipped == ws.candidates == n


def _oracle_windows(frame, covariates, h, horizon, with_target_history,
                    plan_ranges):
    """The per-anchor loop that build_windows replaced, frozen as an oracle.

    Returns (anchors, X, y, y_hist, skipped, candidates); raises
    NoAdmissibleWindows like the original.
    """
    cov_idx = [frame.col_index(c) for c in covariates]
    X_all = frame.values[:, cov_idx] if cov_idx else np.empty((len(frame), 0))
    y_all = frame.col("nitrate_out")
    breaks = sorted(frame.gap_break_indices())
    anchors, Xs, ys, y_hists = [], [], [], []
    skipped = candidates = 0
    for rs, re_ in plan_ranges:
        for t in range(rs, re_):
            candidates += 1
            lo, hi = t - h, t + horizon
            if lo < rs or hi >= re_ or any(lo <= b < hi for b in breaks):
                skipped += 1
                continue
            X = X_all[lo:t + 1]
            if not np.all(np.isfinite(X)):
                skipped += 1
                continue
            y_hist = None
            if with_target_history:
                y_hist = y_all[lo:t + 1]
                if not np.all(np.isfinite(y_hist)):
                    skipped += 1
                    continue
            if horizon == 0:
                y = y_all[t]
                if not np.isfinite(y):
                    skipped += 1
                    continue
                y_out = float(y)
            else:
                y = y_all[t + 1:t + horizon + 1]
                if not np.all(np.isfinite(y)):
                    skipped += 1
                    continue
                y_out = np.array(y)
            anchors.append(t)
            Xs.append(np.array(X))
            ys.append(y_out)
            y_hists.append(None if y_hist is None else np.array(y_hist))
    if not anchors:
        raise NoAdmissibleWindows("oracle: no admissible anchors")
    return anchors, Xs, ys, y_hists, skipped, candidates


def _random_window_frame(seed, n=70):
    """Covariates and target with NaN cells, gap breaks at and inside range edges."""
    rng = np.random.default_rng(seed)
    cols = {name: rng.normal(size=n)
            for name in ("nitrate_in", "methanol", "water_flow", "nitrate_out")}
    for values in cols.values():
        values[rng.random(n) < 0.04] = np.nan
    # 19 and 20 straddle the first range edge, 24 ends the short range
    breaks = sorted({19, 20, 24, *rng.choice(np.arange(26, n - 1), size=3,
                                              replace=False).tolist()})
    gaps = tuple(Gap(after_index=int(b), missing_steps=int(rng.integers(1, 9)))
                 for b in breaks)
    return make_frame(cols, gaps=gaps)


# an empty range, one shorter than h + horizon + 1 for most cases, and two
# ranges with a shared edge
ORACLE_RANGES = [(0, 20), (20, 20), (20, 24), (24, 50), (52, 70)]


class TestBuildWindowsMatchesLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("horizon", [0, 1, 6])
    @pytest.mark.parametrize("h", [0, 1, 2, 3, 4])
    def test_arrays_equal_per_anchor_loop(self, seed, h, horizon):
        frame = _random_window_frame(seed)
        for covariates in (("nitrate_in", "methanol", "water_flow"), ("methanol",), ()):
            for with_history in (False, True):
                args = (frame, covariates, h, horizon, with_history, ORACLE_RANGES)
                try:
                    want = _oracle_windows(*args)
                except NoAdmissibleWindows:
                    with pytest.raises(NoAdmissibleWindows):
                        build_windows(*args)
                    continue
                anchors, Xs, ys, y_hists, skipped, candidates = want
                ws = build_windows(*args)
                assert ws.t.tolist() == anchors
                assert ws.skipped == skipped and ws.candidates == candidates
                assert np.array_equal(ws.X, np.array(Xs).reshape(ws.X.shape))
                assert np.array_equal(ws.y, np.array(ys))
                if with_history:
                    assert np.array_equal(ws.y_hist, np.array(y_hists))
                else:
                    assert ws.y_hist is None
                for s, t, X, y, y_hist in zip(ws.samples, anchors, Xs, ys, y_hists):
                    assert type(s.t) is int and s.t == t
                    assert np.array_equal(s.X, X)
                    assert type(s.y) is type(y) and np.array_equal(s.y, y)
                    assert (s.y_hist is None and y_hist is None) \
                        or np.array_equal(s.y_hist, y_hist)

    def test_random_frames_skip_more_than_clean_ones(self):
        # guard that the random frames are not trivially clean
        frame = _random_window_frame(0)
        _, _, _, _, skipped, candidates = _oracle_windows(
            frame, ("nitrate_in",), 2, 1, True, ORACLE_RANGES)
        clean = _oracle_windows(
            make_frame({"nitrate_in": np.zeros(70), "nitrate_out": np.zeros(70)}),
            ("nitrate_in",), 2, 1, True, ORACLE_RANGES)
        assert skipped > clean[4]
        assert candidates == clean[5] == 68

    def test_samples_view_indexes_like_a_sequence(self):
        ws = build_windows(_window_frame(12), ["nitrate_in"], h=2, horizon=3,
                           with_target_history=True, plan_ranges=[(0, 12)])
        assert len(ws.samples) == len(ws) == len(ws.t) == 7
        assert ws.samples[-1].t == int(ws.t[-1]) == 8
        assert [s.t for s in ws.samples[1:3]] == ws.t[1:3].tolist()
        with pytest.raises(IndexError):
            ws.samples[7]
        assert not ws.X.flags.writeable
