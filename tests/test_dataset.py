import math
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denitlab.dataset import (
    COVARIATES, SAMPLES_PER_DAY, SAMPLES_PER_WEEK, SCHEMA, Gap,
    apply_scaler, fit_scaler, invert_target, load_csv,
    make_cv_folds, make_final_split, save_csv,
)
from denitlab.errors import (
    FrameTooShort, InvalidFractions, MissingColumn, NonMonotonicTime,
    OffGridTimestamp, UnparsableTimestamp, ZeroVarianceColumn,
)

from conftest import make_frame

HEADER = "timestamp," + ",".join(SCHEMA)


def write_csv(path, stamps, fill="1.0"):
    rows = [HEADER]
    for ts in stamps:
        rows.append(ts + "," + ",".join([fill] * len(SCHEMA)))
    path.write_text("\n".join(rows) + "\n")
    return path


class TestLoadCsv:
    def test_three_rows_no_gaps(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2023-01-01T00:00:00+00:00",
                                           "2023-01-01T00:10:00+00:00",
                                           "2023-01-01T00:20:00+00:00"])
        frame = load_csv(p)
        assert len(frame) == 3
        assert frame.gaps == ()
        assert frame.names == tuple(SCHEMA)

    def test_thirty_minute_jump_becomes_gap(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2023-01-01T00:00:00+00:00",
                                           "2023-01-01T00:30:00+00:00"])
        frame = load_csv(p)
        assert len(frame) == 2
        assert frame.gaps == (Gap(after_index=0, missing_steps=2),)

    def test_unparsable_timestamp(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2023-13-40T00:00:00"])
        with pytest.raises(UnparsableTimestamp):
            load_csv(p)

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("timestamp,temperature\n2023-01-01T00:00:00+00:00,1.0\n")
        with pytest.raises(MissingColumn):
            load_csv(p)

    def test_non_monotonic_rejected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2023-01-01T00:10:00+00:00",
                                           "2023-01-01T00:00:00+00:00"])
        with pytest.raises(NonMonotonicTime):
            load_csv(p)

    def test_off_grid_rejected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2023-01-01T00:00:00+00:00",
                                           "2023-01-01T00:15:00+00:00"])
        with pytest.raises(OffGridTimestamp):
            load_csv(p)

    def test_empty_field_is_missing(self, tmp_path):
        p = tmp_path / "a.csv"
        cells = ["2.0"] * len(SCHEMA)
        cells[0] = ""
        p.write_text(HEADER + "\n2023-01-01T00:00:00+00:00," + ",".join(cells) + "\n")
        frame = load_csv(p)
        assert math.isnan(frame.col("temperature")[0])
        assert frame.col("nitrate_in")[0] == 2.0

    def test_save_load_save_is_byte_stable(self, tmp_path, small_frame):
        frame, _ = small_frame
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        save_csv(frame, p1)
        save_csv(load_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_gaps_survive_round_trip(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2023-01-01T00:00:00+00:00",
                                           "2023-01-01T00:30:00+00:00",
                                           "2023-01-01T00:40:00+00:00"])
        frame = load_csv(p)
        q = tmp_path / "b.csv"
        save_csv(frame, q)
        again = load_csv(q)
        assert again.gaps == frame.gaps
        assert np.array_equal(again.values, frame.values)


class TestCvFolds:
    def test_140_days_test_tail_is_28_days(self):
        frame, _ = _uniform_frame(140 * SAMPLES_PER_DAY)
        plans = make_cv_folds(frame)
        expected_test = math.ceil(0.2 * 140 * SAMPLES_PER_DAY)
        for p in plans:
            assert p.test == ((len(frame) - expected_test, len(frame)),)
        assert expected_test == 28 * SAMPLES_PER_DAY

    def test_fold0_first_cycle_is_three_plus_one(self):
        frame, _ = _uniform_frame(35 * SAMPLES_PER_DAY)  # 28-day prefix
        plans = make_cv_folds(frame)
        fold0 = plans[0]
        assert fold0.validation[0] == (3 * SAMPLES_PER_WEEK, 4 * SAMPLES_PER_WEEK)
        assert fold0.train[0] == (0, 3 * SAMPLES_PER_WEEK)

    def test_four_folds_distinct_validation_identical_test(self):
        frame, _ = _uniform_frame(140 * SAMPLES_PER_DAY)
        plans = make_cv_folds(frame, n_folds=4)
        assert len(plans) == 4
        assert len({p.test for p in plans}) == 1
        assert len({p.validation for p in plans}) == 4

    def test_too_short_frame_raises(self):
        frame, _ = _uniform_frame(2 * SAMPLES_PER_WEEK)
        with pytest.raises(FrameTooShort):
            make_cv_folds(frame)

    def test_roughly_60_20_20(self):
        frame, _ = _uniform_frame(160 * SAMPLES_PER_DAY)
        for p in make_cv_folds(frame):
            n = len(frame)
            assert sum(e - s for s, e in p.train) / n == pytest.approx(0.6, abs=0.05)
            assert sum(e - s for s, e in p.validation) / n == pytest.approx(0.2, abs=0.05)
            assert sum(e - s for s, e in p.test) / n == pytest.approx(0.2, abs=0.01)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=5 * SAMPLES_PER_WEEK + 1,
                       max_value=40 * SAMPLES_PER_WEEK))
    def test_fold_arithmetic_random_lengths(self, n):
        frame, _ = _uniform_frame(n)
        plans = make_cv_folds(frame)
        n_test = math.ceil(0.2 * n)
        for p in plans:
            assert p.test == ((n - n_test, n),)
            covered = sorted([*p.train, *p.validation])
            # train and validation tile the prefix exactly, without overlap
            pos = 0
            for s, e in covered:
                assert s == pos
                pos = e
            assert pos == n - n_test
            first_test = p.test[0][0]
            for s, e in [*p.train, *p.validation]:
                assert e <= first_test


class TestFinalSplit:
    def test_length_100(self):
        frame, _ = _uniform_frame(100)
        plan = make_final_split(frame)
        assert plan.train == ((0, 72),)
        assert plan.validation == ((72, 80),)
        assert plan.test == ((80, 100),)

    def test_length_25_floor_rounding(self):
        frame, _ = _uniform_frame(25)
        plan = make_final_split(frame)
        assert plan.train == ((0, 18),)
        assert plan.validation == ((18, 20),)
        assert plan.test == ((20, 25),)

    def test_overfull_fractions_rejected(self):
        frame, _ = _uniform_frame(100)
        with pytest.raises(InvalidFractions):
            make_final_split(frame, train_fraction=0.9, val_fraction=0.2)


def _uniform_frame(n, seed=0):
    rng = np.random.default_rng(seed)
    cols = {name: rng.normal(10, 1, n) for name in [*COVARIATES, "nitrate_out"]}
    return make_frame(cols), cols


class TestScaler:
    def test_two_point_column(self):
        frame = make_frame({"nitrate_out": [2.0, 4.0],
                            "nitrate_in": [1.0, 3.0]})
        scaler = fit_scaler(frame, [(0, 2)])
        scaled = apply_scaler(frame, scaler)
        assert scaled.col("nitrate_out") == pytest.approx([-1.0, 1.0])

    def test_constant_column_raises(self):
        frame = make_frame({"nitrate_out": [2.0, 4.0], "flat": [1.0, 1.0]})
        with pytest.raises(ZeroVarianceColumn):
            fit_scaler(frame, [(0, 2)])

    def test_population_std_convention(self):
        frame = make_frame({"nitrate_out": [1.0, 2.0, 3.0, 4.0]})
        scaler = fit_scaler(frame, [(0, 4)])
        expected = np.std([1, 2, 3, 4])  # divide by N, not N-1
        assert scaler.std[0] == pytest.approx(expected)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3,
                    max_size=40))
    def test_round_trip_identity(self, values):
        values = np.asarray(values)
        if values.std() == 0:
            values = values + np.arange(len(values))
        frame = make_frame({"nitrate_out": values})
        scaler = fit_scaler(frame, [(0, len(values))])
        back = invert_target(scaler, apply_scaler(frame, scaler).col("nitrate_out"))
        # relative to the column's magnitude: a zero entry in a large-valued
        # column cannot be reproduced to absolute 1e-12
        scale = np.maximum(np.abs(values), abs(scaler.mean[0]) + scaler.std[0])
        assert np.all(np.abs(back - values) / scale <= 1e-12)

    def test_fit_ignores_rows_outside_ranges(self):
        frame = make_frame({"nitrate_out": [1.0, 2.0, 100.0]})
        scaler = fit_scaler(frame, [(0, 2)])
        assert scaler.mean[0] == pytest.approx(1.5)
