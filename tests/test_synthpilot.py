from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denitlab.dataset import SCHEMA
from denitlab.errors import InvalidConfig, NonFiniteInput
from denitlab.synthpilot import (
    CarrierSchedule, DosingParams, Fault, SynthConfig, generate, methanol_dose,
    resolve_schedule,
)

from conftest import quiet_config


class TestMethanolDose:
    def test_cancellation_at_setpoint(self):
        dosing = DosingParams(k1=1.0, k2=0.0, c_out_target=5.0)
        for q_w in (0.0, 1.0, 7.5):
            assert methanol_dose(q_w, 5.0, 3.0, dosing) == 0.0

    def test_direct_substitution(self):
        dosing = DosingParams(k1=1.0, k2=0.5, c_out_target=2.0)
        assert methanol_dose(2.0, 10.0, 8.0, dosing) == pytest.approx(24.0)

    def test_clamped_below_zero(self):
        dosing = DosingParams(k1=1.0, k2=0.0, c_out_target=5.0)
        assert methanol_dose(3.0, 1.0, 0.0, dosing) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            methanol_dose(np.nan, 1.0, 1.0, DosingParams())
        with pytest.raises(NonFiniteInput):
            methanol_dose(-1.0, 1.0, 1.0, DosingParams())

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidConfig):
            DosingParams(k1=0.0)

    @settings(max_examples=40, deadline=None)
    @given(q_w=st.floats(0, 100), c_in=st.floats(0, 50), c_o2=st.floats(0, 20))
    def test_never_negative(self, q_w, c_in, c_o2):
        assert methanol_dose(q_w, c_in, c_o2, DosingParams()) >= 0.0


class TestGenerate:
    def test_all_schema_columns_present(self, small_frame):
        frame, _ = small_frame
        assert frame.names == tuple(SCHEMA)
        assert len(frame) == 10 * 144

    def test_deterministic(self):
        cfg = SynthConfig(days=5, seed=99)
        a, _ = generate(cfg)
        b, _ = generate(cfg)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_output(self):
        a, _ = generate(SynthConfig(days=5, seed=1))
        b, _ = generate(SynthConfig(days=5, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_methanol_dropout_zeroes_dose_and_raises_outlet(self, fault_frame):
        frame, schedule = fault_frame
        (s, e), = schedule.faults["methanol_dropout"]
        assert np.all(frame.col("methanol")[s:e] == 0.0)
        before = frame.col("nitrate_out")[s - 50:s - 10].mean()
        during = frame.col("nitrate_out")[s + 6:e].mean()
        c_in = frame.col("nitrate_in")[s + 6:e].mean()
        assert during > before + 1.0
        assert during == pytest.approx(c_in, rel=0.15)

    def test_four_degree_offset_only_moves_temperature(self, small_frame):
        frame, _ = small_frame
        cfg = SynthConfig(days=10, seed=42)
        warm = replace(cfg, temperature=replace(cfg.temperature, base=16.0))
        warm_frame, _ = generate(warm)
        diff = warm_frame.col("temperature").mean() - frame.col("temperature").mean()
        assert diff == pytest.approx(4.0, abs=1e-9)
        assert np.array_equal(warm_frame.col("nitrate_in"), frame.col("nitrate_in"))
        assert np.array_equal(warm_frame.col("water_flow"), frame.col("water_flow"))

    def test_conservation_bounds(self):
        for seed in range(5):
            frame, _ = generate(SynthConfig(days=6, seed=seed))
            out = frame.col("nitrate_out")
            assert np.all(out >= 0.0)
            assert np.all(out <= frame.col("nitrate_in") + 1e-12)

    def test_cleaning_transients_exactly_on_schedule(self, small_frame):
        frame, schedule = small_frame
        pb = frame.col("pressure_bottom")
        flagged = np.zeros(len(frame), dtype=bool)
        for s, e in schedule.cleaning:
            flagged[s:e] = True
        # transient dip dominates the noise; outside the schedule it is absent
        assert pb[flagged].max() < pb[~flagged].min() - 20

    def test_carrier_refill_improves_mean_efficiency(self):
        # carrier decays 3 -> 1 m3 over ten days, then is refilled to 3
        cfg = quiet_config(
            days=15,
            carrier=CarrierSchedule(initial_m3=3.0, decay_per_day=0.2,
                                    refills=((10, 3.0),)),
        )
        frame, _ = generate(cfg)
        out = frame.col("nitrate_out")
        c_in = frame.col("nitrate_in")
        eff = 1.0 - out / np.where(c_in > 0, c_in, 1.0)
        refill = 10 * 144
        assert eff[refill:].mean() > eff[:refill].mean()

    def test_schedule_is_pure_function_of_config(self):
        cfg = SynthConfig(days=7, seed=1,
                          faults=(Fault("turbidity_spike", 100, 12),))
        assert resolve_schedule(cfg) == resolve_schedule(replace(cfg, seed=2))

    def test_fault_beyond_horizon_rejected(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(days=1, faults=(Fault("methanol_dropout", 140, 10),))

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(InvalidConfig):
            Fault("power_cut", 0, 5)

    def test_turbidity_fault_bumps_turbidity(self):
        from denitlab.synthpilot import SpikyProfile
        cfg = quiet_config(days=5, faults=(Fault("turbidity_spike", 200, 24),),
                           turbidity=SpikyProfile(base=2.0, noise=0.0,
                                                  spike_magnitude=5.0))
        frame, schedule = generate(cfg)
        (s, e), = schedule.faults["turbidity_spike"]
        turb = frame.col("turbidity")
        assert turb[s:e].min() > turb[:s].max()

    def test_csv_export_round_trips(self, tmp_path, small_frame):
        from denitlab.dataset import load_csv, save_csv
        frame, _ = small_frame
        path = tmp_path / "synth.csv"
        save_csv(frame, path)
        again = load_csv(path)
        assert np.array_equal(again.values, frame.values)
        assert again.start_time == frame.start_time
