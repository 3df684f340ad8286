"""Deterministic synthetic pilot-reactor data generator.

Produces frames in the exact dataset schema together with the ground-truth
schedule of cleaning events and injected faults, so that preprocessing,
modelling and anomaly detection can be tested against known answers.

The methanol dosing controller is the plant's open-loop law; everything
downstream of it (removal efficiency, temperature response, carrier-volume
response, outlet lag) is a deliberately simple invented response model whose
coefficients all live in :class:`SynthConfig`. The generator's job is to be a
controllable oracle, not a calibrated digital twin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .dataset import SAMPLES_PER_DAY, SCHEMA, TimeSeriesFrame, Range
from .errors import InvalidConfig, NonFiniteInput
from .preprocess import indicator

FAULT_KINDS = ("methanol_dropout", "turbidity_spike")


@dataclass(frozen=True)
class DosingParams:
    """Open-loop methanol controller constants."""

    k1: float = 1.0            # nitrate gain, set by the operators
    k2: float = 0.5            # oxygen-respiration gain
    c_out_target: float = 2.0  # desired outlet nitrate-N, mg/L

    def __post_init__(self):
        if not (self.k1 > 0 and self.k2 >= 0 and self.c_out_target >= 0):
            raise InvalidConfig("require k1 > 0, k2 >= 0, c_out_target >= 0")


def methanol_dose(q_w, c_in, c_o2, dosing: DosingParams):
    """Dosing rate q_w * (k1*c_in - k1*c_out_target + k2*c_o2), clamped at 0.

    The control law can go negative when incoming nitrate is already below
    the setpoint; the physical pump cannot, hence the clamp.
    """
    q_w = np.asarray(q_w, dtype=float)
    c_in = np.asarray(c_in, dtype=float)
    c_o2 = np.asarray(c_o2, dtype=float)
    if not (np.all(np.isfinite(q_w)) and np.all(np.isfinite(c_in))
            and np.all(np.isfinite(c_o2))):
        raise NonFiniteInput("dosing inputs must be finite")
    if np.any(q_w < 0):
        raise NonFiniteInput("water flow must be >= 0")
    raw = q_w * (dosing.k1 * c_in - dosing.k1 * dosing.c_out_target + dosing.k2 * c_o2)
    clamped = np.maximum(raw, 0.0)
    return float(clamped) if clamped.ndim == 0 else clamped


@dataclass(frozen=True)
class SinusoidProfile:
    base: float
    amplitude: float
    period_samples: float
    noise: float


@dataclass(frozen=True)
class SpikyProfile:
    """Flat signal with occasional boxcar spikes."""

    base: float
    noise: float
    spikes_per_day: float = 0.0
    spike_magnitude: float = 0.0
    spike_duration: int = 12


@dataclass(frozen=True)
class NitrateInProfile:
    base: float = 11.0
    flow_coupling: float = 2.0   # mg/L drop per L/s of flow above its base
    noise: float = 0.3


@dataclass(frozen=True)
class PressureParams:
    bottom_base: float = 250.0
    top_base: float = 50.0
    noise: float = 0.5
    bottom_dip: float = 30.0   # transient during cleaning (subtracted)
    top_spike: float = 20.0    # transient during cleaning (added)


@dataclass(frozen=True)
class CarrierSchedule:
    """Biofilm-carrier volume: slow loss plus discrete refill events."""

    initial_m3: float = 3.0
    decay_per_day: float = 0.0
    refills: tuple[tuple[int, float], ...] = ()  # (day, new volume m3)


@dataclass(frozen=True)
class CleaningSchedule:
    period: int = SAMPLES_PER_DAY  # samples between backwash starts
    duration: int = 6              # samples per backwash (~1 h)
    first: int = 72                # first backwash start (sample index)
    target_disturbance: float = 2.0  # meaningless sensor offset on the target


@dataclass(frozen=True)
class ReactionParams:
    """Invented removal-efficiency model; every coefficient is a test knob."""

    eta_max: float = 0.9
    q10: float = 2.0         # efficiency doubles per 10 C (capped at 1)
    t_ref_c: float = 20.0
    lag_samples: float = 3.0  # outlet first-order lag; 0 disables the lag
    turbidity_fault_efficiency: float = 0.7  # multiplier during turbidity faults
    out_noise: float = 0.15


@dataclass(frozen=True)
class Fault:
    kind: str
    start: int      # sample index
    duration: int   # samples

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise InvalidConfig(f"unknown fault kind {self.kind!r}")
        if self.start < 0 or self.duration < 1:
            raise InvalidConfig("fault start must be >= 0 and duration >= 1")


@dataclass(frozen=True)
class SynthConfig:
    days: int = 60
    seed: int = 0
    start_time: str = "2023-09-01T00:00:00+00:00"
    dosing: DosingParams = DosingParams()
    temperature: SinusoidProfile = SinusoidProfile(
        base=12.0, amplitude=4.0, period_samples=365 * SAMPLES_PER_DAY, noise=0.1)
    flow: SinusoidProfile = SinusoidProfile(
        base=1.5, amplitude=0.5, period_samples=SAMPLES_PER_DAY, noise=0.05)
    nitrate_in: NitrateInProfile = NitrateInProfile()
    oxygen: SpikyProfile = SpikyProfile(base=7.0, noise=0.3, spikes_per_day=0.2,
                                        spike_magnitude=2.0, spike_duration=12)
    ammonium: SpikyProfile = SpikyProfile(base=0.8, noise=0.1, spikes_per_day=0.1,
                                          spike_magnitude=1.5, spike_duration=18)
    ortho_phosphate: SpikyProfile = SpikyProfile(base=0.15, noise=0.02,
                                                 spikes_per_day=0.05,
                                                 spike_magnitude=0.2,
                                                 spike_duration=24)
    turbidity: SpikyProfile = SpikyProfile(base=2.0, noise=0.2, spikes_per_day=0.3,
                                           spike_magnitude=5.0, spike_duration=12)
    pressure: PressureParams = PressureParams()
    carrier: CarrierSchedule = CarrierSchedule()
    cleaning: CleaningSchedule = CleaningSchedule()
    reaction: ReactionParams = ReactionParams()
    faults: tuple[Fault, ...] = ()

    def __post_init__(self):
        if self.days < 1:
            raise InvalidConfig("days must be >= 1")
        if self.seed < 0:
            raise InvalidConfig(f"synth.seed must be an integer >= 0, got {self.seed}")
        n = self.days * SAMPLES_PER_DAY
        for f in self.faults:
            if f.start + f.duration > n:
                raise InvalidConfig(f"fault {f.kind} at {f.start} exceeds the horizon")
        if self.cleaning.period <= self.cleaning.duration:
            raise InvalidConfig("cleaning period must exceed its duration")

    @property
    def n_samples(self) -> int:
        return self.days * SAMPLES_PER_DAY


@dataclass(frozen=True)
class FaultSchedule:
    """Resolved sample-index intervals; a pure function of the config.
    ``faults`` maps each of ``FAULT_KINDS``, in that order, to its intervals."""

    cleaning: tuple[Range, ...]
    faults: dict[str, tuple[Range, ...]]

    def to_json(self) -> str:
        return json.dumps({name: [[int(s), int(e)] for s, e in ranges]
                           for name, ranges in (("cleaning", self.cleaning),
                                                *self.faults.items())}, indent=2)


def resolve_schedule(config: SynthConfig) -> FaultSchedule:
    n = config.n_samples
    cleaning = []
    s = config.cleaning.first
    while s < n:
        cleaning.append((s, min(s + config.cleaning.duration, n)))
        s += config.cleaning.period
    by_kind: dict[str, list[Range]] = {k: [] for k in FAULT_KINDS}
    for f in config.faults:
        by_kind[f.kind].append((f.start, f.start + f.duration))
    return FaultSchedule(cleaning=tuple(cleaning),
                         faults={k: tuple(sorted(v)) for k, v in by_kind.items()})


def _sinusoid(rng: np.random.Generator, n: int, p: SinusoidProfile) -> np.ndarray:
    t = np.arange(n)
    x = p.base + p.amplitude * np.sin(2 * math.pi * t / p.period_samples)
    return x + rng.normal(0.0, p.noise, n)


def _spiky(rng: np.random.Generator, n: int, p: SpikyProfile) -> np.ndarray:
    x = p.base + rng.normal(0.0, p.noise, n)
    n_spikes = int(round(p.spikes_per_day * n / SAMPLES_PER_DAY))
    # draw count depends only on the config, never on drawn values, so two
    # configs differing in one column consume identical RNG streams elsewhere
    if n_spikes > 0 and n > p.spike_duration:
        starts = rng.integers(0, n - p.spike_duration, size=n_spikes)
        for s in starts:
            x[s:s + p.spike_duration] += p.spike_magnitude
    return x


def _carrier_volume(config: SynthConfig) -> np.ndarray:
    n = config.n_samples
    days = np.arange(n) / SAMPLES_PER_DAY
    sched = config.carrier
    events = [(0.0, sched.initial_m3)] + [(float(d), v) for d, v in sched.refills]
    events.sort()
    v = np.empty(n)
    for i, (d0, v0) in enumerate(events):
        d1 = events[i + 1][0] if i + 1 < len(events) else math.inf
        seg = (days >= d0) & (days < d1)
        v[seg] = v0 - sched.decay_per_day * (days[seg] - d0)
    return np.clip(v, 0.05, None)


def generate(config: SynthConfig) -> tuple[TimeSeriesFrame, FaultSchedule]:
    """Emit all 11 schema columns plus the ground-truth event schedule.

    All stochastic draws come from one seeded generator, consumed in fixed
    column order, so identical configs yield bit-identical frames.
    """
    n = config.n_samples
    rng = np.random.default_rng(config.seed)
    schedule = resolve_schedule(config)
    cleaning = indicator(n, schedule.cleaning)
    fault = {kind: indicator(n, ranges) for kind, ranges in schedule.faults.items()}

    temperature = _sinusoid(rng, n, config.temperature)
    water_flow = np.clip(_sinusoid(rng, n, config.flow), 0.01, None)
    nitrate_in = np.clip(
        config.nitrate_in.base
        - config.nitrate_in.flow_coupling * (water_flow - config.flow.base)
        + rng.normal(0.0, config.nitrate_in.noise, n),
        0.0, None)
    oxygen = np.clip(_spiky(rng, n, config.oxygen), 0.0, None)
    ammonium = np.clip(_spiky(rng, n, config.ammonium), 0.0, None)
    phosphate = np.clip(_spiky(rng, n, config.ortho_phosphate), 0.0, None)
    turbidity = np.clip(_spiky(rng, n, config.turbidity), 0.0, None)
    turbidity[fault["turbidity_spike"]] += config.turbidity.spike_magnitude

    required = methanol_dose(water_flow, nitrate_in, oxygen, config.dosing)
    methanol = np.where(fault["methanol_dropout"], 0.0, required)

    pp = config.pressure
    pressure_top = pp.top_base + rng.normal(0.0, pp.noise, n)
    pressure_bottom = pp.bottom_base + rng.normal(0.0, pp.noise, n)
    pressure_top[cleaning] += pp.top_spike
    pressure_bottom[cleaning] -= pp.bottom_dip

    rp = config.reaction
    # methanol sufficiency: dosed/required, taken as 1 when nothing is required
    sufficiency = np.divide(methanol, required,
                            out=np.ones(n), where=required > 0)
    sat = np.clip(sufficiency, 0.0, 1.0)
    temp_factor = np.clip(rp.q10 ** ((temperature - rp.t_ref_c) / 10.0), 0.0, 1.0)
    carrier_factor = np.clip(_carrier_volume(config) / config.carrier.initial_m3, 0.0, 1.0)
    eta = rp.eta_max * sat * temp_factor * carrier_factor
    eta[fault["turbidity_spike"]] *= rp.turbidity_fault_efficiency
    eta = np.clip(eta, 0.0, 1.0)

    steady = nitrate_in * (1.0 - eta)
    out_noise = rng.normal(0.0, rp.out_noise, n)
    nitrate_out = np.empty(n)
    lam = math.exp(-1.0 / rp.lag_samples) if rp.lag_samples > 0 else 0.0
    prev = steady[0]
    for t in range(n):
        prev = lam * prev + (1.0 - lam) * steady[t]
        nitrate_out[t] = prev
    nitrate_out = nitrate_out + out_noise
    nitrate_out[cleaning] += config.cleaning.target_disturbance
    nitrate_out = np.clip(nitrate_out, 0.0, nitrate_in)

    columns = {
        "temperature": temperature,
        "nitrate_in": nitrate_in,
        "oxygen_in": oxygen,
        "ortho_phosphate": phosphate,
        "turbidity": turbidity,
        "ammonium": ammonium,
        "methanol": methanol,
        "water_flow": water_flow,
        "pressure_top": pressure_top,
        "pressure_bottom": pressure_bottom,
        "nitrate_out": nitrate_out,
    }
    values = np.column_stack([columns[name] for name in SCHEMA])
    frame = TimeSeriesFrame(
        start_time=datetime.fromisoformat(config.start_time).astimezone(timezone.utc),
        names=tuple(SCHEMA.keys()),
        units=tuple(SCHEMA.values()),
        values=values)
    return frame, schedule
