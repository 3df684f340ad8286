"""Detection of the three characteristic prediction-failure patterns.

Class 1: a notable peak in the measured series that the prediction misses.
Class 2: a predicted peak that never occurs (the mirror image of class 1).
Class 3: the prediction tracks the measured variations but carries a
sustained signed bias before readjusting.

Peaks are excursions above a centered rolling median, measured in rolling-MAD
units; bias runs require both a large rolling mean error and a decent rolling
correlation of first differences, which is what separates "right shape,
wrong level" from a missed peak. All statistics are translation invariant, so
shifting both series by a constant changes nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, LengthMismatch, NonFinite
from .preprocess import centred_half_width, rolling_median, runs

MISSED_TARGET_PEAK = 1
SPURIOUS_PREDICTED_PEAK = 2
SUSTAINED_BIAS = 3

DIFF_CORR_MIN = 0.5


@dataclass(frozen=True)
class AnomalyParams:
    peak_window: int = 49        # rolling median/MAD window for peak excess
    peak_sigma: float = 5.0      # excess threshold in MAD units
    follow_ratio: float = 0.5    # other series must reach this fraction of the peak
    bias_window: int = 36        # rolling mean-error window; also min run length
    bias_threshold: float = 1.0  # mg/L

    def __post_init__(self):
        if min(self.peak_window, self.bias_window) < 2:
            raise BadParams("windows must be >= 2")
        if min(self.peak_sigma, self.follow_ratio, self.bias_threshold) <= 0:
            raise BadParams("thresholds must be positive")


@dataclass(frozen=True)
class AnomalyEvent:
    klass: int                # 1 missed peak, 2 spurious peak, 3 sustained bias
    start_index: int
    end_index: int            # half-open
    magnitude: float          # peak excess (1, 2) or mean signed error (3), mg/L

    def __post_init__(self):
        if self.end_index <= self.start_index:
            raise ValueError("empty event interval")
        if self.klass not in (1, 2, 3):
            raise ValueError(f"bad class {self.klass}")


def _centred_window(n: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-open bounds [lo, hi) of the centred window at each of n indices;
    windows shrink at the edges."""
    half = centred_half_width(window)
    j = np.arange(n)
    return np.maximum(j - half, 0), np.minimum(j + half + 1, n)


def _window_sum(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sum of x over each [lo, hi), from one prefix sum."""
    cs = np.concatenate([[0.0], np.cumsum(x)])
    return cs[hi] - cs[lo]


def _rolling_mean(x: np.ndarray, window: int) -> np.ndarray:
    lo, hi = _centred_window(len(x), window)
    return _window_sum(x, lo, hi) / (hi - lo)


def _peak_excess(x: np.ndarray, window: int):
    med = rolling_median(x, window)
    mad = rolling_median(np.abs(x - med), window)
    return x - med, mad


def _diff_corr(pred: np.ndarray, actual: np.ndarray, window: int) -> np.ndarray:
    """Rolling correlation of first differences, mapped back to sample indices.

    Over each centred window of the differences, the correlation is
    cov / sqrt(vp * va) from windowed sums of dp, da, dp^2, da^2 and dp*da
    (each difference series taken about its mean).
    A window where either difference series never changes is degenerate: it
    scores 1 when the two difference windows are identical (flat but
    perfectly tracking) and 0 otherwise. Those conditions are windowed
    counts, so they are exact. The one-pass variance cancels in a window
    whose differences agree to rounding (a straight-line stretch), and can
    come out 0 or negative there; such a window is degenerate too.
    """
    dp = np.diff(pred)
    da = np.diff(actual)
    lo, hi = _centred_window(len(dp), window)
    k = hi - lo
    # moments about the series means, so that a trend's offset in the
    # differences does not cancel in every window's variance
    cp = dp - dp.mean()
    ca = da - da.mean()
    mp = _window_sum(cp, lo, hi) / k
    ma = _window_sum(ca, lo, hi) / k
    cov = _window_sum(cp * ca, lo, hi) / k - mp * ma
    vp = _window_sum(cp * cp, lo, hi) / k - mp * mp
    va = _window_sum(ca * ca, lo, hi) / k - ma * ma

    def changes(d):  # how often d[i] != d[i-1] with both i-1 and i in the window
        return _window_sum(np.concatenate([[False], d[1:] != d[:-1]]), lo + 1, hi)

    den = vp * va
    corr_d = (_window_sum(dp != da, lo, hi) == 0).astype(float)  # degenerate score
    live = (changes(dp) > 0) & (changes(da) > 0) & (den > 0)
    corr_d[live] = cov[live] / np.sqrt(den[live])
    return np.concatenate([corr_d[:1], corr_d])


def detect_anomalies(pred, actual, params: AnomalyParams = AnomalyParams(),
                     starts=()) -> list[AnomalyEvent]:
    """Classify anomalous stretches of a prediction series against the truth.

    ``starts`` are the positions where a contiguous stretch of the series
    begins after an outage. Each stretch is analysed alone, so no event spans
    an outage; a stretch of fewer than 2 samples is skipped.
    """
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape or pred.ndim != 1:
        raise LengthMismatch(f"{pred.shape} vs {actual.shape}")
    if len(pred) < 2:
        raise LengthMismatch("need at least 2 samples")
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(actual))):
        raise NonFinite("series must be finite")

    bounds = [0, *map(int, starts), len(pred)]
    events: list[AnomalyEvent] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo >= 2:
            events += _detect(pred[lo:hi], actual[lo:hi], params, lo)
    events.sort(key=lambda ev: (ev.klass, ev.start_index))
    return events


def _detect(pred, actual, params: AnomalyParams, offset: int) -> list[AnomalyEvent]:
    """The events of one contiguous series, at positions ``offset`` on."""
    exc_a, mad_a = _peak_excess(actual, params.peak_window)
    exc_p, mad_p = _peak_excess(pred, params.peak_window)

    events: list[AnomalyEvent] = []
    # a peak of one series that the other does not follow
    for klass, exc, mad, other in ((MISSED_TARGET_PEAK, exc_a, mad_a, exc_p),
                                   (SPURIOUS_PREDICTED_PEAK, exc_p, mad_p, exc_a)):
        for s, e in runs(exc > params.peak_sigma * mad):
            height = float(exc[s:e].max())
            if float(other[s:e].max()) < params.follow_ratio * height:
                events.append(AnomalyEvent(klass, s + offset, e + offset, height))

    err = pred - actual
    roll_err = _rolling_mean(err, params.bias_window)
    corr = _diff_corr(pred, actual, params.bias_window)
    biased = (np.abs(roll_err) > params.bias_threshold) & (corr >= DIFF_CORR_MIN)
    for s, e in runs(biased):
        if e - s >= params.bias_window:
            events.append(AnomalyEvent(SUSTAINED_BIAS, s + offset, e + offset,
                                       float(err[s:e].mean())))
    return events


def events_to_json(events: list[AnomalyEvent], anchors, timestamps) -> str:
    """JSON export for plot overlays, one item per event.

    ``anchors`` maps series positions to frame rows; ``timestamps``, indexed
    by frame row, maps rows to wall-clock.
    """
    payload = []
    for ev in events:
        first, last = int(anchors[ev.start_index]), int(anchors[ev.end_index - 1])
        payload.append({"class": ev.klass, "start": first, "end": last + 1,
                        "magnitude": ev.magnitude,
                        "start_time": timestamps[first].isoformat(),
                        "end_time": timestamps[last].isoformat()})
    return json.dumps(payload, indent=2)
