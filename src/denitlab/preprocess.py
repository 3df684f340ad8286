"""Cleaning-period detection, target interpolation, and supervised window construction.

The reactor is backwashed roughly daily for about an hour; during that time
the sensors keep reporting but the readings are meaningless. We locate these
episodes from the pressure signals, replace the *target* inside them by a
straight line between the bracketing valid readings, and leave every
covariate untouched.

Windows are arrays indexed by anchor. ``build_windows`` takes the candidate
anchors of every plan range as one index array, keeps those whose spans are
admissible, and gathers all windows at once. It is the one place that decides
admissibility, for training, scoring and baselines alike: a k-step forecast
rollout from anchor t reads the window anchored at t+k-1, whose history
holds k-1 more rows. Admissibility is ``span_clear``: a prefix sum of "bad
row" flags (gap breaks, missing values) answers "is every row of [lo, hi]
good" for all anchors in one vectorised step.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import TARGET, Range, TimeSeriesFrame
from .errors import BadParams, MaskTouchesBoundary, NoAdmissibleWindows

MERGE_DISTANCE = 3  # flagged runs closer than this many samples are merged


@dataclass(frozen=True)
class CleaningParams:
    window: int = 25            # centered rolling-median window (samples)
    deviation_threshold: float = 10.0
    min_run: int = 3
    use: str = "both"           # which pressure signal drives detection: both | bottom | top

    def __post_init__(self):
        if self.window < 1 or self.min_run < 1 or self.deviation_threshold <= 0:
            raise BadParams("window, min_run, deviation_threshold must be positive")
        if self.use not in ("both", "bottom", "top"):
            raise BadParams(f"use must be both|bottom|top, got {self.use!r}")


@dataclass(frozen=True)
class CleaningMask:
    """Sorted, disjoint half-open intervals flagged as cleaning."""

    intervals: tuple[Range, ...]
    length: int

    def __post_init__(self):
        prev_end = 0
        for s, e in self.intervals:
            if s < prev_end or e <= s or e > self.length:
                raise ValueError(f"bad interval [{s}, {e})")
            prev_end = e

    def to_json(self) -> str:
        return json.dumps([{"start": int(s), "end": int(e)} for s, e in self.intervals])


def indicator(length: int, intervals) -> np.ndarray:
    """True on every row of the half-open ``intervals``, False on the rest."""
    flags = np.zeros(length, dtype=bool)
    for s, e in intervals:
        flags[s:e] = True
    return flags


@dataclass(frozen=True)
class WindowSample:
    """One supervised sample anchored at ``t``.

    ``X`` holds the covariate history rows t-h .. t (chronological order);
    ``y_hist`` the matching target history when forecasting; ``y`` is the
    target value at t (nowcast) or the length-``horizon`` future (forecast).
    """

    X: np.ndarray
    y: float | np.ndarray
    t: int
    y_hist: np.ndarray | None = None


def centred_half_width(window: int) -> int:
    """Rows on each side of a centred window ``window`` rows wide, which is
    ``2 * half + 1`` rows: even widths are widened by one to stay symmetric."""
    return window // 2


def rolling_median(x: np.ndarray, window: int) -> np.ndarray:
    """Centered rolling median ignoring NaNs; windows shrink at the edges.

    The series is padded with NaNs, which the median ignores, so the edge
    windows are the interior ones cut short.
    """
    x = np.asarray(x, dtype=float)
    half = centred_half_width(window)
    if not len(x):  # the padding alone is narrower than one window
        return np.empty(0)
    padded = np.concatenate([np.full(half, np.nan), x, np.full(half, np.nan)])
    sw = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN windows
        return np.nanmedian(sw, axis=1)


def runs(flags: np.ndarray) -> list[Range]:
    """Maximal runs of True in ``flags`` as half-open ``(start, stop)`` pairs."""
    edges = np.flatnonzero(np.diff(np.concatenate([[False], flags, [False]])))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def _flag_runs(flags: np.ndarray, min_run: int) -> list[Range]:
    # merge runs separated by fewer than MERGE_DISTANCE samples, then length-filter
    merged: list[Range] = []
    for s, e in runs(flags):
        if merged and s - merged[-1][1] < MERGE_DISTANCE:
            merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    return [(s, e) for s, e in merged if e - s >= min_run]


def detect_cleaning(pressure_bottom: np.ndarray,
                    pressure_top: np.ndarray,
                    params: CleaningParams = CleaningParams()) -> CleaningMask:
    """Flag samples where either pressure strays from its rolling median.

    A sample is flagged when |pressure - centered rolling median| exceeds the
    deviation threshold for any of the configured signals; maximal flagged
    runs shorter than ``min_run`` are dropped, near-adjacent runs merged.
    """
    pb = np.asarray(pressure_bottom, dtype=float)
    pt = np.asarray(pressure_top, dtype=float)
    if pb.shape != pt.shape or pb.ndim != 1:
        raise BadParams("pressure series must be 1-D and equally long")
    series = {"bottom": pb, "top": pt}
    if params.use != "both":
        series = {params.use: series[params.use]}
    flags = np.zeros(len(pb), dtype=bool)
    for x in series.values():
        dev = np.abs(x - rolling_median(x, params.window))
        flags |= np.nan_to_num(dev, nan=0.0) > params.deviation_threshold
    return CleaningMask(intervals=tuple(_flag_runs(flags, params.min_run)),
                        length=len(pb))


def interpolate_target(frame: TimeSeriesFrame, mask: CleaningMask) -> TimeSeriesFrame:
    """Replace target values inside masked intervals by a straight line.

    The line runs between the nearest valid target readings outside any
    masked interval; covariates pass through untouched. Idempotent for a
    fixed mask, since the bracketing points are never inside the mask.
    """
    if mask.length != len(frame):
        raise BadParams("mask length differs from frame length")
    if not mask.intervals:
        return frame
    values = np.array(frame.values)
    col = frame.col_index(TARGET)
    masked = indicator(mask.length, mask.intervals)
    usable = np.flatnonzero(np.isfinite(values[:, col]) & ~masked)
    # no usable row lies inside an interval, so its first row and every row
    # in it share the bracket usable[k - 1] < row < usable[k]
    k = np.searchsorted(usable, [s for s, _ in mask.intervals])
    unbracketed = np.flatnonzero((k == 0) | (k == len(usable)))
    if unbracketed.size:
        s, e = mask.intervals[unbracketed[0]]
        raise MaskTouchesBoundary(f"interval [{s}, {e}) has no bracketing valid value")
    rows = np.flatnonzero(masked)
    k = np.searchsorted(usable, rows)
    left, right = usable[k - 1], usable[k]
    w = (rows - left) / (right - left)
    y = values[:, col]
    values[rows, col] = (1 - w) * y[left] + w * y[right]
    return frame.with_values(values)


def span_clear(ok: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """For each query i, whether ``ok`` holds on every row of [lo[i], hi[i]].

    One prefix sum of the bad rows answers every query in O(1); an empty
    span (hi = lo - 1) is clear. Indices must satisfy 0 <= lo <= hi + 1 <= len(ok).
    """
    bad = np.concatenate([[0], np.cumsum(~ok)])
    return bad[hi + 1] - bad[lo] == 0


def finite_rows(frame: TimeSeriesFrame, names) -> np.ndarray:
    """Whether every column of ``names`` is finite, row by row (all True for none)."""
    idx = [frame.col_index(c) for c in names]
    return np.all(np.isfinite(frame.values[:, idx]), axis=1)


def unbroken_rows(frame: TimeSeriesFrame) -> np.ndarray:
    """False at each row i that a gap separates from row i+1.

    A span [lo, hi] crosses no gap exactly when this holds on [lo, hi - 1].
    """
    ok = np.ones(len(frame), dtype=bool)
    ok[list(frame.gap_break_indices())] = False
    return ok


def segments(frame: TimeSeriesFrame) -> list[Range]:
    """The frame's contiguous stretches: half-open row ranges between its
    gap breaks, in order."""
    bounds = [0, *sorted(i + 1 for i in frame.gap_break_indices()), len(frame)]
    return list(zip(bounds[:-1], bounds[1:]))


class _SampleView(Sequence):
    """Read-only per-window view of a WindowSet; items are built on access."""

    def __init__(self, ws: "WindowSet"):
        self._ws = ws

    def __len__(self) -> int:
        return len(self._ws.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        ws = self._ws
        t = int(ws.t[i])
        y = float(ws.y[i]) if ws.horizon == 0 else np.array(ws.y[i])
        y_hist = None if ws.y_hist is None else np.array(ws.y_hist[i])
        return WindowSample(X=np.array(ws.X[i]), y=y, t=t, y_hist=y_hist)


@dataclass(frozen=True, eq=False)
class WindowSet:
    """Admissible windows as arrays indexed by anchor, plus bookkeeping.

    Row i is the window anchored at ``t[i]``: ``X[i]`` holds the covariate
    rows t-h .. t, oldest first, so ``X`` is (B, h+1, c); ``y`` is the target
    at t for nowcasts, (B,), or at t+1 .. t+horizon for forecasts,
    (B, horizon); ``y_hist`` is the target over t-h .. t, (B, h+1), when
    ``with_target_history`` and None otherwise. ``candidates`` counts every
    anchor of the plan ranges, ``skipped`` the inadmissible ones.
    ``build_windows`` makes the arrays read-only, since models read ``X``
    without copying it. ``samples`` is a lazy ``WindowSample`` view of the
    same rows.
    """

    X: np.ndarray
    y: np.ndarray
    t: np.ndarray
    y_hist: np.ndarray | None
    candidates: int
    covariates: tuple[str, ...]
    h: int
    horizon: int
    with_target_history: bool

    def __len__(self) -> int:
        return len(self.t)

    @property
    def skipped(self) -> int:
        return self.candidates - len(self.t)

    @property
    def samples(self) -> Sequence[WindowSample]:
        return _SampleView(self)


def build_windows(frame: TimeSeriesFrame,
                  covariates,
                  h: int,
                  horizon: int,
                  with_target_history: bool,
                  plan_ranges) -> WindowSet:
    """All admissible windows anchored in ``plan_ranges``, in range order.

    An anchor t is admissible when the span [t-h, t+horizon] stays inside a
    single range, crosses no gap, and touches no missing value it needs:
    covariate history always, target history when ``with_target_history``,
    and the target at t (nowcast) or t+1..t+horizon (forecast). Staying
    inside range [rs, re) means rs+h <= t < re-horizon, so only those anchors
    are tested; each other condition is one ``span_clear`` over all of them
    at once. The windows are then gathered from the frame's covariate columns
    at rows ``t[:, None] + arange(-h, 1)`` in one indexing step.
    """
    if h < 0:
        raise BadParams("history length h must be >= 0")
    if horizon < 0:
        raise BadParams("horizon must be >= 0")
    covariates = tuple(covariates)
    for c in covariates:
        if c == TARGET:
            raise BadParams("target cannot be a covariate")
    n = len(frame)
    y_all = frame.col(TARGET)

    candidates = 0
    blocks = [np.empty(0, dtype=np.intp)]
    for rs, re_ in plan_ranges:
        if re_ <= rs:
            continue
        if rs < 0 or re_ > n:
            raise BadParams(f"range [{rs}, {re_}) leaves the {n}-row frame")
        candidates += re_ - rs
        blocks.append(np.arange(rs + h, re_ - horizon))
    t = np.concatenate(blocks)

    ok_hist = finite_rows(frame, covariates)
    if with_target_history:
        ok_hist &= np.isfinite(y_all)
    first_y = t + 1 if horizon else t
    t = t[span_clear(unbroken_rows(frame), t - h, t + horizon - 1)
          & span_clear(ok_hist, t - h, t)
          & span_clear(np.isfinite(y_all), first_y, t + horizon)]
    if not t.size:
        raise NoAdmissibleWindows(
            f"no admissible anchors among {candidates} candidates (h={h}, horizon={horizon})")

    cov_idx = np.array([frame.col_index(c) for c in covariates], dtype=np.intp)
    rows = t[:, None] + np.arange(-h, 1)
    y = y_all[t] if horizon == 0 else y_all[t[:, None] + np.arange(1, horizon + 1)]
    y_hist = y_all[rows] if with_target_history else None
    arrays = (frame.values[rows[:, :, None], cov_idx], y, t, y_hist)
    for a in arrays:
        if a is not None:
            a.setflags(write=False)
    return WindowSet(*arrays, candidates=candidates, covariates=covariates, h=h,
                     horizon=horizon, with_target_history=with_target_history)
