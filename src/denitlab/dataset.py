"""Ingestion, validation, partitioning and standardization of the process time series.

The sensor record is a uniformly gridded multivariate series (10-minute step).
Periods where the reactor was down are kept as structural :class:`Gap` records
rather than imputed rows, so that downstream window construction can refuse to
bridge them.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import (
    EmptyRanges,
    FrameTooShort,
    InvalidFractions,
    MissingColumn,
    NonMonotonicTime,
    NotAFile,
    NotUTF8,
    OffGridTimestamp,
    UnparsableTimestamp,
    UnparsableValue,
    ZeroVarianceColumn,
)

STEP = timedelta(minutes=10)
SAMPLES_PER_HOUR = 6
SAMPLES_PER_DAY = 24 * SAMPLES_PER_HOUR
SAMPLES_PER_WEEK = 7 * SAMPLES_PER_DAY  # 1008

TARGET = "nitrate_out"

#: Published dataset schema: column name -> unit. The CSV carries a leading
#: ``timestamp`` column followed by these, in this order.
SCHEMA: dict[str, str] = {
    "temperature": "C",
    "nitrate_in": "mg/L",
    "oxygen_in": "mg/L",
    "ortho_phosphate": "mg/L",
    "turbidity": "FNU",
    "ammonium": "mg/L",
    "methanol": "mg/s",
    "water_flow": "L/s",
    "pressure_top": "mbar",
    "pressure_bottom": "mbar",
    "nitrate_out": "mg/L",
}

COVARIATES = tuple(name for name in SCHEMA if name != TARGET)

Range = tuple[int, int]  # half-open [start, stop)


@dataclass(frozen=True)
class Gap:
    """``missing_steps`` grid steps are absent between rows ``after_index`` and ``after_index+1``."""

    after_index: int
    missing_steps: int

    def __post_init__(self):
        if self.missing_steps < 1:
            raise ValueError("missing_steps must be >= 1")


@dataclass(frozen=True)
class TimeSeriesFrame:
    """Immutable, uniformly gridded multivariate sensor record.

    ``values`` has shape (length, n_columns); missing entries are NaN.
    Row index is the *sample* index; wall-clock time of row i additionally
    accounts for all gaps before i.
    """

    start_time: datetime
    names: tuple[str, ...]
    units: tuple[str, ...]
    values: np.ndarray
    gaps: tuple[Gap, ...] = ()

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(self.names):
            raise ValueError("values must be (length, n_columns)")
        if len(set(self.names)) != len(self.names):
            raise ValueError("column names must be unique")
        if TARGET not in self.names:
            raise ValueError(f"target column {TARGET!r} missing")
        if len(self.units) != len(self.names):
            raise ValueError("one unit per column")
        prev_end = -1
        for g in self.gaps:
            if g.after_index <= prev_end:
                raise ValueError("gaps must be sorted and non-overlapping")
            if not 0 <= g.after_index < len(self) - 1:
                raise ValueError("gap outside frame interior")
            prev_end = g.after_index
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return self.values.shape[0]

    def col_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise MissingColumn(name) from None

    def col(self, name: str) -> np.ndarray:
        return self.values[:, self.col_index(name)]

    def timestamps(self) -> list[datetime]:
        offsets = np.zeros(len(self), dtype=np.int64)
        for g in self.gaps:
            offsets[g.after_index + 1:] += g.missing_steps
        return [self.start_time + STEP * int(i + o)
                for i, o in enumerate(offsets)]

    def gap_break_indices(self) -> frozenset[int]:
        """Sample indices i such that a gap separates rows i and i+1."""
        return frozenset(g.after_index for g in self.gaps)

    def with_values(self, values: np.ndarray) -> "TimeSeriesFrame":
        return TimeSeriesFrame(self.start_time, self.names, self.units,
                               np.array(values, dtype=float), self.gaps)


SPLITS = ("train", "validation", "test")  # the fields of a FoldPlan
FORECAST_HORIZON = 6  # steps every forecast is scored on, models and baselines alike


@dataclass(frozen=True)
class FoldPlan:
    """Train/validation/test partition as half-open sample-index ranges."""

    train: tuple[Range, ...]
    validation: tuple[Range, ...]
    test: tuple[Range, ...]

    def __post_init__(self):
        all_ranges = [*self.train, *self.validation, *self.test]
        for start, stop in all_ranges:
            if not 0 <= start < stop:
                raise ValueError(f"bad range [{start}, {stop})")
        for i, (s1, e1) in enumerate(all_ranges):
            for s2, e2 in all_ranges[i + 1:]:
                if s1 < e2 and s2 < e1:
                    raise ValueError("ranges overlap")
        fit_max = max((e for _, e in [*self.train, *self.validation]), default=0)
        test_min = min((s for s, _ in self.test), default=fit_max)
        if test_min < fit_max:
            raise ValueError("test indices must come after all train/val indices")


@dataclass(frozen=True)
class Scaler:
    """Per-column standardization statistics (population std), fitted on given ranges."""

    names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    fitted_on: tuple[Range, ...]
    target_index: int  # the target's column


def _parse_timestamp(text: str) -> datetime:
    raw = text.strip()
    try:
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise UnparsableTimestamp(raw) from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def read_file_bytes(path, name=None) -> bytes:
    """The raw bytes of a file the toolkit reads; a directory is refused.
    ``name`` (the path by default) names the file in the error."""
    if os.path.isdir(path):
        raise NotAFile(f"{name or path} is a directory, not a file")
    with open(path, "rb") as fh:
        return fh.read()


def utf8_text(data: bytes, name) -> io.TextIOWrapper:
    """``data`` as a text stream for ``csv``; raises ``NotUTF8`` naming ``name``
    and the offset of the first bad byte if it is not UTF-8. A leading
    byte-order mark, as Excel's "CSV UTF-8" export writes, is dropped."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NotUTF8(f"{name} is not UTF-8 text: byte "
                      f"0x{data[exc.start]:02x} at offset {exc.start}") from None
    # the stream decodes line by line, as from a file, holding no copy of the text
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")


def read_text(path, name=None) -> io.TextIOWrapper:
    """A file the toolkit reads back, as a UTF-8 text stream: ``NotAFile`` for
    a directory, ``NotUTF8`` for other bytes, each naming ``name`` (the path
    by default)."""
    return utf8_text(read_file_bytes(path, name), name or path)


def load_csv(path, data: bytes | None = None) -> TimeSeriesFrame:
    """Read a frame from the published CSV layout.

    The first column must be ``timestamp`` (ISO-8601 on a 10-minute grid,
    jumps allowed and recorded as gaps); empty fields are missing values.
    The file must be UTF-8 text. ``data`` is its content when the caller
    has already read it with :func:`read_file_bytes`, so it is read once.
    """
    if data is None:
        data = read_file_bytes(path, f"dataset {path}")
    reader = csv.reader(utf8_text(data, f"dataset {path}"))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn("empty file, no header") from None
    expected = ["timestamp", *SCHEMA.keys()]
    if header != expected:
        missing = [c for c in expected if c not in header]
        raise MissingColumn(
            f"header {header!r} does not match schema; missing {missing!r}")
    rows = list(reader)

    n = len(rows)
    values = np.full((n, len(SCHEMA)), np.nan)
    stamps: list[datetime] = []
    for i, row in enumerate(rows):
        if len(row) != len(SCHEMA) + 1:
            raise MissingColumn(f"row {i} has {len(row)} fields")
        stamps.append(_parse_timestamp(row[0]))
        for j, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell:
                try:
                    values[i, j] = float(cell)
                except ValueError:
                    raise UnparsableValue(
                        f"row {i}, column {list(SCHEMA)[j]}: {cell!r}") from None

    gaps: list[Gap] = []
    if n:
        start = stamps[0]
        prev_steps = 0
        for i, ts in enumerate(stamps[1:], start=1):
            delta = ts - start
            steps, rem = divmod(delta, STEP)
            if rem:
                raise OffGridTimestamp(f"row {i}: {ts.isoformat()}")
            if steps <= prev_steps:
                raise NonMonotonicTime(f"row {i}: {ts.isoformat()}")
            jump = steps - prev_steps
            if jump > 1:
                gaps.append(Gap(after_index=i - 1, missing_steps=jump - 1))
            prev_steps = steps
    else:
        start = datetime(1970, 1, 1, tzinfo=timezone.utc)

    return TimeSeriesFrame(start_time=start,
                           names=tuple(SCHEMA.keys()),
                           units=tuple(SCHEMA.values()),
                           values=values,
                           gaps=tuple(gaps))


def save_csv(frame: TimeSeriesFrame, path) -> None:
    """Write the frame back in the input layout (empty field = missing)."""
    stamps = frame.timestamps()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", *frame.names])
        for i, ts in enumerate(stamps):
            cells = [ts.isoformat()]
            for v in frame.values[i]:
                cells.append("" if math.isnan(v) else repr(float(v)))
            writer.writerow(cells)


@dataclass(frozen=True)
class FoldSettings:
    """:func:`make_cv_folds`' settings; those failing on every frame are refused."""

    n_folds: int = 4
    train_block: int = 3 * SAMPLES_PER_WEEK
    val_block: int = SAMPLES_PER_WEEK
    test_fraction: float = 0.20

    def __post_init__(self):
        if self.n_folds < 1 or self.train_block < 1 or self.val_block < 1:
            raise InvalidFractions("n_folds, train_block, val_block must be positive")
        if not 0 < self.test_fraction < 1:
            raise InvalidFractions(f"test_fraction {self.test_fraction} outside (0, 1)")
        cycle = self.train_block + self.val_block
        if self.n_folds * self.val_block > cycle:
            raise InvalidFractions(
                f"{self.n_folds} folds with val_block {self.val_block} exceed one "
                f"cycle of {cycle}; validation ranges would repeat")


@dataclass(frozen=True)
class FinalSplitSettings:
    """:func:`make_final_split`'s fractions; those failing on every frame are refused."""

    train_fraction: float = 0.72
    val_fraction: float = 0.08

    def __post_init__(self):
        if self.train_fraction <= 0 or self.val_fraction <= 0:
            raise InvalidFractions("fractions must be positive")
        if self.train_fraction + self.val_fraction >= 1.0 - 1e-9:
            raise InvalidFractions(f"train {self.train_fraction} + val "
                                   f"{self.val_fraction} leaves no test data")


def make_cv_folds(frame: TimeSeriesFrame,
                  n_folds: int = FoldSettings.n_folds,
                  train_block: int = FoldSettings.train_block,
                  val_block: int = FoldSettings.val_block,
                  test_fraction: float = FoldSettings.test_fraction) -> list[FoldPlan]:
    """Blocked cross-validation plans over the pre-test prefix.

    The last ``ceil(test_fraction * len)`` samples are the common held-out
    test tail. The prefix is tiled into alternating train/validation blocks
    (3 weeks + 1 week by default); fold k shifts the validation phase by
    ``k * val_block`` within the first cycle, so with the defaults the four
    folds place their validation weeks at the four distinct week phases.
    Blocks are measured in samples, not calendar time, so gaps do not
    desynchronize the tiling.
    """
    FoldSettings(n_folds, train_block, val_block, test_fraction)  # refuses bad settings
    cycle = train_block + val_block
    n = len(frame)
    n_test = math.ceil(test_fraction * n)
    prefix = n - n_test
    if prefix < cycle:
        raise FrameTooShort(
            f"prefix of {prefix} samples cannot hold one {cycle}-sample train+val cycle")

    plans = []
    for k in range(n_folds):
        first_val = (train_block + k * val_block) % cycle
        val_ranges: list[Range] = []
        s = first_val
        while s < prefix:
            val_ranges.append((s, min(s + val_block, prefix)))
            s += cycle
        train_ranges: list[Range] = []
        pos = 0
        for vs, ve in val_ranges:
            if pos < vs:
                train_ranges.append((pos, vs))
            pos = ve
        if pos < prefix:
            train_ranges.append((pos, prefix))
        plans.append(FoldPlan(train=tuple(train_ranges),
                              validation=tuple(val_ranges),
                              test=((prefix, n),)))
    return plans


def make_final_split(frame: TimeSeriesFrame,
                     train_fraction: float = FinalSplitSettings.train_fraction,
                     val_fraction: float = FinalSplitSettings.val_fraction) -> FoldPlan:
    """Contiguous train/validation/test split; test takes the remainder.

    Boundaries floor fractional positions, so rounding slack accrues to the
    last partition and never leaks later data into earlier ones. The floor is
    compensated by 1e-9 so that exactly representable boundaries (0.8 * 25)
    do not fall one sample short through float rounding.
    """
    FinalSplitSettings(train_fraction, val_fraction)  # refuses bad fractions
    n = len(frame)
    train_end = math.floor(n * train_fraction + 1e-9)
    val_end = math.floor(n * (train_fraction + val_fraction) + 1e-9)
    if train_end < 1 or val_end <= train_end or val_end >= n:
        raise FrameTooShort(f"length {n} too short for {train_fraction}/{val_fraction} split")
    return FoldPlan(train=((0, train_end),),
                    validation=((train_end, val_end),),
                    test=((val_end, n),))


def _range_indices(ranges: tuple[Range, ...] | list[Range]) -> np.ndarray:
    if not ranges:
        raise EmptyRanges("no index ranges given")
    return np.concatenate([np.arange(s, e) for s, e in ranges])


def fit_scaler(frame: TimeSeriesFrame, ranges) -> Scaler:
    """Per-column mean/std over the given ranges (population std, ignoring missing)."""
    idx = _range_indices(tuple(ranges))
    sub = frame.values[idx]
    means = np.empty(len(frame.names))
    stds = np.empty(len(frame.names))
    for j, name in enumerate(frame.names):
        col = sub[:, j]
        col = col[np.isfinite(col)]
        if col.size == 0:
            raise EmptyRanges(f"column {name!r} has no finite values on fit ranges")
        means[j] = col.mean()
        stds[j] = col.std()  # population convention: divide by N
        if stds[j] == 0.0:
            raise ZeroVarianceColumn(name)
    return Scaler(names=frame.names, mean=means, std=stds,
                  fitted_on=tuple(tuple(r) for r in ranges),
                  target_index=frame.col_index(TARGET))


def apply_scaler(frame: TimeSeriesFrame, scaler: Scaler) -> TimeSeriesFrame:
    if scaler.names != frame.names:
        raise MissingColumn("scaler fitted on different columns")
    return frame.with_values((frame.values - scaler.mean) / scaler.std)


def invert_target(scaler: Scaler, values: np.ndarray) -> np.ndarray:
    """Map scaled target values back to original units for metric computation."""
    return np.asarray(values) * scaler.std[scaler.target_index] + scaler.mean[scaler.target_index]
