"""Dataset ingestion, windowing, splitting, and synthetic series generation.

The on-disk container is the MHGT binary format (little-endian):

    magic "MHGT" | u32 version=1 | u32 steps | u32 nodes | u32 channels |
    u32 steps_per_day | u32 start_weekday |
    steps*nodes*channels f32 values, step-major, node-next, channel-last.

CSV files (rows = steps, columns = nodes, single channel) can be converted
with :func:`convert_csv`.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, MhgnetError, ShapeError
from .numcore import SplitRng

MAGIC = b"MHGT"
VERSION = 1
_HEADER = struct.Struct("<5I")
_F32_MAX = float(np.finfo(np.float32).max)  # values are stored as f32


@dataclass
class TrafficSeries:
    """Raw sensor readings plus the calendar metadata needed for windowing."""

    values: np.ndarray  # [steps, nodes, channels], channel 0 is the target
    steps_per_day: int
    start_weekday: int  # 0 = Monday
    name: str = ""
    planted_types: np.ndarray | None = None  # synthetic ground truth, if any

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ShapeError(f"series values must be 3-D, got {self.values.shape}")
        steps, nodes, channels = self.values.shape
        if nodes < 1:
            raise ConfigError("series needs at least one node")
        if channels < 1:
            raise ConfigError("series needs at least one channel")
        if self.steps_per_day < 1:
            raise ConfigError("steps_per_day must be positive")
        if steps < self.steps_per_day:
            raise ConfigError(
                f"series too short: {steps} steps < one day ({self.steps_per_day})"
            )
        if not 0 <= self.start_weekday <= 6:
            raise ConfigError(f"start_weekday out of range: {self.start_weekday}")

    @property
    def steps(self) -> int:
        return self.values.shape[0]

    @property
    def nodes(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


@dataclass
class Scaler:
    """Z-score normalizer fit on the training split of the target channel."""

    mean: float
    std: float

    @classmethod
    def fit(cls, values: np.ndarray) -> "Scaler":
        std = float(values.std())
        return cls(mean=float(values.mean()), std=max(std, 1e-8))

    def apply(self, x):
        return (x - self.mean) / self.std

    def invert(self, x):
        return x * self.std + self.mean


@dataclass
class WindowedDataset:
    """Sliding input/target windows with per-step calendar indices."""

    inputs: np.ndarray  # [samples, T_h, nodes, channels]
    targets: np.ndarray  # [samples, T_f, nodes, 1]
    tod_index: np.ndarray  # [samples, T_h] ints in [0, steps_per_day)
    dow_index: np.ndarray  # [samples, T_h] ints in [0, 7)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def slice(self, sl: slice) -> "WindowedDataset":
        return WindowedDataset(
            self.inputs[sl], self.targets[sl], self.tod_index[sl], self.dow_index[sl]
        )


@dataclass
class DataBundle:
    """Chronological train/val/test windows plus the train-fit scaler."""

    train: WindowedDataset
    val: WindowedDataset
    test: WindowedDataset
    scaler: Scaler


# ---------------------------------------------------------------------------
# binary io


def save_series(series: TrafficSeries, path) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(
            _HEADER.pack(
                series.steps,
                series.nodes,
                series.channels,
                series.steps_per_day,
                series.start_weekday,
            )
        )
        fh.write(series.values.astype("<f4").tobytes())


class BinaryReader:
    """Reads a little-endian container that starts with a magic and a u32 version.

    A fault raises FormatError at a byte offset: 0 for the magic, 4 for the
    version, the start of a field cut short, a non-finite value's own offset,
    and the end of the last field for trailing bytes. ``field`` is where the
    last field read starts, for faults found after reading it.
    """

    def __init__(self, blob: bytes, magic: bytes, version: int, kind: str):
        self.blob, self.kind, self.field, self.offset = blob, kind, 0, 4
        if blob[:4] != magic:
            raise FormatError(f"bad {kind} magic {blob[:4]!r}, expected {magic!r}", offset=0)
        (found,) = self.unpack("<I", "version")
        if found != version:
            raise FormatError(f"unsupported {kind} version {found}", offset=4)

    def _claim(self, nbytes: int, what: str) -> int:
        """Advance over the next ``nbytes``; returns where they start."""
        left = len(self.blob) - self.offset
        if nbytes > left:
            raise FormatError(
                f"truncated {what}: expected {nbytes} bytes, found {left}", offset=self.offset
            )
        self.field, self.offset = self.offset, self.offset + nbytes
        return self.field

    def unpack(self, fmt: str, what: str) -> tuple:
        """The fields of the ``struct`` format ``fmt`` at the current offset."""
        return struct.unpack_from(fmt, self.blob, self._claim(struct.calcsize(fmt), what))

    def array(self, count: int, dtype: str, what: str) -> np.ndarray:
        """``count`` values of ``dtype`` as a view into the blob; all must be finite.

        They are tested before any cast, which would warn on a signaling NaN.
        """
        size = np.dtype(dtype).itemsize
        values = np.frombuffer(self.blob, dtype, count, self._claim(count * size, what))
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = int(bad[0])
            raise FormatError(f"non-finite value {values[i]} in {what}", offset=self.field + size * i)
        return values

    def finish(self) -> None:
        """Reject bytes after the last field."""
        if self.offset != len(self.blob):
            extra = len(self.blob) - self.offset
            raise FormatError(f"{extra} trailing bytes after the {self.kind}", offset=self.offset)


def load_series(path) -> TrafficSeries:
    """Read an MHGT file; raises FormatError with a byte offset on damage."""
    path = Path(path)
    reader = BinaryReader(path.read_bytes(), MAGIC, VERSION, "series")
    steps, nodes, channels, steps_per_day, start_weekday = reader.unpack(_HEADER.format, "header")
    values = reader.array(steps * nodes * channels, "<f4", "payload")
    reader.finish()
    try:
        return TrafficSeries(
            values=values.astype(np.float64).reshape(steps, nodes, channels),
            steps_per_day=steps_per_day,
            start_weekday=start_weekday,
            name=path.stem,
        )
    except ConfigError as exc:  # header values that no series can have
        raise FormatError(f"bad header: {exc}", offset=8) from exc


def read_utf8(path, error: type[MhgnetError]) -> str:
    """A text file's contents; a byte that is not UTF-8 raises ``error`` with its line."""
    blob = Path(path).read_bytes()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise error(
            f"line {line}: invalid UTF-8 byte {blob[exc.start]:#04x} at offset {exc.start}"
        ) from exc


def convert_csv(src, dst, steps_per_day: int = 288, start_weekday: int = 0) -> TrafficSeries:
    """Convert a plain UTF-8 CSV (rows = steps, columns = nodes) to MHGT.

    Blank lines are skipped; any other malformed line raises FormatError
    naming it, and nothing is written.
    """
    rows: list[list[float]] = []
    reader = csv.reader(io.StringIO(read_utf8(src, FormatError), newline=""))
    try:
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise FormatError(f"line {line}: non-numeric value ({exc})") from exc
            if not all(abs(v) <= _F32_MAX for v in values):  # False for NaN too
                raise FormatError(f"line {line}: value is not finite as float32")
            if rows and len(values) != len(rows[0]):
                raise FormatError(
                    f"line {line}: ragged CSV: {len(values)} columns, "
                    f"earlier rows have {len(rows[0])}"
                )
            rows.append(values)
    except csv.Error as exc:
        raise FormatError(f"line {reader.line_num}: {exc}") from exc
    if not rows:
        raise FormatError("empty CSV file")
    values = np.asarray(rows, dtype=np.float64)[:, :, None]
    series = TrafficSeries(
        values=values,
        steps_per_day=steps_per_day,
        start_weekday=start_weekday,
        name=Path(dst).stem,
    )
    save_series(series, dst)
    return series


# ---------------------------------------------------------------------------
# windowing and splits


def make_windows(series: TrafficSeries, t_h: int, t_f: int) -> WindowedDataset:
    """Stride-1 sliding windows: T_h input steps followed by T_f target steps."""
    if t_h < 1 or t_f < 1:
        raise ConfigError("window lengths must be positive")
    steps = series.steps
    if steps < t_h + t_f:
        raise ShapeError(
            f"series too short: {steps} steps < T_h + T_f = {t_h + t_f}"
        )
    samples = steps - t_h - t_f + 1
    sw_in = np.lib.stride_tricks.sliding_window_view(series.values, t_h, axis=0)
    inputs = np.moveaxis(sw_in, -1, 1)[:samples]
    sw_tg = np.lib.stride_tricks.sliding_window_view(
        series.values[t_h:, :, :1], t_f, axis=0
    )
    targets = np.moveaxis(sw_tg, -1, 1)
    offs = np.arange(samples)[:, None] + np.arange(t_h)[None, :]
    tod = (offs % series.steps_per_day).astype(np.int32)
    dow = ((series.start_weekday + offs // series.steps_per_day) % 7).astype(np.int32)
    return WindowedDataset(inputs=inputs, targets=targets, tod_index=tod, dow_index=dow)


def split(
    dataset: WindowedDataset, ratios: tuple[float, float, float]
) -> tuple[WindowedDataset, WindowedDataset, WindowedDataset]:
    """Chronological split; train and val get floor(ratio * n), test the rest."""
    r_train, r_val, r_test = ratios
    if min(r_train, r_val, r_test) <= 0:
        raise ConfigError(f"split ratios must be positive, got {ratios}")
    if abs(r_train + r_val + r_test - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")
    n = len(dataset)
    n_train = int(r_train * n)
    n_val = int(r_val * n)
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ConfigError(
            f"degenerate split: sizes ({n_train}, {n_val}, {n_test}) from {n} samples"
        )
    return (
        dataset.slice(slice(0, n_train)),
        dataset.slice(slice(n_train, n_train + n_val)),
        dataset.slice(slice(n_train + n_val, n)),
    )


def make_bundle(
    series: TrafficSeries,
    t_h: int,
    t_f: int,
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
) -> DataBundle:
    windows = make_windows(series, t_h, t_f)
    train, val, test = split(windows, ratios)
    scaler = Scaler.fit(train.inputs[..., 0])
    return DataBundle(train=train, val=val, test=test, scaler=scaler)


# ---------------------------------------------------------------------------
# synthetic data with planted node types


def synthesize(
    nodes: int,
    days: int,
    patterns: int,
    seed: int,
    steps_per_day: int = 288,
    start_weekday: int = 0,
) -> TrafficSeries:
    """Generate a deterministic series with a planted node-type assignment.

    Each node is assigned a type round-robin; nodes of one type share a
    daily sinusoid mixture with weekday/weekend amplitude modulation, plus
    per-reading Gaussian noise at 5% of the type amplitude.
    """
    if patterns < 1:
        raise ConfigError("patterns must be >= 1")
    if nodes < patterns:
        raise ConfigError(f"need nodes >= patterns, got {nodes} < {patterns}")
    if days < 2:
        raise ConfigError("need at least 2 days")
    if steps_per_day < 1:
        raise ConfigError(f"steps_per_day must be positive, got {steps_per_day}")
    steps = days * steps_per_day
    types = (np.arange(nodes) % patterns).astype(np.int32)

    t = np.arange(steps)
    phase_of_day = 2.0 * np.pi * (t % steps_per_day) / steps_per_day
    dow = (start_weekday + t // steps_per_day) % 7
    weekend = np.where(dow >= 5, 0.65, 1.0)

    amp = 80.0 + 40.0 * types.astype(np.float64)
    profile = np.empty((steps, nodes))
    for p in range(patterns):
        shift = 2.0 * np.pi * p / patterns
        second = 0.25 + 0.15 * (p % 2)
        shape = (
            1.1
            + 0.6 * np.sin(phase_of_day - shift)
            + second * np.sin(2.0 * phase_of_day + 0.5 * shift)
        )
        profile[:, types == p] = shape[:, None]

    rng = SplitRng(seed).child("synthesize")
    noise = rng.normal(0.0, 1.0, (steps, nodes)) * (0.05 * amp)[None, :]
    values = (amp[None, :] * profile * weekend[:, None] + noise)[:, :, None]
    return TrafficSeries(
        values=values,
        steps_per_day=steps_per_day,
        start_weekday=start_weekday,
        name=f"synthetic-n{nodes}-p{patterns}-s{seed}",
        planted_types=types,
    )
