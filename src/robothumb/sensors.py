"""Physical models of the thumb flex sensor and foot accelerometer, and
the sensor traces they produce.

The flex sensor is a variable resistor read through a voltage divider
(flex element in the upper leg, fixed resistor in the lower leg, output
buffered) and digitised by the motor controller's analog input. The foot
sensor is a three-axis analog accelerometer of which two axes are used:
Y picks up the gravity projection along the foot (direction of motion),
Z picks up gravity plus dynamic acceleration (speed of motion).

A trace keeps its readings as columns (time, three ADC codes, labels) and
is read and written as a CSV of ``TRACE_HEADER`` rows, whole blocks of
rows at a time and one column at a time: a code column is formatted, or
parsed, once per distinct value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ConfigurationError, InputError, TraceFormatError

TRACE_HEADER = ("t_ms", "flex_adc", "acc_y_adc", "acc_z_adc", "label")
SAMPLE_DTYPE = np.dtype([("t", np.float64), ("flex_adc", np.int64),
                         ("acc_y_adc", np.int64), ("acc_z_adc", np.int64)])
LABEL_FORBIDDEN = frozenset(',"\r\n')  # characters csv.writer would quote
# rows per block in the trace and step CSV writers: a block's strings stay
# below a megabyte or two, and blocks this size format as fast as larger ones
TRACE_BLOCK_ROWS = 8_192


def round_half_up(x: float) -> int:
    """Round with ties away from zero toward +inf; for non-negative inputs."""
    return int(math.floor(x + 0.5))


def column_strings(column: np.ndarray, fmt: str) -> list[str]:
    """``fmt % value`` for each entry of an int64 or float64 column, each
    distinct value formatted once.

    Floats are told apart by their bit pattern, so ``-0.0`` and ``0.0``,
    which ``%f`` prints differently, are formatted apart.
    """
    key = column.view(np.int64) if column.dtype.kind == "f" else column
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    strings = np.array(list(map(fmt.__mod__, column[first].tolist())), object)
    return strings[inverse].tolist()


def _time_strings(t: np.ndarray) -> list[str]:
    """``%g`` of each time where it reads back as the same float, else ``repr``."""
    times = t.tolist()
    strings = list(map("%g".__mod__, times))
    # %g spells a whole number below 10**6 exactly: parse back the others
    check = np.flatnonzero((t != np.rint(t)) | (t >= 1e6))
    back = np.array([strings[i] for i in check.tolist()], np.float64)
    for i in check[back != t[check]].tolist():
        strings[i] = repr(times[i])
    return strings


@dataclass(frozen=True)
class FlexSensorModel:
    r_flat: float = 13.0       # kOhm at 0 degrees
    r_bent: float = 26.0       # kOhm at full pinch bend
    angle_range: float = 180.0  # degrees spanned between the two endpoints

    def __post_init__(self):
        if not (self.r_bent > self.r_flat > 0):
            raise ConfigurationError("flex sensor requires r_bent > r_flat > 0")
        if self.angle_range <= 0:
            raise ConfigurationError("angle_range must be positive")


@dataclass(frozen=True)
class DividerConfig:
    vcc: float = 5.0          # V supply
    r_fixed: float = 20.0     # kOhm lower leg
    adc_bits: int = 12
    v_ref: float = 5.0        # V full scale of the ADC

    def __post_init__(self):
        if self.vcc <= 0:
            raise ConfigurationError("vcc must be positive")
        if self.r_fixed <= 0:
            raise ConfigurationError("r_fixed must be positive")
        if not 8 <= self.adc_bits <= 16:
            raise ConfigurationError("adc_bits must be in [8, 16]")

    @property
    def full_scale(self) -> int:
        return (1 << self.adc_bits) - 1


@dataclass(frozen=True)
class AccelerometerModel:
    sensitivity: float = 0.3   # V/g
    zero_g_bias: float = 1.5   # V at 0 g

    def __post_init__(self):
        if self.sensitivity <= 0:
            raise ConfigurationError("sensitivity must be positive")


@dataclass(frozen=True, eq=False)
class SensorTrace:
    """Time-ordered, uniformly sampled sensor readings, stored as columns.

    ``samples`` holds one ``SAMPLE_DTYPE`` record per reading: the time
    ``t`` (ms, float64) and the three ADC codes (int64); ``labels`` holds
    each reading's calibration segment tag, empty outside calibration.
    The array is read-only once the trace is checked. Compare traces
    column by column: ``==`` on arrays is element-wise.
    """

    samples: np.ndarray
    labels: tuple[str, ...]
    sample_period: float  # ms

    @classmethod
    def from_columns(cls, t, flex_adc, acc_y_adc, acc_z_adc, labels,
                     sample_period: float) -> "SensorTrace":
        samples = np.empty(len(t), SAMPLE_DTYPE)
        samples["t"] = t
        for name, codes in zip(SAMPLE_DTYPE.names[1:], (flex_adc, acc_y_adc, acc_z_adc)):
            try:
                samples[name] = codes
            except OverflowError as exc:
                raise InputError(f"{name}: an ADC code does not fit int64") from exc
        return cls(samples, tuple(labels), float(sample_period))

    def __post_init__(self):
        if len(self.labels) != len(self.samples):
            raise TraceFormatError("trace needs one label per sample")
        for label in set(self.labels):
            if not LABEL_FORBIDDEN.isdisjoint(label):
                raise TraceFormatError(
                    f"label {label!r} contains a comma, quote or line break")
        if self.sample_period <= 0:
            raise TraceFormatError("sample_period must be positive")
        t = self.samples["t"]
        bad = ~np.isfinite(t)
        if bad.any():
            raise TraceFormatError(f"sample timestamp {t[bad][0]} is not finite")
        if (t < 0).any():
            raise TraceFormatError("sample timestamps must be non-negative")
        dt = np.diff(t)
        if (dt <= 0).any():
            raise TraceFormatError("sample timestamps must be strictly increasing")
        off = np.abs(dt - self.sample_period) > 0.01 * self.sample_period
        if off.any():
            raise TraceFormatError(
                f"sample spacing {dt[off][0]} ms deviates more than 1% from "
                f"period {self.sample_period} ms")
        # after the timestamps, which name the fault in a period derived from them
        if not math.isfinite(self.sample_period):
            raise TraceFormatError(f"sample_period {self.sample_period} is not finite")
        self.samples.flags.writeable = False


def flex_resistance(bend_angle: float, model: FlexSensorModel) -> float:
    """Flex resistance (kOhm), linear between the two measured endpoints."""
    if not 0 <= bend_angle <= model.angle_range:
        raise InputError(f"bend_angle {bend_angle} outside [0, {model.angle_range}]")
    frac = bend_angle / model.angle_range
    return model.r_flat + frac * (model.r_bent - model.r_flat)


def divider_voltage(r_flex: float, cfg: DividerConfig) -> float:
    """Buffered divider output (V); strictly decreasing in r_flex."""
    if r_flex <= 0:
        raise InputError("r_flex must be positive")
    return cfg.vcc * cfg.r_fixed / (r_flex + cfg.r_fixed)


def adc_quantize(v: float, cfg: DividerConfig) -> int:
    """Quantize a voltage to an ADC code; clamps to [0, v_ref], rounds half up."""
    clamped = min(max(v, 0.0), cfg.v_ref)
    return round_half_up(clamped / cfg.v_ref * cfg.full_scale)


def accel_output(foot_pitch: float, dyn_accel: float,
                 model: AccelerometerModel) -> tuple[float, float]:
    """Accelerometer Y/Z output voltages for a foot pitch (deg) and dynamic accel (g).

    Y reads the gravity projection on the foot's long axis, Z reads the
    vertical gravity component plus any dynamic acceleration.
    """
    if abs(foot_pitch) > 90:
        raise InputError(f"foot_pitch {foot_pitch} outside [-90, 90]")
    pitch = math.radians(foot_pitch)
    v_y = model.zero_g_bias + model.sensitivity * math.sin(pitch)
    v_z = model.zero_g_bias + model.sensitivity * (math.cos(pitch) + dyn_accel)
    return v_y, v_z


def save_trace(trace: SensorTrace, path) -> None:
    """Write ``TRACE_HEADER`` and one CRLF-terminated row per sample.

    Each block of rows is built column by column: ``t`` by ``_time_strings``
    entry by entry, each code column ``%d`` once per distinct code, and the
    labels are written as they are. Labels carry no comma, quote or line
    break, so no field needs quoting and the text is what ``csv.writer``
    writes for the same rows.
    """
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(TRACE_HEADER) + "\r\n")
        for start in range(0, len(trace.samples), TRACE_BLOCK_ROWS):
            block = trace.samples[start:start + TRACE_BLOCK_ROWS]
            columns = [_time_strings(block["t"])]
            columns += [column_strings(block[name], "%d") for name in SAMPLE_DTYPE.names[1:]]
            columns.append(trace.labels[start:start + TRACE_BLOCK_ROWS])
            f.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def load_trace(path) -> SensorTrace:
    """Read a trace CSV written by ``save_trace``.

    Rows end in LF, CRLF or CR, blank lines are skipped, and fields are
    never quoted. ``t`` is parsed by ``float()`` and each code by
    ``int()``, so both accept what those accept. Every error names the file.
    """
    try:
        with open(path, encoding="utf-8") as f:  # universal newlines
            lines = f.read().split("\n")
        return _parse_trace(lines)
    except (UnicodeDecodeError, TraceFormatError) as exc:
        raise TraceFormatError(f"{path}: {exc}") from None


def _parse_trace(lines: list[str]) -> SensorTrace:
    if lines[0] != ",".join(TRACE_HEADER):
        raise TraceFormatError(f"expected header {','.join(TRACE_HEADER)}")
    rows = list(filter(None, lines[1:]))
    if len(rows) < 2:
        raise TraceFormatError("trace needs at least two samples")
    try:
        t, *codes, labels = _split_rows(rows)
    except ValueError:
        for lineno, line in enumerate(lines[1:], start=2):  # name the first bad line
            try:
                if line:
                    _split_rows([line])
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: {exc}") from None
        raise
    return SensorTrace.from_columns(t, *codes, labels, t[1] - t[0])


def _split_rows(rows: list[str]) -> list:
    """The t, flex, Y, Z and label columns of non-blank data lines."""
    if set(map(str.count, rows, repeat(","))) - {4}:
        raise ValueError("expected 5 columns")
    fields = ",".join(rows).split(",")
    t = list(map(float, fields[0::5]))
    codes = []
    for column in (fields[1::5], fields[2::5], fields[3::5]):
        value = {s: int(s) for s in set(column)}  # each distinct spelling once
        try:
            codes.append(np.fromiter(map(value.__getitem__, column), np.int64,
                                     len(column)))
        except OverflowError:
            raise ValueError("ADC code does not fit int64") from None
    return [t, *codes, fields[4::5]]
