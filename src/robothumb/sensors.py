"""Physical models of the thumb flex sensor and foot accelerometer, and
the sensor traces they produce.

The flex sensor is a variable resistor read through a voltage divider
(flex element in the upper leg, fixed resistor in the lower leg, output
buffered) and digitised by the motor controller's analog input. The foot
sensor is a three-axis analog accelerometer of which two axes are used:
Y picks up the gravity projection along the foot (direction of motion),
Z picks up gravity plus dynamic acceleration (speed of motion).

A trace keeps its readings as columns (time, three ADC codes, labels) and
is written as a CSV of ``TRACE_HEADER`` rows, whole blocks of rows at a
time and one column at a time: a whole time below 10**15 ms is spelled as
its integer digits and any other time as its ``repr``, and a code column
is formatted once per distinct value. A file in the writer's own layout is
read back by numpy, any other text line by line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, TraceFormatError

TRACE_HEADER = ("t_ms", "flex_adc", "acc_y_adc", "acc_z_adc", "label")
SAMPLE_DTYPE = np.dtype([("t", np.float64), ("flex_adc", np.int64),
                         ("acc_y_adc", np.int64), ("acc_z_adc", np.int64)])
LABEL_FORBIDDEN = frozenset(',"\r\n')  # characters csv.writer would quote
# rows per block in the trace and step CSV writers: a block's strings stay
# below a megabyte or two, and blocks this size format as fast as larger ones
TRACE_BLOCK_ROWS = 8_192
# most digits of a whole time spelled as an integer and of a field in the
# writer's layout: float() of a whole number below 10**15 is exact, and a
# code below it fits int64
TRACE_DIGITS = 15


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


def whole_strings(column: np.ndarray) -> list[str] | None:
    """``str(int(x))`` of each entry of a float64 column if every entry is a
    whole number in [0, 10**``TRACE_DIGITS``) without a minus sign, else None."""
    whole = (column == np.rint(column)) & (column < 10.0**TRACE_DIGITS)  # NaN and inf fail
    if whole.all() and not np.signbit(column).any():
        return list(map(str, column.astype(np.int64).tolist()))
    return None


def _time_strings(t: np.ndarray) -> list[str]:
    """Each time's integer digits if it is a whole number of magnitude below
    10**``TRACE_DIGITS`` (``-0`` for -0.0), else its ``repr``."""
    return whole_strings(t) or ["%.0f" % x if x.is_integer() and abs(x) < 10.0**TRACE_DIGITS
                                else repr(x) for x in t.tolist()]


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
    """Read a trace CSV.

    The file is read once. Text in ``save_trace``'s layout with whole times
    is parsed by numpy (``_read_writer_layout``); any other text line by
    line (``_parse_trace``): rows end in LF, CRLF or CR, blank lines are
    skipped, and fields are never quoted. ``t`` is parsed by ``float()`` and
    each code by ``int()``, so both accept what those accept. Both give the
    same trace; an error names the file and any line at fault, the first.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        return _read_writer_layout(data) or _parse_trace(data)
    except (UnicodeDecodeError, TraceFormatError) as exc:
        raise TraceFormatError(f"{path}: {exc}") from None


# the writer's layout: this header line, then rows of four digit fields and a
# label, split by commas and, like the header, ended by CRLF
_HEADER_LINE = (",".join(TRACE_HEADER) + "\r\n").encode()


def _read_writer_layout(data: bytes) -> SensorTrace | None:
    """The trace of a file in ``save_trace``'s layout with whole times, or
    None for any other text.

    In that layout ``t`` and the three codes are 1 to ``TRACE_DIGITS``
    ASCII digits each and a label is UTF-8 without CR. The commas and LFs
    are found once; the header line is the first row of five. Each digit
    field is read right-aligned, one digit column at a time from the
    leading one (Horner's rule), as int64.
    """
    if not data.startswith(_HEADER_LINE):
        return None
    raw = np.frombuffer(data, np.uint8)
    is_lf = raw == ord("\n")
    seps = np.flatnonzero(is_lf | (raw == ord(",")))
    if len(seps) % 5 or seps[-1] != len(raw) - 1:  # a last row without LF
        return None
    seps = seps.reshape(-1, 5)
    lines = seps[:, 4]  # the LF of each line, the header's first
    n = len(lines) - 1
    # every fifth separator is an LF and no other is, so each line has four
    # commas; each LF follows a CR and no other byte is a CR
    if (n < 2 or np.count_nonzero(is_lf) != len(lines)
            or not (raw[lines] == ord("\n")).all()
            or not (raw[lines - 1] == ord("\r")).all()
            or np.count_nonzero(raw == ord("\r")) != len(lines)):
        return None
    stops = seps[1:, :4].copy()  # the comma after each digit field
    starts = np.empty_like(stops)
    starts[:, 0] = lines[:-1] + 1
    starts[:, 1:] = stops[:, :3] + 1
    widths = stops - starts
    if widths.min() < 1 or widths.max() > TRACE_DIGITS:
        return None
    values = np.zeros(stops.shape, np.int64)
    at = np.empty_like(stops)
    # the header precedes every field, so no position falls before the file
    for k in range(int(widths.max()), 0, -1):
        np.subtract(stops, k, out=at)
        digits = raw.take(at)
        digits -= ord("0")  # uint8: a byte below "0" wraps past 9
        digits *= widths >= k
        if digits.max() > 9:
            return None
        values *= 10
        values += digits
    if (lines[1:] - stops[:, 3] == 2).all():  # comma, CR, LF: every label empty
        labels = ("",) * n
    else:
        try:
            labels = [data[a:b].decode("utf-8") for a, b in
                      zip((stops[:, 3] + 1).tolist(), (lines[1:] - 1).tolist())]
        except UnicodeDecodeError:
            return None
    t = values[:, 0].astype(np.float64)
    return SensorTrace.from_columns(t, values[:, 1], values[:, 2], values[:, 3],
                                    labels, t[1] - t[0])


def _parse_trace(data: bytes) -> SensorTrace:
    """The trace of a file's text, each line parsed once, in order."""
    # universal newlines, as a file opened in text mode reads them
    lines = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[0] != ",".join(TRACE_HEADER):
        raise TraceFormatError(f"expected header {','.join(TRACE_HEADER)}")
    if len(lines) - lines.count("") < 3:  # the header and two rows
        raise TraceFormatError("trace needs at least two samples")
    code = _Codes()
    t, flex, acc_y, acc_z, labels = [], [], [], [], []
    try:
        for lineno, line in enumerate(lines[1:], start=2):
            if line:
                fields = line.split(",")
                if len(fields) != 5:
                    raise ValueError("expected 5 columns")
                t.append(float(fields[0]))
                flex.append(code[fields[1]])
                acc_y.append(code[fields[2]])
                acc_z.append(code[fields[3]])
                labels.append(fields[4])
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from None
    return SensorTrace.from_columns(t, flex, acc_y, acc_z, labels, t[1] - t[0])


class _Codes(dict):
    """ADC codes by spelling, each distinct spelling parsed by ``int()`` once."""

    def __missing__(self, spelling: str) -> int:
        value = int(spelling)
        if not -2**63 <= value < 2**63:
            raise ValueError("ADC code does not fit int64")
        self[spelling] = value
        return value
