"""Physical models of the thumb flex sensor and foot accelerometer, and
the sensor traces they produce.

The flex sensor is a variable resistor read through a voltage divider
(flex element in the upper leg, fixed resistor in the lower leg, output
buffered) and digitised by the motor controller's analog input. The foot
sensor is a three-axis analog accelerometer of which two axes are used:
Y picks up the gravity projection along the foot (direction of motion),
Z picks up gravity plus dynamic acceleration (speed of motion).

A trace keeps its readings as columns (time, three ADC codes, labels). Every
numeric CSV of the package is written in ``blocks`` of ``BLOCK_ROWS`` rows,
each spelled by ``fixed_point_rows``: by numpy from a table of digits, or one
``%`` per row where a value is out of range. Traces here and direction sets in
``analysis`` are read back by numpy a chunk at a time through one frame,
``writer_rows``; a trace that leaves the writer's layout is read line by line.

``adc_quantize`` rounds by the one rounding rule, ``plant.round_half_away``;
``check_adc_codes`` checks a trace's codes for ``simulate`` and ``calibrate``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, TraceFormatError, require
from .plant import round_half_away

TRACE_HEADER = ("t_ms", "flex_adc", "acc_y_adc", "acc_z_adc", "label")
SAMPLE_DTYPE = np.dtype([("t", np.float64), ("flex_adc", np.int64),
                         ("acc_y_adc", np.int64), ("acc_z_adc", np.int64)])
LABEL_FORBIDDEN = frozenset(',"\r\n')  # characters csv.writer would quote
# rows per block in the CSV writers and the direction loops: the direction
# writer holds about 2.0 MiB at a block and binning a direction file about
# 1.4 MiB at a chunk, each its buffers included, and blocks this size write
# as fast as larger ones; 65,536-row blocks raised the peak memory of a
# 600k-row sweep by about 5 MiB
BLOCK_ROWS = 8_192
# most digits of a whole time spelled as an integer and of a field in the
# writer's layout: float() of a whole number below 10**15 is exact, and a
# code below it fits int64
TRACE_DIGITS = 15


def blocks(rows):
    """Consecutive slices of ``BLOCK_ROWS`` rows, the last one shorter."""
    for start in range(0, len(rows), BLOCK_ROWS):
        yield rows[start:start + BLOCK_ROWS]


@functools.cache
def digit_words() -> np.ndarray:
    """The four ASCII digits of 0 to 9,999 as ``<u4`` words, leading digit first."""
    i = np.arange(10_000, dtype="<u4")
    return i // 1000 + (i // 100 % 10 << 8) + (i // 10 % 10 << 16) + (i % 10 << 24) + 0x30303030


def _spell(text: np.ndarray, values: np.ndarray, stop: int, width: int) -> None:
    """Write non-negative int64s of at most ``width`` digits, zero-padded, to
    ``text[:, stop - width:stop]``."""
    groups = np.empty((len(values), (width + 3) // 4), np.int64)  # of 4 digits, leading first
    for j in range(groups.shape[1] - 1, 0, -1):
        values, groups[:, j] = np.divmod(values, 10_000)
    groups[:, 0] = values
    digits = digit_words().take(groups).view(np.uint8).reshape(len(groups), -1)
    text[:, stop - width:stop] = digits[:, digits.shape[1] - width:]


def fixed_point_rows(columns, decimals, ends, scratch: dict) -> np.ndarray:
    """The text of rows of equal-length columns as a uint8 array, field ``k``
    ``"%.{d}f"`` of a float64 entry (``d = decimals[k]``) or ``"%d"`` of an
    int64 one (``d = 0``), then ``ends[k]``. Where every float is finite with
    ``|x| * 10**d < 2**44`` and every int within ``(-10**18, 10**18)``, each
    field is spelled from its count of ``10**-d`` in a slot as wide as the
    block's widest, and one mask drops each row's unused bytes; otherwise each
    row is one ``%``.

    A writer passes one ``scratch`` dict with each of its blocks: the byte
    matrix and the mask are kept there and reused, so a file of many blocks
    does not ask the allocator for them block after block, and they go when
    the writer drops the dict."""
    fields = []  # per field: minus signs, whole and fractional counts, decimals, width
    for column, d in zip(columns, decimals):
        if column.dtype.kind == "f":
            with np.errstate(over="ignore"):  # an overflow to inf fails the check
                scaled = np.abs(column) * 10.0**d
            if not (scaled < 2.0**44).all():  # NaN and inf fail too
                return _row_text(columns, decimals, ends)
            # 10.0**d is exact for d up to 22 and the product is correctly
            # rounded, so it lies within half an ulp of the exact one, and no
            # ulp of the column exceeds that of its largest product: within
            # that ulp of a rounding tie, the exact value decides: ask CPython
            counts = np.rint(scaled)
            window = 0.5 - np.spacing(scaled.max())
            for i in np.flatnonzero(~(np.abs(scaled - counts) < window)).tolist():
                counts[i] = int(("%.*f" % (d, abs(column[i]))).replace(".", ""))
            counts = counts.astype(np.int64)
        elif ((column > -10**18) & (column < 10**18)).all():
            counts = np.abs(column)
        else:
            return _row_text(columns, decimals, ends)
        whole, fraction = np.divmod(counts, 10**d) if d else (counts, None)
        fields.append((np.signbit(column), whole, fraction, d, len(str(int(whole.max())))))
    template = b"".join(b"-" + b"0" * width + b"." * (d > 0) + b"0" * d + end
                        for (*_, d, width), end in zip(fields, ends))
    shape = (len(columns[0]), len(template))
    text = scratch_array(scratch, "text", shape, np.uint8)
    text[:] = np.frombuffer(template, np.uint8)
    keep = scratch_array(scratch, "keep", shape, bool)
    keep[:] = True
    at = 0  # the first column of the next field, its sign
    for (negative, whole, fraction, d, width), end in zip(fields, ends):
        keep[:, at] = negative  # "%f" signs -0.0 and tiny negatives
        at += 1 + width  # past the integer digits
        _spell(text, whole, at, width)
        for k in range(1, width):  # the pad left of the leading digit
            keep[:, at - 1 - k] = whole >= 10**k
        if d:
            _spell(text, fraction, at + 1 + d, d)
        at += (d > 0) + d + len(end)
    return text[keep]  # bytes-like: a file writes it without a copy


def scratch_array(scratch: dict, name: str, shape, dtype) -> np.ndarray:
    """An array of ``shape``: a view of ``scratch[name]``, grown as needed."""
    size = math.prod(shape)
    if name not in scratch or scratch[name].size < size:
        scratch[name] = np.empty(size, dtype)
    return scratch[name][:size].reshape(shape)


def _row_text(columns, decimals, ends) -> np.ndarray:
    """``fixed_point_rows``'s text formatted one ``%`` per row."""
    row = b"".join((b"%%.%df" % d if column.dtype.kind == "f" else b"%d") + end
                   for column, d, end in zip(columns, decimals, ends))
    text = b"".join(map(row.__mod__, zip(*(column.tolist() for column in columns))))
    return np.frombuffer(text, np.uint8)


class OtherLayout(Exception):
    """A file leaves the layout that a reader parses; it is read another way."""


def writer_rows(f, header: bytes, size: int):
    """Views of the whole rows of the binary file ``f`` after the line
    ``header``, read into one buffer of ``size`` bytes: each view ends after
    the last LF read, and is valid until the next is asked for; the row cut
    short is carried to the front of the buffer for the next read.

    Raises ``OtherLayout`` before reading any byte of a file that is not a
    regular file, so that the caller can still read a pipe whole; and where
    the header differs, a row is longer than the buffer or the last row has
    no LF."""
    if not stat.S_ISREG(os.fstat(f.fileno()).st_mode) or f.read(len(header)) != header:
        raise OtherLayout
    buf = bytearray(size)
    view = memoryview(buf)
    kept = 0  # the bytes of the row cut short
    while end := kept + f.readinto(view[kept:]):
        cut = buf.rfind(b"\n", 0, end) + 1
        if not cut:  # a full buffer without LF, or a last row without LF
            raise OtherLayout
        yield view[:cut]
        kept = end - cut
        buf[:kept] = buf[cut:end]


def _time_text(t: float) -> str:
    """A whole time of magnitude below 10**``TRACE_DIGITS`` as its integer
    digits (``-0`` for -0.0), any other time as its ``repr``."""
    return "%.0f" % t if t.is_integer() and abs(t) < 10.0**TRACE_DIGITS else repr(t)


@dataclass(frozen=True)
class SensorConfig:
    """The flex sensor, its voltage divider, the ADC and the accelerometer."""

    flex_r_flat: float = 13.0       # kOhm at 0 degrees
    flex_r_bent: float = 26.0       # kOhm at full pinch bend
    flex_angle_range: float = 180.0  # degrees spanned between the two endpoints
    divider_vcc: float = 5.0        # V supply
    divider_r_fixed: float = 20.0   # kOhm lower leg
    adc_bits: int = 12
    adc_v_ref: float = 5.0          # V full scale of the ADC
    accel_sensitivity: float = 0.3  # V/g
    accel_zero_g_bias: float = 1.5  # V at 0 g

    def __post_init__(self):
        require(self, "positive", "flex_r_flat")
        if not self.flex_r_bent > self.flex_r_flat:
            raise ConfigurationError("flex_r_bent must exceed flex_r_flat")
        require(self, "positive", "flex_angle_range", "divider_vcc", "divider_r_fixed")
        if not 8 <= self.adc_bits <= 16:
            raise ConfigurationError("adc_bits must be in [8, 16]")
        require(self, "positive", "adc_v_ref", "accel_sensitivity")
        require(self, "finite", "accel_zero_g_bias")

    @property
    def full_scale(self) -> int:
        return (1 << self.adc_bits) - 1


@dataclass(frozen=True, eq=False)
class SensorTrace:
    """Time-ordered, uniformly sampled sensor readings, stored as columns.

    A trace is its samples plus labels. ``samples`` holds one
    ``SAMPLE_DTYPE`` record per reading: the time ``t`` (ms, float64) and the
    three ADC codes (int64); ``labels`` holds each reading's calibration
    segment tag, empty outside calibration, or is itself empty when no
    reading carries a tag, so that an unlabelled trace keeps no per-reading
    container. The sampling period is the first spacing of the times, and
    every other spacing lies within 1% of it. The array is read-only once
    the trace is checked. Compare traces column by column: ``==`` on arrays is
    element-wise.
    """

    samples: np.ndarray
    labels: tuple[str, ...]

    @classmethod
    def from_columns(cls, t, flex_adc, acc_y_adc, acc_z_adc, labels) -> "SensorTrace":
        samples = np.empty(len(t), SAMPLE_DTYPE)
        samples["t"] = t
        for name, codes in zip(SAMPLE_DTYPE.names[1:], (flex_adc, acc_y_adc, acc_z_adc)):
            try:
                samples[name] = codes
            except OverflowError as exc:
                raise InputError(f"{name}: an ADC code does not fit int64") from exc
        labels = tuple(labels)
        return cls(samples, labels if any(labels) else ())

    def __post_init__(self):
        if self.labels and len(self.labels) != len(self.samples):
            raise TraceFormatError("trace needs one label per sample")
        for label in set(self.labels):
            if not LABEL_FORBIDDEN.isdisjoint(label):
                raise TraceFormatError(
                    f"label {label!r} contains a comma, quote or line break")
        t = self.samples["t"]
        bad = ~np.isfinite(t)
        if bad.any():
            raise TraceFormatError(f"sample timestamp {t[bad][0]} is not finite")
        if (t < 0).any():
            raise TraceFormatError("sample timestamps must be non-negative")
        dt = np.diff(t)
        if (dt <= 0).any():
            raise TraceFormatError("sample timestamps must be strictly increasing")
        period = float(dt[0]) if len(dt) else 0.0  # ms, the first spacing
        dt -= period  # in place: the spacings' deviations
        off = np.abs(dt, out=dt) > 0.01 * period
        if off.any():
            raise TraceFormatError(
                f"sample spacing {np.diff(t)[off][0]} ms deviates more than 1% from "
                f"period {period} ms")
        self.samples.flags.writeable = False


def flex_resistance(bend_angle: float, cfg: SensorConfig) -> float:
    """Flex resistance (kOhm), linear between the two measured endpoints."""
    if not 0 <= bend_angle <= cfg.flex_angle_range:
        raise InputError(f"bend_angle {bend_angle} outside [0, {cfg.flex_angle_range}]")
    frac = bend_angle / cfg.flex_angle_range
    return cfg.flex_r_flat + frac * (cfg.flex_r_bent - cfg.flex_r_flat)


def divider_voltage(r_flex: float, cfg: SensorConfig) -> float:
    """Buffered divider output (V); strictly decreasing in r_flex."""
    if not r_flex > 0:
        raise InputError("r_flex must be positive")
    return cfg.divider_vcc * cfg.divider_r_fixed / (r_flex + cfg.divider_r_fixed)


def adc_quantize(v: float, cfg: SensorConfig) -> int:
    """Quantize a voltage to an ADC code; clamps to [0, adc_v_ref], rounds half up."""
    clamped = min(max(v, 0.0), cfg.adc_v_ref)
    return round_half_away(clamped / cfg.adc_v_ref * cfg.full_scale)


def check_adc_codes(trace: SensorTrace, cfg: SensorConfig) -> None:
    """Reject a trace carrying a code outside [0, full_scale], naming the
    first sample that does."""
    codes = [trace.samples[name] for name in SAMPLE_DTYPE.names[1:]]
    in_range = np.logical_and.reduce([(c >= 0) & (c <= cfg.full_scale) for c in codes])
    if not in_range.all():
        s = trace.samples[int(np.argmin(in_range))].tolist()
        raise InputError(f"sample at t={s[0]} ms carries ADC codes {s[1]}, "
                         f"{s[2]}, {s[3]}, not all in [0, {cfg.full_scale}]")


def accel_output(foot_pitch: float, dyn_accel: float,
                 cfg: SensorConfig) -> tuple[float, float]:
    """Accelerometer Y/Z output voltages for a foot pitch (deg) and dynamic accel (g).

    Y reads the gravity projection on the foot's long axis, Z reads the
    vertical gravity component plus any dynamic acceleration.
    """
    if not abs(foot_pitch) <= 90:
        raise InputError(f"foot_pitch {foot_pitch} outside [-90, 90]")
    pitch = math.radians(foot_pitch)
    v_y = cfg.accel_zero_g_bias + cfg.accel_sensitivity * math.sin(pitch)
    v_z = cfg.accel_zero_g_bias + cfg.accel_sensitivity * (math.cos(pitch) + dyn_accel)
    return v_y, v_z


def save_trace(traces, path) -> None:
    """Write ``TRACE_HEADER`` and one CRLF-terminated row per sample: the time
    by ``_time_text``, the codes by ``%d``, then the label. Labels carry no
    comma, quote or line break, so the text is what ``csv.writer`` writes.
    ``traces`` is a ``SensorTrace``, or an iterable of the ``SensorTrace``
    blocks of one trace in order, such as ``synth.press_blocks`` draws, each
    written as it comes, so that the whole trace is never held.
    A block whose times are whole and below 10**``TRACE_DIGITS`` (``"%.0f"``
    spells them as ``_time_text`` does) goes through ``fixed_point_rows``, its
    labels spliced in before each CRLF; any other block is formatted row by row."""
    scratch = {}
    with open(path, "wb") as f:
        f.write(_HEADER_LINE)
        for trace in [traces] if isinstance(traces, SensorTrace) else traces:
            # an unlabelled trace writes an empty label on each row
            label_blocks = (blocks(trace.labels) if trace.labels
                            else itertools.repeat(("",) * BLOCK_ROWS))
            for block, labels in zip(blocks(trace.samples), label_blocks):
                f.write(_block_text(block, labels, scratch))


def _block_text(block: np.ndarray, labels, scratch: dict):
    """The text of one block of at most ``BLOCK_ROWS`` samples and their labels."""
    t = block["t"]
    if (t == np.rint(t)).all() and t.max() < 10.0**TRACE_DIGITS:
        text = fixed_point_rows([block[name] for name in SAMPLE_DTYPE.names],
                                (0, 0, 0, 0), (b",", b",", b",", b",\r\n"), scratch)
        if any(labels):
            text = b"".join(map(b"%s%s\r\n".__mod__,
                                zip(text.tobytes().split(b"\r\n"),
                                    map(str.encode, labels))))
        return text
    return "".join("%s,%d,%d,%d,%s\r\n" % (_time_text(ms), flex, acc_y, acc_z, label)
                   for (ms, flex, acc_y, acc_z), label in zip(block.tolist(), labels)
                   ).encode()


def load_trace(path) -> SensorTrace:
    """Read a trace CSV.

    A regular file in ``save_trace``'s layout with whole times is parsed by
    numpy a chunk at a time (``_read_writer_layout``); any other is read whole
    and parsed line by line (``_parse_trace``): rows end in LF, CRLF or CR,
    blank lines are skipped, and fields are never quoted. ``t`` is parsed by
    ``float()`` and each code by ``int()``, so both accept what those accept.
    Both give the same trace; an error names the file and any line at fault.
    """
    try:
        with open(path, "rb") as f:
            with contextlib.suppress(OtherLayout):
                return _read_writer_layout(f)
            with open(path, "rb") as text:  # f stays open: a pipe it left unread keeps its text
                return _parse_trace(text.read())
    except (UnicodeDecodeError, TraceFormatError) as exc:
        raise TraceFormatError(f"{path}: {exc}") from None


# the writer's layout: this header line, then rows of four digit fields and a
# label, split by commas and, like the header, ended by CRLF
_HEADER_LINE = (",".join(TRACE_HEADER) + "\r\n").encode()
TRACE_CHUNK = BLOCK_ROWS * 8  # bytes read at once; a longer row goes to the text parser


def _read_writer_layout(f) -> SensorTrace:
    """The trace of a file in ``save_trace``'s layout with whole times; raises
    ``OtherLayout`` where its text leaves that layout.

    In that layout ``t`` and the three codes are 1 to ``TRACE_DIGITS`` ASCII
    digits each and a label is UTF-8 without CR. ``writer_rows`` reads the body
    twice: to count the rows, which sizes the samples, then to parse each
    chunk's whole rows. In a chunk the commas and LFs are found once; each
    digit field is read right-aligned, one digit column at a time from the
    leading one (Horner's rule), as int64.
    """
    n = sum(np.count_nonzero(np.frombuffer(text, np.uint8) == ord("\n"))
            for text in writer_rows(f, _HEADER_LINE, TRACE_CHUNK))
    f.seek(0)
    samples, labels, filled = np.empty(n, SAMPLE_DTYPE), None, 0  # filled: rows parsed
    for text in writer_rows(f, _HEADER_LINE, TRACE_CHUNK):
        raw = np.frombuffer(text, np.uint8)
        seps = np.flatnonzero((raw == ord("\n")) | (raw == ord(",")))
        lines = seps[4::5]  # the LF of each row
        # every fifth separator is an LF and no other is, so each row has four
        # commas; each LF follows a CR and no other byte is a CR
        if (len(seps) % 5 or filled + len(lines) > n
                or not ((raw[seps] == ord("\n")).reshape(-1, 5) == [0, 0, 0, 0, 1]).all()
                or not (raw[lines - 1] == ord("\r")).all()
                or np.count_nonzero(raw == ord("\r")) != len(lines)):
            raise OtherLayout
        stops = seps.reshape(-1, 5)[:, :4].copy()  # the comma after each digit field
        widths = stops - np.append(-1, seps[:-1]).reshape(-1, 5)[:, :4] - 1
        if widths.min() < 1 or widths.max() > TRACE_DIGITS:
            raise OtherLayout
        values = np.zeros(stops.shape, np.int64)
        at = np.empty_like(stops)
        for k in range(int(widths.max()), 0, -1):
            np.subtract(stops, k, out=at)
            digits = raw.take(at, mode="clip")  # a position before the chunk is masked
            digits -= ord("0")  # uint8: a byte below "0" wraps past 9
            digits *= widths >= k
            if digits.max() > 9:
                raise OtherLayout
            values *= 10
            values += digits
        rows = slice(filled, filled + len(values))
        for k, name in enumerate(SAMPLE_DTYPE.names):
            samples[name][rows] = values[:, k]
        if not (lines - stops[:, 3] == 2).all():  # comma, CR, LF: an empty label
            labels = labels or [""] * n
            try:
                labels[rows] = [str(text[a:b], "utf-8") for a, b in
                                zip((stops[:, 3] + 1).tolist(), (lines - 1).tolist())]
            except UnicodeDecodeError:
                raise OtherLayout from None
        filled = rows.stop
    if not 2 <= filled == n:  # under two rows
        raise OtherLayout
    return SensorTrace(samples, tuple(labels) if labels else ())


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
    return SensorTrace.from_columns(t, flex, acc_y, acc_z, labels)


class _Codes(dict):
    """ADC codes by spelling, each distinct spelling parsed by ``int()`` once."""

    def __missing__(self, spelling: str) -> int:
        value = int(spelling)
        if not -2**63 <= value < 2**63:
            raise ValueError("ADC code does not fit int64")
        self[spelling] = value
        return value
