"""Sensor-trace CSVs: golden digests of the synthesized traces, the trace
writer's text against ``csv.writer``'s, the loader against arbitrary input,
at each point where it parts from ``csv.reader`` and against the loader as
first written (``reference_load``), and the sample count that the benchmark
tracer reads as ``len(trace.samples)``."""

import csv
import hashlib
import io
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robothumb import default_config, sensors, synth
from robothumb.cli import main
from robothumb.config import load_config
from robothumb.errors import InputError, RobothumbError, TraceFormatError
from robothumb.sensors import (BLOCK_ROWS, SAMPLE_DTYPE, TRACE_HEADER, SensorTrace,
                               load_trace, save_trace)

REAR_CONFIG = "[mount]\ndepth = 60\n"

# name -> (file written, synth arguments, config text or None, SHA-256)
TRACE_GOLDEN = {
    "calibration": ("calibration_trace.csv", ("calibration",), None,
                    "217cf89c14cc1f54d54f227230d83cbe7eee26414e41bfc4d3a8791eda3c79a9"),
    "press_100_key46": (
        "press_trace.csv", ("press", "--key", 46, "--repeat", 100), None,
        "40ce301ed6164a81255ac4409e01df0922047b64987604fbdd1ceb2caa2775d1"),
    "press_100_key46_flex_noise": (
        "press_trace.csv", ("press", "--key", 46, "--repeat", 100,
                            "--flex-noise", 2, "--seed", 3), None,
        "68d7ed6fe206333a90bc288b6e2c4baaf417e674c7ab06e2674d14fc7ce18743"),
    "scale_rear": ("scale_trace.csv", ("scale",), REAR_CONFIG,
                   "9c108f0d7d92e36b1e77282cc4aae3babaabe2551b613d56ea8b8bc2705063d9"),
}


def run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


@pytest.mark.parametrize("name", sorted(TRACE_GOLDEN))
def test_trace_csv_matches_golden_digest(name, tmp_path):
    trace_file, synth_args, config_text, digest = TRACE_GOLDEN[name]
    config = ()
    if config_text is not None:
        (tmp_path / "config.ini").write_text(config_text)
        config = ("--config", tmp_path / "config.ini")
    run("synth", *synth_args, *config, "--out", tmp_path)
    assert hashlib.sha256((tmp_path / trace_file).read_bytes()).hexdigest() == digest


def time_text(t: float) -> str:
    """``repr(t)`` without its ``.0`` where ``t`` is a whole number of
    magnitude below 10**15, else ``repr(t)``."""
    text = repr(float(t))
    return text[:-2] if abs(t) < 1e15 and text.endswith(".0") else text


def csv_writer_text(t, flex, acc_y, acc_z, labels) -> str:
    """The text ``csv.writer`` gives the trace rows, ``t`` by ``time_text``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(TRACE_HEADER)
    for ti, f, y, z, label in zip(t, flex, acc_y, acc_z, labels):
        writer.writerow([time_text(ti), f, y, z, label])
    return buf.getvalue()


def unquoted(label: str) -> bool:
    return csv_writer_text([0.0], [0], [0], [0], [label]).endswith(f",{label}\r\n")


INT64 = st.integers(-2**63, 2**63 - 1)
# the edges of int64 and of the trace writer's fixed-point range
EDGE_CODES = [-2**63, 2**63 - 1, 10**18 - 1, -(10**18 - 1), 10**18, -(10**18)]
PERIODS = (st.floats(min_value=5e-324, max_value=1e300)
           | st.sampled_from([1.0, 0.3, 2.5, 1e-300, 5e-324, 1e300]))
LABELS = (st.text(max_size=6)
          | st.sampled_from(["", "flex_min", " z_rest ", "\x0c", "\x85",
                             "\u2028", "\x1c", "\t", "'", "a,b", '"q"', "\r",
                             "x\r\ny"]))


@st.composite
def trace_columns(draw):
    n = draw(st.integers(1, 30))
    period = draw(PERIODS)
    t = [i * period for i in range(n)]
    if draw(st.booleans()):
        t[0] = -0.0
    codes = []
    for _ in range(3):  # a few codes repeated, mixed with arbitrary ones
        pool = draw(st.lists(INT64 | st.sampled_from(EDGE_CODES), min_size=1, max_size=4))
        codes.append(draw(st.lists(st.sampled_from(pool) | INT64, min_size=n, max_size=n)))
    return (t, *codes, draw(st.lists(LABELS, min_size=n, max_size=n)))


@settings(deadline=None)
@given(trace_columns())
def test_save_trace_matches_csv_writer(tmp_path_factory, columns):
    """Labels that csv.writer leaves unquoted are written as it writes them;
    a trace with a label it would quote cannot be built."""
    if not all(map(unquoted, columns[4])):
        with pytest.raises(TraceFormatError, match="comma, quote or line break"):
            SensorTrace.from_columns(*columns)
        return
    path = tmp_path_factory.getbasetemp() / "property.csv"
    save_trace(SensorTrace.from_columns(*columns), path)
    assert path.read_bytes().decode("utf-8") == csv_writer_text(*columns)


def assert_same_text(text, expected):
    """``text == expected``, a mismatch reported at its first differing line
    rather than as a diff of the whole file."""
    lines, expected_lines = text.splitlines(True), expected.splitlines(True)
    for lineno, (line, expected_line) in enumerate(zip(lines, expected_lines), 1):
        assert line == expected_line, f"line {lineno}"
    assert len(lines) == len(expected_lines)


@pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               65_535, 65_536, 65_537])
def test_save_trace_matches_csv_writer_at_block_edges(n, tmp_path):
    """Repeated codes and labels across the edges of the writer's blocks."""
    rng = np.random.default_rng(n)
    rows = [[i * 1.0 for i in range(n)], rng.integers(0, 16, n).tolist(),
            rng.choice(EDGE_CODES, n).tolist(), rng.integers(1, 3, n).tolist(),
            rng.choice(["", "flex_min", " z_rest "], n).tolist()]
    save_trace(SensorTrace.from_columns(*rows), tmp_path / "trace.csv")
    text = (tmp_path / "trace.csv").read_bytes().decode("utf-8")
    assert_same_text(text, csv_writer_text(*rows))


@pytest.mark.parametrize("column, value", [("flex_adc", 10**18), ("acc_z_adc", -2**63),
                                           ("label", "flex_min")])
def test_save_trace_one_block_out_of_fixed_point_range(column, value, tmp_path):
    """One code beyond the fixed-point range, or one label, in the middle one
    of three of the writer's blocks, at its first row; the blocks either side
    hold whole times, codes in range and empty labels."""
    n = 3 * BLOCK_ROWS
    rng = np.random.default_rng(n)
    rows = dict(zip(TRACE_HEADER, [[float(i) for i in range(n)],
                                   *rng.integers(0, 4_096, (3, n)).tolist(), [""] * n]))
    rows[column][BLOCK_ROWS] = value
    save_trace(SensorTrace.from_columns(*rows.values()), tmp_path / "trace.csv")
    text = (tmp_path / "trace.csv").read_bytes().decode("utf-8")
    assert_same_text(text, csv_writer_text(*rows.values()))


@pytest.mark.parametrize("t", [[0.0, 1.0, 2.0], [-0.0, 1.0], [999_998.0, 999_999.0],
                               [999_999.0, 1e6], [0.5, 1.0], [2.0**44, 2.0**44 + 1],
                               [1e14, 1e14 + 1], [1e15, 1e15 + 1]],
                         ids=["whole", "minus-zero", "below-1e6", "1e6", "half", "2**44",
                              "1e14", "1e15"])
def test_save_trace_spells_times_as_csv_writer(t, tmp_path):
    n = len(t)
    rows = [t, [0] * n, [0] * n, [0] * n, [""] * n]
    save_trace(SensorTrace.from_columns(*rows), tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes().decode("utf-8") == csv_writer_text(*rows)


def times_trace(t) -> SensorTrace:
    n = len(t)
    return SensorTrace.from_columns(t, [0] * n, [0] * n, [0] * n, [""] * n)


@settings(deadline=None)
@given(st.integers(0, 10**7), st.integers(2, 30), PERIODS)
def test_saved_times_load_back_unchanged(tmp_path_factory, start, n, period):
    try:
        trace = times_trace([(start + i) * period for i in range(n)])
    except TraceFormatError:  # times that overflow or collide make no trace
        assume(False)
    path = tmp_path_factory.getbasetemp() / "times.csv"
    save_trace(trace, path)
    assert np.array_equal(load_trace(path).samples["t"].view(np.int64),
                          trace.samples["t"].view(np.int64))


def test_times_from_a_million_ms_load_back_unchanged(tmp_path):
    """Whole times keep every digit past 6 significant ones."""
    t = [999_999.0, 1_000_000.0, 1_000_001.0]
    save_trace(times_trace(t), tmp_path / "trace.csv")
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["999999", "1000000", "1000001"]
    assert load_trace(tmp_path / "trace.csv").samples["t"].tolist() == t


def test_press_trace_at_fractional_timestep_simulates(tmp_path):
    """At 0.3 ms per step, ``%g`` wrote 0.3 * 3 as 0.9 and, from 100,000 ms
    on, two samples as 100000; the loader rejected that trace."""
    (tmp_path / "config.ini").write_text("[simulation]\ntimestep = 0.3\n")
    common = ("--config", tmp_path / "config.ini", "--out", tmp_path)
    run("synth", "calibration", *common)
    run("calibrate", "--trace", tmp_path / "calibration_trace.csv",
        "--anchors", tmp_path / "anchors.txt", *common)
    run("synth", "press", "--key", 46, "--repeat", 300, *common)
    assert (tmp_path / "press_trace.csv").read_text().split("\n")[4].startswith(
        "0.8999999999999999,")
    run("simulate", "--trace", tmp_path / "press_trace.csv",
        "--calibration", tmp_path / "calibration.txt", *common)


def data_rows(path) -> int:
    """Non-blank lines after the header of a trace CSV."""
    return sum(1 for line in path.read_text().split("\n")[1:] if line)


def test_trace_samples_counts_data_rows(tmp_path):
    """``len(trace.samples)`` is the data-row count of the trace's CSV, for
    every synthesized trace and for a loaded one."""
    cfg = default_config()
    traces = {"calibration": synth.calibration_trace(cfg),
              "press": synth.press_trace(cfg, 46, repeat=3),
              "scale": synth.scale_trace(cfg, [43, 44, 46])}
    for name, trace in traces.items():
        path = tmp_path / f"{name}.csv"
        save_trace(trace, path)
        assert len(trace.samples) == data_rows(path) > 0, name
        assert len(load_trace(path).samples) == data_rows(path), name


def press_columns(cfg, flex_target, speed, repeat, rows):
    """(flex, y, z) code columns of ``rows`` rows: rest for ``LEAD_MS``,
    ``repeat`` press cycles, then rest; the formula of the whole-trace
    synthesis that block-wise drawing replaced, kept here as the reference."""
    y_down, z_rest = synth.accel_codes(cfg, 0.0, 0.0)
    y_up, _ = synth.accel_codes(cfg, synth.FOOT_UP_PITCH_DEG, 0.0)
    _, z_pulse = synth.accel_codes(cfg, 0.0, speed * synth.CAL_LIFT_DYN_G)
    pulse = synth._pulse_ms(speed)
    phase = np.arange(rows) * cfg.simulation.timestep - synth.LEAD_MS
    in_cycle = np.where((phase >= 0) & (phase < repeat * synth.PRESS_CYCLE_MS),
                        phase % synth.PRESS_CYCLE_MS, np.inf)
    lifted = (in_cycle < pulse) | ((synth.PRESS_HOLD_MS <= in_cycle)
                                   & (in_cycle < synth.PRESS_HOLD_MS + pulse))
    return [np.full(rows, flex_target), np.where(in_cycle < synth.PRESS_HOLD_MS, y_up, y_down),
            np.where(lifted, z_pulse, z_rest)]


def reference_bytes(cfg, columns, path) -> bytes:
    """The text ``save_trace`` gives one whole trace of ``columns``, a row
    every timestep from t = 0."""
    t = np.arange(len(columns[0])) * cfg.simulation.timestep
    save_trace(SensorTrace.from_columns(t, *columns, ()), path)
    return path.read_bytes()


# (timestep, presses, rows): 1 ms traces on both sides of one and of two
# blocks, and traces of one press that end one row before, at and after a block
BLOCK_EDGE_PRESSES = [(1.0, 17, 8_000), (1.0, 18, 8_400), (1.0, 37, 16_000),
                      (1.0, 38, 16_400), (1600 / 8191, 1, 8191), (1600 / 8192, 1, 8192),
                      (1600 / 8193, 1, 8193)]


@pytest.mark.parametrize("seed", [0, 3, 29])
@pytest.mark.parametrize("timestep, repeat, rows", BLOCK_EDGE_PRESSES)
def test_press_drawn_in_blocks_is_one_whole_draw(timestep, repeat, rows, seed, tmp_path):
    """CLI ``synth press --flex-noise 2`` writes the bytes of one whole trace
    whose flex jitter is one ``normal`` draw of every row, and so does
    ``synth.press_trace``."""
    (tmp_path / "config.ini").write_text(f"[simulation]\ntimestep = {timestep!r}\n")
    cfg = load_config(tmp_path / "config.ini")
    run("synth", "press", "--config", tmp_path / "config.ini", "--key", 46, "--repeat", repeat,
        "--flex-noise", 2, "--seed", seed, "--out", tmp_path)
    target = synth.flex_code_for_key(cfg, cfg.layout.keys[46], synth.anchors_from_config(cfg))
    columns = press_columns(cfg, target, 0.5, repeat, rows)
    jitter = np.rint(np.random.default_rng(seed).normal(0.0, 2.0, rows))
    columns[0] = np.clip(target + jitter, 0, cfg.sensors.full_scale)
    expected = reference_bytes(cfg, columns, tmp_path / "reference.csv")
    assert (tmp_path / "press_trace.csv").read_bytes() == expected
    save_trace(synth.press_trace(cfg, 46, repeat=repeat, flex_noise=2.0, seed=seed),
               tmp_path / "library.csv")
    assert (tmp_path / "library.csv").read_bytes() == expected


def test_scale_drawn_in_blocks_is_the_concatenation_of_its_presses(tmp_path):
    """CLI ``synth scale`` over 12 keys (15,900 rows, so two block edges)
    writes one press segment per key and a quiet tail, concatenated whole."""
    keys = [43, 44, 45, 46, 47, 48, 43, 45, 44, 46, 47, 48]
    (tmp_path / "config.ini").write_text(REAR_CONFIG)
    cfg = load_config(tmp_path / "config.ini")
    run("synth", "scale", "--config", tmp_path / "config.ini",
        "--keys", ",".join(map(str, keys)), "--out", tmp_path)
    anchors = synth.anchors_from_config(cfg)
    targets = [synth.flex_code_for_key(cfg, cfg.layout.keys[k], anchors) for k in keys]
    segments = [press_columns(cfg, target, 0.5, 1, 1300) for target in targets]
    segments.append(press_columns(cfg, targets[-1], 0.5, 0, 300))
    columns = [np.concatenate(column) for column in zip(*segments)]
    expected = reference_bytes(cfg, columns, tmp_path / "reference.csv")
    assert (tmp_path / "scale_trace.csv").read_bytes() == expected
    save_trace(synth.scale_trace(cfg, keys), tmp_path / "library.csv")
    assert (tmp_path / "library.csv").read_bytes() == expected


HEADER = ",".join(TRACE_HEADER)


def load_text(tmp_path, text, newline="\n"):
    path = tmp_path / "trace.csv"
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    return load_trace(path)


def columns_of(trace):
    codes = [trace.samples[name].tolist() for name in trace.samples.dtype.names]
    return codes + [list(trace.labels)]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_loader_accepts_each_line_ending(newline, tmp_path):
    trace = load_text(tmp_path, f"{HEADER}\n0,1,2,3,a\n1,4,5,6,\n", newline)
    assert columns_of(trace) == [[0.0, 1.0], [1, 4], [2, 5], [3, 6], ["a", ""]]


def test_loader_skips_blank_lines_and_counts_them_in_line_numbers(tmp_path):
    trace = load_text(tmp_path, f"{HEADER}\n\n0,1,2,3,\n\n1,1,2,3,\n\n")
    assert len(trace.samples) == 2
    with pytest.raises(TraceFormatError, match="line 5: expected 5 columns"):
        load_text(tmp_path, f"{HEADER}\n0,1,2,3,\n\n1,1,2,3,\n1,1,2,\n")


def test_loader_parses_codes_with_int(tmp_path):
    trace = load_text(tmp_path, f"{HEADER}\n0, 7 ,1_000,+5,\n1,1,2,3,\n")
    assert columns_of(trace)[1:4] == [[7, 1], [1000, 2], [5, 3]]


def test_loader_parses_each_spelling_of_a_code_with_int(tmp_path):
    """Spellings of one code parse alike, and a column mixing them reads
    each row by ``int()``."""
    spellings = ["7", "07", "+7", " 7 ", "0_7", "7", "-0", "0"]
    body = "".join(f"{i},{s},{s},{s},\n" for i, s in enumerate(spellings))
    trace = load_text(tmp_path, f"{HEADER}\n{body}")
    expected = [int(s) for s in spellings]
    assert columns_of(trace)[1:4] == [expected] * 3
    with pytest.raises(TraceFormatError, match="line 4: invalid literal for int"):
        load_text(tmp_path, f"{HEADER}\n0,7,7,7,\n1,07,07,07,\n2,7,0 7,7,\n")


def test_loader_parses_time_with_float(tmp_path):
    trace = load_text(tmp_path, f"{HEADER}\n1e3,1,2,3,\n 1001.0 ,1,2,3,\n")
    assert columns_of(trace)[0] == [1000.0, 1001.0]


@pytest.mark.parametrize("row,message", [
    ('0,"7",2,3,', "line 2: invalid literal for int()"),
    ('0,1,2,3,"tag"', "label '\"tag\"' contains a comma, quote or line break"),
    ('0,1,2,3,"a,b"', "line 2: expected 5 columns"),
], ids=["code", "label", "label-with-comma"])
def test_loader_rejects_quoted_fields(row, message, tmp_path):
    """csv.reader unquotes these; the trace format has no quoting."""
    with pytest.raises(TraceFormatError, match=message):
        load_text(tmp_path, f"{HEADER}\n{row}\n1,1,2,3,\n")


@pytest.mark.parametrize("code", [2**63, -2**63 - 1, 10**400])
def test_loader_rejects_codes_beyond_int64(code, tmp_path):
    with pytest.raises(TraceFormatError, match="line 3: ADC code does not fit int64"):
        load_text(tmp_path, f"{HEADER}\n0,1,2,3,\n1,1,{code},3,\n")
    with pytest.raises(InputError, match="acc_y_adc: an ADC code does not fit int64"):
        SensorTrace.from_columns([0.0, 1.0], [1, 1], [2, code], [3, 3], ["", ""])


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                       "\x85", "\u2028", "\u2029"])
def test_loader_keeps_other_line_separators_inside_labels(separator, tmp_path):
    """str.splitlines breaks lines on these; csv.reader and the loader do not."""
    trace = load_text(tmp_path, f"{HEADER}\n0,1,2,3,a{separator}b\n1,1,2,3,\n")
    assert trace.labels == (f"a{separator}b", "")
    save_trace(trace, tmp_path / "again.csv")
    assert load_trace(tmp_path / "again.csv").labels == trace.labels


def test_loader_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(f"{HEADER}\n0,1,2,3,\xff\n1,1,2,3,\n".encode("latin-1"))
    with pytest.raises(TraceFormatError, match="codec can't decode"):
        load_trace(path)


def reference_load(path) -> SensorTrace:
    """``load_trace`` as first written: universal newlines, blank lines
    skipped, ``float()`` for each time and ``int()`` for each code."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
        if lines[0] != HEADER:
            raise TraceFormatError(f"expected header {HEADER}")
        rows = list(filter(None, lines[1:]))
        if len(rows) < 2:
            raise TraceFormatError("trace needs at least two samples")
        try:
            t, *codes, labels = reference_columns(rows)
        except ValueError:
            for lineno, line in enumerate(lines[1:], start=2):  # the first bad line
                try:
                    if line:
                        reference_columns([line])
                except ValueError as exc:
                    raise TraceFormatError(f"line {lineno}: {exc}") from None
            raise
        return SensorTrace.from_columns(t, *codes, labels)
    except (UnicodeDecodeError, TraceFormatError) as exc:
        raise TraceFormatError(f"{path}: {exc}") from None


def reference_columns(rows: list[str]) -> list:
    if any(row.count(",") != 4 for row in rows):
        raise ValueError("expected 5 columns")
    fields = ",".join(rows).split(",")
    t = [float(s) for s in fields[0::5]]
    codes = []
    for column in (fields[1::5], fields[2::5], fields[3::5]):
        try:
            codes.append(np.array([int(s) for s in column], np.int64))
        except OverflowError:
            raise ValueError("ADC code does not fit int64") from None
    return [t, *codes, fields[4::5]]


def trace_outcome(load, path):
    """The trace ``load`` returns, or the message of its ``TraceFormatError``."""
    try:
        return load(path)
    except TraceFormatError as exc:
        return str(exc)


def assert_loads_as_reference(path) -> bool:
    """``load_trace`` gives the reference's trace bit for bit, or its error
    message; True if the reference accepts the file."""
    expected = trace_outcome(reference_load, path)
    got = trace_outcome(load_trace, path)
    if isinstance(expected, str):
        assert got == expected
        return False
    assert_same_trace(got, expected)
    return True


def assert_same_trace(got, expected):
    """Two traces equal bit for bit, ``got`` read-only."""
    assert not isinstance(got, str), got
    assert got.samples.dtype == SAMPLE_DTYPE and not got.samples.flags.writeable
    assert np.array_equal(got.samples["t"].view(np.int64),
                          expected.samples["t"].view(np.int64))
    for name in SAMPLE_DTYPE.names[1:]:
        assert np.array_equal(got.samples[name], expected.samples[name]), name
    assert got.labels == expected.labels


TIME_STARTS = (st.sampled_from([0.0, -0.0, 7.0, 999_990.0, 1e6, 1e6 + 1, 1e12])
               | st.integers(0, 10**7).map(float))
TIME_STEPS = st.sampled_from([1.0, 2.0, 25.0, 0.5, 0.25, 0.3, 0.1])
LABEL_POOLS = st.sampled_from([[""], ["", "flex_min", " z_rest "],
                               ["", "é", "ピアノ", " ", "\x85", "\x0c"]])


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]),
       TIME_STARTS, TIME_STEPS,
       st.lists(st.integers(1, 16), min_size=3, max_size=3), st.booleans(),
       LABEL_POOLS, st.integers(0, 2**32 - 1))
def test_saved_traces_load_as_reference(tmp_path_factory, n, start, step, digits,
                                        pooled, labels, seed):
    """A trace ``save_trace`` wrote loads bit for bit as the reference reads
    it: whole and fractional times, times from 10**6 up, codes of 1 to 16
    digits, empty, ASCII and non-ASCII labels, around a writer block edge."""
    rng = np.random.default_rng(seed)
    t = start + np.arange(n) * step
    t[0] = start  # keeps -0.0
    codes = []
    for d in digits:  # d-digit codes, a few repeated or many distinct
        low = 10 ** (d - 1) if d > 1 else 0
        pool = rng.integers(low, 10**d, 4 if pooled else n)
        codes.append(rng.choice(pool, n))
    try:
        trace = SensorTrace.from_columns(t, *codes, rng.choice(labels, n).tolist())
    except TraceFormatError:  # times too coarse to space evenly make no trace
        assume(False)
    path = tmp_path_factory.getbasetemp() / "saved.csv"
    save_trace(trace, path)
    assert assert_loads_as_reference(path) == (n > 1)


def test_writer_layout_skips_the_text_parser(tmp_path, monkeypatch):
    """Traces ``save_trace`` writes with whole times, labelled or not and
    from 10**6 ms on, load without ``_parse_trace``; an LF file still goes
    through it."""
    cfg = default_config()
    traces = [synth.calibration_trace(cfg), synth.press_trace(cfg, 46, repeat=2),
              times_trace(np.arange(999_000.0, 1_040_200.0))]
    for i, trace in enumerate(traces):
        save_trace(trace, tmp_path / f"{i}.csv")
    lf_file = tmp_path / "lf.csv"
    lf_file.write_bytes((tmp_path / "1.csv").read_bytes().replace(b"\r\n", b"\n"))

    def fail(data):
        raise AssertionError("parsed as text")

    monkeypatch.setattr(sensors, "_parse_trace", fail)
    for i, trace in enumerate(traces):
        loaded = load_trace(tmp_path / f"{i}.csv")
        assert loaded.samples.tobytes() == trace.samples.tobytes()
        assert loaded.labels == trace.labels
    with pytest.raises(AssertionError, match="parsed as text"):
        load_trace(lf_file)


CRLF_HEADER = HEADER.encode() + b"\r\n"
ROWS_AB = b"0,2032,1229,1474,\r\n1,2033,1229,1474,\r\n"

# name -> (file bytes, whether the reference loads it); the writer's layout
# first, then text outside it that loads or fails as the reference says
TRACE_CORPUS = {
    "writer-layout": (CRLF_HEADER + ROWS_AB, True),
    "labels": (CRLF_HEADER + "0,1,2,3,flex_min\r\n1,1,2,3,é \r\n".encode(), True),
    "15-digit-fields": (CRLF_HEADER + b"999999999999998,999999999999999,0,1,\r\n"
                        b"999999999999999,000000000000001,0,1,\r\n", True),
    "leading-zeros": (CRLF_HEADER + b"00,007,1,2,\r\n01,7,1,2,\r\n", True),
    "fractional-time": (CRLF_HEADER + b"0.5,1,2,3,\r\n1.5,1,2,3,\r\n", True),
    "repr-time": (CRLF_HEADER + b"1000000.0,1,2,3,\r\n1000001.0,1,2,3,\r\n", True),
    "exponent-time": (CRLF_HEADER + b"1e3,1,2,3,\r\n1001,1,2,3,\r\n", True),
    "minus-zero-time": (CRLF_HEADER + b"-0,1,2,3,\r\n1,1,2,3,\r\n", True),
    "minus-zero-code": (CRLF_HEADER + b"0,-0,2,3,\r\n1,1,2,3,\r\n", True),
    "plus-code": (CRLF_HEADER + b"0,+7,2,3,\r\n1,1,2,3,\r\n", True),
    "spaced-code": (CRLF_HEADER + b"0, 7 ,2,3,\r\n1,1,2,3,\r\n", True),
    "underscore-code": (CRLF_HEADER + b"0,1_000,2,3,\r\n1,1,2,3,\r\n", True),
    "exponent-code": (CRLF_HEADER + b"0,1e3,2,3,\r\n1,1,2,3,\r\n", False),
    "arabic-indic-digit": (CRLF_HEADER + "0,٣,2,3,\r\n1,1,2,3,\r\n".encode(), True),
    "16-digit-code": (CRLF_HEADER + b"0,1000000000000000,2,3,\r\n1,1,2,3,\r\n", True),
    "16-digit-time": (CRLF_HEADER + b"1000000000000000,1,2,3,\r\n"
                      b"1000000000000001,1,2,3,\r\n", True),
    "int64-max-code": (CRLF_HEADER + b"0,9223372036854775807,2,3,\r\n1,1,2,3,\r\n", True),
    "code-beyond-int64": (CRLF_HEADER + b"0,9223372036854775808,2,3,\r\n1,1,2,3,\r\n",
                          False),
    "code-beyond-int64-then-bad-time": (
        CRLF_HEADER + b"0,1,9223372036854775808,3,\r\nx,1,2,3,\r\n", False),
    "bad-time-then-code-beyond-int64": (
        CRLF_HEADER + b"x,1,2,3,\r\n1,1,9223372036854775808,3,\r\n", False),
    "short-row-then-bad-code": (CRLF_HEADER + b"0,1,2,\r\n1,1,x,3,\r\n", False),
    "bad-code-then-short-row": (CRLF_HEADER + b"0,1,x,3,\r\n1,1,2,\r\n", False),
    "same-code-beyond-int64-twice": (
        CRLF_HEADER + b"0,1,2,3,\r\n1,-9223372036854775809,2,3,\r\n"
        b"2,-9223372036854775809,2,3,\r\n", False),
    "empty-code": (CRLF_HEADER + b"0,,2,3,\r\n1,1,2,3,\r\n", False),
    "empty-time": (CRLF_HEADER + b",1,2,3,\r\n1,1,2,3,\r\n", False),
    "nan-time": (CRLF_HEADER + b"nan,1,2,3,\r\n1,1,2,3,\r\n", False),
    "three-commas": (CRLF_HEADER + b"0,1,2,3\r\n1,1,2,3,\r\n", False),
    "five-commas": (CRLF_HEADER + b"0,1,2,3,,\r\n1,1,2,3,\r\n", False),
    "quoted-label": (CRLF_HEADER + b'0,1,2,3,"tag"\r\n1,1,2,3,\r\n', False),
    "nul-label": (CRLF_HEADER + b"0,1,2,3,\x00\r\n1,1,2,3,\r\n", True),
    "times-not-increasing": (CRLF_HEADER + b"1,1,2,3,\r\n0,1,2,3,\r\n", False),
    "spacing-off": (CRLF_HEADER + b"0,1,2,3,\r\n1,1,2,3,\r\n3,1,2,3,\r\n", False),
    "lf-rows": (CRLF_HEADER.replace(b"\r", b"") + ROWS_AB.replace(b"\r", b""), True),
    "lf-rows-after-crlf-header": (CRLF_HEADER + ROWS_AB.replace(b"\r", b""), True),
    "bare-cr-rows": (CRLF_HEADER.replace(b"\n", b"") + ROWS_AB.replace(b"\n", b""), True),
    "one-lf-row": (CRLF_HEADER + ROWS_AB[:17] + b"\n" + ROWS_AB[19:], True),
    "cr-before-crlf": (CRLF_HEADER + ROWS_AB[:17] + b"\r" + ROWS_AB[17:], True),
    "blank-line": (CRLF_HEADER + ROWS_AB[:19] + b"\r\n" + ROWS_AB[19:], True),
    "trailing-blank-line": (CRLF_HEADER + ROWS_AB + b"\r\n", True),
    "no-final-crlf": (CRLF_HEADER + ROWS_AB[:-2], True),
    "final-cr-only": (CRLF_HEADER + ROWS_AB[:-1], True),
    "bom": (b"\xef\xbb\xbf" + CRLF_HEADER + ROWS_AB, False),
    "cr-in-label": (CRLF_HEADER + b"0,1,2,3,a\rb\r\n1,1,2,3,\r\n", False),
    "cr-ending-label": (CRLF_HEADER + b"0,1,2,3,a\r\r\n1,1,2,3,\r\n", True),
    "undecodable-label": (CRLF_HEADER + b"0,1,2,3,\xff\r\n1,1,2,3,\r\n", False),
    "overlong-utf8-label": (CRLF_HEADER + b"0,1,2,3,\xc0\xaf\r\n1,1,2,3,\r\n", False),
    "undecodable-code": (CRLF_HEADER + b"0,\xff,2,3,\r\n1,1,2,3,\r\n", False),
    "text-after-last-crlf": (CRLF_HEADER + ROWS_AB + b"2", False),
    "lf-in-place-of-a-comma": (CRLF_HEADER + b"0\n1,2,3,\r\n1,1,2,3,\r\n", False),
    "cr-and-lf-inside-label": (CRLF_HEADER + b"0,1,2,3,a\rb\n1,1,2,3,\r\n", False),
    "lf-row-then-two-crs": (CRLF_HEADER + b"0,1,2,3,\n1,1,2,3,\r\r\n", True),
    "lf-after-fifth-comma": (CRLF_HEADER + b"0,1,2,3,4\r,5\n6,7,8,\r\n", False),
    "one-row": (CRLF_HEADER + ROWS_AB[:19], False),
    "header-only": (CRLF_HEADER, False),
    "empty-file": (b"", False),
    "header-with-space": (CRLF_HEADER.replace(b",label", b", label") + ROWS_AB, False),
}


@pytest.mark.parametrize("name", TRACE_CORPUS)
def test_trace_corpus_loads_as_reference(name, tmp_path):
    """Each file loads, or fails with the same message, as the reference
    loader reads it."""
    data, accepted = TRACE_CORPUS[name]
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    assert assert_loads_as_reference(path) == accepted


def layout_row(t: int, label: str = "") -> bytes:
    return f"{t},2032,{1229 + t % 3},1474,{label}\r\n".encode()


def layout_body(first_label: str, rows: int, t0: int = 10_000) -> bytes:
    """Rows of the writer's layout from ``t0`` ms; the first carries
    ``first_label``, the rest none."""
    return layout_row(t0, first_label) + b"".join(layout_row(t) for t in range(t0 + 1, t0 + rows))


def text_parser_calls(monkeypatch) -> list:
    """The data of each later call of ``_parse_trace``, which still parses."""
    calls = []
    parse = sensors._parse_trace
    monkeypatch.setattr(sensors, "_parse_trace", lambda data: calls.append(data) or parse(data))
    return calls


def test_labelled_file_of_three_chunks_loads_in_the_layout(tmp_path, monkeypatch):
    """Labelled chunks, then chunks whose labels are all empty, then a
    labelled last chunk."""
    labels = ["flex_min", "", "é"] * (2 * sensors.TRACE_CHUNK // 60) + [""] * 12_000
    labels += ["z_rest"] * 8
    n = len(labels)
    trace = SensorTrace.from_columns(np.arange(n, dtype=float), np.arange(n) % 4096,
                                     [1229] * n, [1474] * n, labels)
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    assert path.stat().st_size > 3 * sensors.TRACE_CHUNK
    calls = text_parser_calls(monkeypatch)
    loaded = load_trace(path)
    assert loaded.samples.tobytes() == trace.samples.tobytes()
    assert loaded.labels == trace.labels
    assert assert_loads_as_reference(path)
    assert calls == []


@pytest.mark.parametrize("lf_at", [-2, -1, 0, 1, 10], ids=[
    "lf-inside", "lf-last", "cr-last-lf-next", "comma-last", "in-fields"])
def test_row_cut_at_a_read_boundary_loads_in_the_layout(lf_at, tmp_path, monkeypatch):
    """The LF of one row ``lf_at`` bytes after the last byte of the first read
    of the body: the read ends after the LF, on it, between the CR and the
    LF, before the CR, or inside the row's digit fields."""
    end = sensors.TRACE_CHUNK + lf_at + 1  # where the row ends in the body
    first, size = len(layout_row(10_000)), len(layout_row(10_001))
    pad = (end - first) % size
    body = layout_body("x" * pad, (end - first - pad) // size + 1 + 2_000)
    assert body[end - 2:end] == b"\r\n"
    path = tmp_path / "trace.csv"
    path.write_bytes(CRLF_HEADER + body)
    calls = text_parser_calls(monkeypatch)
    assert assert_loads_as_reference(path)
    assert calls == []


@pytest.mark.parametrize("last, accepted", [
    (b"99,2032,1229,1474,\n", True), (b"99,2032,1229,1474,", True),
    (b"x,2032,1229,1474,\r\n", False), (b"99,2032,1229,1474,\r\r\n", True),
    (b"99,2032,1229,\r\n", False), (b"99,2032,1229,1474,\xff\r\n", False),
], ids=["lf", "no-line-end", "bad-time", "cr-in-label", "four-fields", "undecodable"])
def test_row_outside_the_layout_in_the_last_chunk_goes_to_the_text_parser(
        last, accepted, tmp_path, monkeypatch):
    """Two chunks in the layout, then a last row outside it: the text parser
    reads the whole file once, with its trace or its error."""
    rows = 2 * sensors.TRACE_CHUNK // 20
    path = tmp_path / "trace.csv"
    path.write_bytes(CRLF_HEADER + layout_body("", rows, 0)
                     + last.replace(b"99", str(rows).encode(), 1))
    assert path.stat().st_size > 2 * sensors.TRACE_CHUNK + len(CRLF_HEADER)
    calls = text_parser_calls(monkeypatch)
    assert assert_loads_as_reference(path) == accepted
    assert calls == [path.read_bytes()]


def pipe_path(text: bytes) -> str:
    """A path that reads ``text`` from a pipe, like the shell's ``<(cat file)``."""
    read_end, write_end = os.pipe()
    os.write(write_end, text)  # within the pipe's buffer: no writer thread
    os.close(write_end)
    return f"/dev/fd/{read_end}"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_is_read_once_by_the_text_parser(tmp_path, monkeypatch):
    """A pipe cannot be read twice: the text parser reads all of it once,
    and gives the trace the reference reads from the same text on disk."""
    path = tmp_path / "trace.csv"
    save_trace(synth.calibration_trace(default_config()), path)
    text = path.read_bytes()
    assert len(text) < 60_000  # less than a pipe holds
    calls = text_parser_calls(monkeypatch)
    pipe = pipe_path(text)
    try:
        got = trace_outcome(load_trace, pipe)
    finally:
        os.close(int(pipe.rsplit("/", 1)[1]))
    assert calls == [text]
    expected = reference_load(path)
    assert len(expected.samples) == 1_500 and any(expected.labels)
    assert_same_trace(got, expected)


FIELDS = (st.sampled_from(["0", "1", "1.5", " 7 ", "1_000", "+5", "-3", "1e3",
                           "nan", "inf", "-0", "", '"7"', "tag", "flex_min",
                           "\x0c", "\x00", str(2**63), "9" * 30])
          | st.text(max_size=5))
ROWS = st.lists(st.lists(FIELDS, min_size=3, max_size=7).map(",".join), max_size=8)
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Anchors and a calibration for running the CLI on fuzzed traces."""
    root = tmp_path_factory.mktemp("fuzz")
    run("synth", "calibration", "--out", root)
    run("calibrate", "--trace", root / "calibration_trace.csv",
        "--anchors", root / "anchors.txt", "--out", root)
    return root


def fuzz_load(data: bytes, root):
    """Only a RobothumbError may escape the loader, and a file it rejects
    makes calibrate and simulate exit 2."""
    path = root / "fuzz.csv"
    path.write_bytes(data)
    try:
        load_trace(path)
    except RobothumbError:
        out = str(root / "out")
        assert main(["calibrate", "--trace", str(path), "--anchors",
                     str(root / "anchors.txt"), "--out", out]) == 2
        assert main(["simulate", "--trace", str(path), "--calibration",
                     str(root / "calibration.txt"), "--out", out]) == 2


@settings(deadline=None)
@given(st.sampled_from([b"", HEADER.encode() + b"\n"]), st.binary(max_size=200))
def test_loader_fuzz_bytes(cli_inputs, header, body):
    fuzz_load(header + body, cli_inputs)


@settings(deadline=None)
@given(st.booleans(), ROWS, NEWLINES)
def test_loader_fuzz_rows(cli_inputs, header, rows, newline):
    text = newline.join(([HEADER] if header else []) + rows + [""])
    fuzz_load(text.encode("utf-8"), cli_inputs)
