"""Sensor-trace CSVs: golden digests of the synthesized traces, the trace
writer's text against ``csv.writer``'s, the loader against arbitrary input
and at each point where it parts from ``csv.reader``, and the sample count
that the benchmark tracer reads as ``len(trace.samples)``."""

import csv
import hashlib
import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robothumb import default_config, synth
from robothumb.cli import main
from robothumb.errors import InputError, RobothumbError, TraceFormatError
from robothumb.sensors import (TRACE_HEADER, SensorTrace, load_trace,
                               save_trace)

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
    """``t`` formatted ``%g`` where that reads back as ``t``, else ``repr``."""
    return f"{t:g}" if float(f"{t:g}") == t else repr(float(t))


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
        pool = draw(st.lists(INT64, min_size=1, max_size=4))
        codes.append(draw(st.lists(st.sampled_from(pool) | INT64, min_size=n, max_size=n)))
    return (t, *codes, draw(st.lists(LABELS, min_size=n, max_size=n)), period)


@settings(deadline=None)
@given(trace_columns())
def test_save_trace_matches_csv_writer(tmp_path_factory, columns):
    """Labels that csv.writer leaves unquoted are written as it writes them;
    a trace with a label it would quote cannot be built."""
    *rows, period = columns
    if not all(map(unquoted, rows[4])):
        with pytest.raises(TraceFormatError, match="comma, quote or line break"):
            SensorTrace.from_columns(*rows, period)
        return
    path = tmp_path_factory.getbasetemp() / "property.csv"
    save_trace(SensorTrace.from_columns(*rows, period), path)
    assert path.read_bytes().decode("utf-8") == csv_writer_text(*rows)


def assert_same_text(text, expected):
    """``text == expected``, a mismatch reported at its first differing line
    rather than as a diff of the whole file."""
    lines, expected_lines = text.splitlines(True), expected.splitlines(True)
    for lineno, (line, expected_line) in enumerate(zip(lines, expected_lines), 1):
        assert line == expected_line, f"line {lineno}"
    assert len(lines) == len(expected_lines)


@pytest.mark.parametrize("n", [65_535, 65_536, 65_537])
def test_save_trace_matches_csv_writer_at_block_edges(n, tmp_path):
    """Repeated codes and labels across the edges of a 65,536-row block."""
    rng = np.random.default_rng(n)
    rows = [[i * 1.0 for i in range(n)], rng.integers(0, 16, n).tolist(),
            rng.choice([-2**63, 2**63 - 1], n).tolist(), rng.integers(1, 3, n).tolist(),
            rng.choice(["", "flex_min", " z_rest "], n).tolist()]
    save_trace(SensorTrace.from_columns(*rows, 1.0), tmp_path / "trace.csv")
    text = (tmp_path / "trace.csv").read_bytes().decode("utf-8")
    assert_same_text(text, csv_writer_text(*rows))


def times_trace(t) -> SensorTrace:
    n = len(t)
    return SensorTrace.from_columns(t, [0] * n, [0] * n, [0] * n, [""] * n, t[1] - t[0])


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
    """``%g`` keeps 6 significant digits: 1,000,001 ms needs ``repr``."""
    t = [999_999.0, 1_000_000.0, 1_000_001.0]
    save_trace(times_trace(t), tmp_path / "trace.csv")
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["999999", "1e+06", "1000001.0"]
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
    assert trace.sample_period == 1.0


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
        SensorTrace.from_columns([0.0, 1.0], [1, 1], [2, code], [3, 3], ["", ""], 1.0)


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
