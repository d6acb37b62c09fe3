"""Direction sets: the sweep generators against the formula they were first
written with, golden digests of the sweep fixtures and their workspace
report, the writer's text against a row-by-row reference formatter, and the
reader against ``np.loadtxt``."""

import hashlib
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_trace_csv import assert_same_text

from robothumb import synth
from robothumb.analysis import DIRECTION_BLOCK_ROWS, load_directions, save_directions
from robothumb.cli import main
from robothumb.errors import InputError

SWEEP_SAMPLES = 150_000  # several write blocks
SWEEP_GOLDEN = {
    "band_directions.csv":
        "b82aa4e705992f6c3ce821d561eeed738fe75dd514363bb898940f34b2854bdb",
    "cap_directions.csv":
        "4851bb08d781177cd60d292c3da1f38d4842d4996d3c4700d06949aaa61dd923",
    "workspace_report.txt":
        "5587be2f964674e659abbbe7c16cf04117b5fdaa54eb3e4a742c109bb082b63f",
}


def reference_directions(samples, z_range, phi_range, seed):
    """The sweep generators' first formula: the same draws, five columns stacked."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(*z_range, samples)
    phi = rng.uniform(*phi_range, samples)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


def band_reference(samples, azimuth_span=360.0, elev_min=-60.0, elev_max=60.0,
                   seed=0):
    half = math.radians(azimuth_span) / 2.0
    return reference_directions(samples, (math.sin(math.radians(elev_min)),
                                          math.sin(math.radians(elev_max))),
                                (-half, half), seed)


def cap_reference(samples, half_angle=54.9, seed=0):
    return reference_directions(samples, (math.cos(math.radians(half_angle)), 1.0),
                                (-math.pi, math.pi), seed)


def assert_same_bits(dirs, expected):
    assert dirs.shape == expected.shape and dirs.dtype == expected.dtype
    assert np.array_equal(np.ascontiguousarray(dirs).view(np.int64),
                          expected.view(np.int64))


@pytest.mark.parametrize("samples", [1, 2, DIRECTION_BLOCK_ROWS + 1, 600_000])
def test_sweep_generators_match_reference_formula(samples):
    assert_same_bits(synth.band_sweep_directions(samples, seed=samples),
                     band_reference(samples, seed=samples))
    assert_same_bits(synth.cap_directions(samples, seed=samples + 1),
                     cap_reference(samples, seed=samples + 1))


@pytest.mark.parametrize("limits", [(360.0, 30.0, 30.0), (360.0, -90.0, 90.0),
                                    (360.0, 90.0, 90.0), (360.0, -90.0, -90.0),
                                    (0.0, -60.0, 60.0), (90.0, -90.0, 0.0)])
def test_band_generator_matches_reference_at_limits(limits):
    assert_same_bits(synth.band_sweep_directions(5_000, *limits, seed=7),
                     band_reference(5_000, *limits, seed=7))


@pytest.mark.parametrize("half_angle", [0.0, 1e-9, 90.0, 179.9, 180.0])
def test_cap_generator_matches_reference_at_limits(half_angle):
    assert_same_bits(synth.cap_directions(5_000, half_angle, seed=8),
                     cap_reference(5_000, half_angle, seed=8))


def reference_text(dirs) -> str:
    """The row-at-a-time formatter the direction CSVs were first written with."""
    rows = "\n".join(f"{x:.12f},{y:.12f},{z:.12f}" for x, y, z in dirs)
    return "x,y,z\n" + rows + "\n"


def near_tie(k: int, ulps: int) -> float:
    """A value ``ulps`` steps from the 12-decimal rounding tie (k + 0.5) e-12."""
    x = (k + 0.5) * 1e-12
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
           0.5e-12, -0.5e-12, 1.5e-12, 2.5e-12, 0.9999999999995, -0.9999999999995,
           1.0, -1.0, 1e300, -1e300, math.inf, -math.inf, math.nan]

values = (st.floats(allow_nan=True, allow_infinity=True)
          | st.floats(min_value=-1.0, max_value=1.0)
          | st.floats(min_value=-2.2250738585072014e-308,
                      max_value=2.2250738585072014e-308)
          | st.builds(near_tie, st.integers(-10**12, 10**12), st.integers(-2, 2))
          | st.sampled_from(SPECIAL))


def written(dirs, path) -> str:
    save_directions(dirs, path)
    return path.read_bytes().decode()


def test_sweep_and_workspace_outputs_match_golden_digests(tmp_path):
    for shape, seed in (("band", 5), ("cap", 6)):
        assert main(["synth", "sweep", "--shape", shape, "--seed", str(seed),
                     "--samples", str(SWEEP_SAMPLES), "--out", str(tmp_path)]) == 0
    assert main(["analyze", "workspace", "--dirs", str(tmp_path / "band_directions.csv"),
                 "--ref-dirs", str(tmp_path / "cap_directions.csv"),
                 "--bins", "100000", "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in SWEEP_GOLDEN}
    assert digests == SWEEP_GOLDEN


@settings(deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)),
              elements=values))
def test_save_directions_matches_row_formatter(tmp_path_factory, dirs):
    path = tmp_path_factory.getbasetemp() / "property.csv"
    assert written(dirs, path) == reference_text(dirs)


@pytest.mark.parametrize("rows", [DIRECTION_BLOCK_ROWS - 1, DIRECTION_BLOCK_ROWS,
                                  DIRECTION_BLOCK_ROWS + 1])
def test_save_directions_matches_row_formatter_at_block_edges(rows, tmp_path):
    rng = np.random.default_rng(rows)
    dirs = rng.uniform(-1.0, 1.0, (rows, 3))
    dirs.ravel()[:len(SPECIAL)] = SPECIAL
    dirs[-1] = (-0.0, 5e-324, 0.5e-12)
    assert written(dirs, tmp_path / "d.csv") == reference_text(dirs)


@pytest.mark.parametrize("shape", [(4, 2), (3,)])
def test_save_directions_rejects_arrays_not_shaped_n_by_3(shape, tmp_path):
    with pytest.raises(InputError, match=re.escape(str(shape))):
        save_directions(np.zeros(shape), tmp_path / "d.csv")
    assert not (tmp_path / "d.csv").exists()


def test_save_directions_matches_row_formatter_at_ties(tmp_path):
    """odd/2**13 times 10**12 is exactly k + 0.5, a tie that ``%.12f``
    rounds to even; odd/2**20 times 10**12 is exact, with a fraction in
    steps of 1/256; a value a few ulps from a tie can round its product
    across the tie."""
    rng = np.random.default_rng(20)
    ties = np.arange(1, 2**13, 2) / 2.0**13
    exact = rng.choice(np.arange(1, 2**20, 2), 4_096) / 2.0**20
    near = [near_tie(k, ulps) for k in rng.integers(0, 10**12, 1_000).tolist()
            for ulps in range(-2, 3)]
    values = np.concatenate((ties, -ties, exact, -exact, near, np.negative(near)))
    dirs = values[:len(values) // 3 * 3].reshape(-1, 3)
    assert written(dirs, tmp_path / "d.csv") == reference_text(dirs)


@pytest.mark.parametrize("bad", [1.5, math.nan, -math.inf])
def test_save_directions_matches_row_formatter_past_unit_values(bad, tmp_path):
    """A value beyond [-1, 1] in one row, at a block edge mid-file."""
    rng = np.random.default_rng(21)
    dirs = rng.uniform(-1.0, 1.0, (3 * DIRECTION_BLOCK_ROWS + 5, 3))
    dirs[DIRECTION_BLOCK_ROWS, 1] = bad
    dirs[2 * DIRECTION_BLOCK_ROWS - 1, 2] = -bad
    assert_same_text(written(dirs, tmp_path / "d.csv"), reference_text(dirs))


def loadtxt(path):
    """The direction rows as ``np.loadtxt`` reads them, the reader's reference."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, encoding="utf-8")


# -0.0 and -4e-13 print as -0.000000000000; the last six are not unit values
LOAD_SPECIAL = [-0.0, 1.0, -1.0, 4e-13, -4e-13, 1.5, 9.75, 12.5,
                math.nan, math.inf, -math.inf]


@settings(deadline=None, max_examples=60)
@given(rows=st.sampled_from([1, 8_191, 8_192, 8_193, 24_581]) | st.integers(1, 40),
       picks=st.lists(st.tuples(st.integers(0, 10**6),
                                values | st.sampled_from(LOAD_SPECIAL)), max_size=12),
       signs=st.sampled_from(["mixed", "negative", "positive"]),
       seed=st.integers(0, 2**32 - 1))
def test_load_directions_matches_loadtxt(tmp_path_factory, rows, picks, signs, seed):
    """Written by ``save_directions``, read back bit for bit as ``np.loadtxt``
    reads it. A file of negative values has 48-byte rows, so reads of any
    fixed byte count end mid-row."""
    rng = np.random.default_rng(seed)
    dirs = rng.uniform(-1.0, 1.0, (rows, 3))
    if signs != "mixed":
        np.abs(dirs, out=dirs)
        if signs == "negative":
            np.negative(dirs, out=dirs)
    for spot, value in picks:
        dirs.flat[spot % dirs.size] = value
    path = tmp_path_factory.getbasetemp() / "load.csv"
    save_directions(dirs, path)
    assert_same_bits(load_directions(path), loadtxt(path))


@pytest.mark.parametrize("rows", [1, DIRECTION_BLOCK_ROWS - 1, DIRECTION_BLOCK_ROWS,
                                  DIRECTION_BLOCK_ROWS + 1, 24_581])
@pytest.mark.parametrize("signs", ["mixed", "negative"])
def test_writer_unit_files_read_without_loadtxt(rows, signs, tmp_path, monkeypatch):
    """Every file of unit values that ``save_directions`` writes is parsed in
    its own layout, across reads that end mid-row; ``np.loadtxt`` is never
    asked."""
    rng = np.random.default_rng(rows)
    dirs = rng.uniform(-1.0, 1.0, (rows, 3))
    if signs == "negative":
        dirs = -np.abs(dirs)
    special = [-0.0, 0.0, 1.0, -1.0, 4e-13, -4e-13, 0.5e-12][:dirs.size]
    dirs.ravel()[:len(special)] = special
    path = tmp_path / "d.csv"
    save_directions(dirs, path)
    expected = loadtxt(path)

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", refuse)
    assert_same_bits(load_directions(path), expected)


def reference_load(path):
    """``load_directions`` as first written: a header check, then one ``np.loadtxt``."""
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().rstrip("\n")
        if header != "x,y,z":
            raise InputError(f"{path}: first line must be the header x,y,z")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            data = loadtxt(path)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    if data.size == 0:
        raise InputError(f"{path}: direction set is empty")
    if data.shape[1] != 3:
        raise InputError(f"{path}: expected 3 columns x,y,z")
    return data


def outcome(load, path):
    """The array ``load`` returns, or the message of the ``InputError`` it raises."""
    try:
        return load(path)
    except InputError as exc:
        return str(exc)


ROW = b"0.500000000000,-0.250000000000,0.125000000000\n"
HEADER = b"x,y,z\n"
LATE = 2 * DIRECTION_BLOCK_ROWS  # rows before a row that leaves the writer's layout


@pytest.mark.parametrize("text,accepted", [
    (b"x,y,z\r\n" + ROW.replace(b"\n", b"\r\n") * 3, True),
    (HEADER + ROW * 2 + ROW.replace(b"\n", b"\r\n"), True),
    (HEADER + ROW * 2 + ROW[:-1], True),
    (HEADER + ROW * 2 + b"\n", True),
    (HEADER + ROW + b"+0.5,0.25,0.125\n" + ROW, True),
    (HEADER + ROW + b"1e-1,0,0\n" + ROW, True),
    (HEADER + ROW + b"0.5,0.25,0.125\n" + ROW, True),
    (HEADER + ROW + b"0.500000000000, 0.250000000000, 0.125000000000\n" + ROW, True),
    (HEADER + ROW + b"# a comment\n" + ROW, True),
    (HEADER + ROW + b"10.000000000000,0.000000000000,0.000000000000\n" + ROW, True),
    (HEADER + ROW + b"10000000000000,0.000000000000,0.000000000000\n" + ROW, True),
    (HEADER + ROW + b"+.500000000000,0.000000000000,0.000000000000\n" + ROW, True),
    (HEADER + ROW + b"0.50000000000 ,0.000000000000,0.000000000000\n" + ROW, True),
    (HEADER + ROW * LATE + b"0.5,0.5,0.5\n" + ROW * 3, True),
    (HEADER + ROW * LATE + b"nan,0.000000000000,0.000000000000\n" + ROW, True),
    (b"\xef\xbb\xbfx,y,z\n" + ROW, False),
    (HEADER + ROW + b"--0.500000000000,0.000000000000,0.000000000000\n", False),
    (HEADER + ROW + b"0.5000000000-00,0.000000000000,0.000000000000\n", False),
    (HEADER + ROW + b"0.500000000000,0.000000000000\n", False),
    (HEADER + ROW + b"0.500000000000,0.000000000000,0.000000000000,0.0\n", False),
    (HEADER + ROW + b"0.500000000000,0.000000000000\n"
     b"0.500000000000,0.000000000000,0.000000000000,0.000000000000\n", False),
    (HEADER + ROW + b"0.500000000000;0.000000000000;0.000000000000\n", False),
    (HEADER + ROW * LATE + b"abc,0.000000000000,0.000000000000\n" + ROW, False),
    (HEADER + ROW * LATE + b"0.500000000000,0.000000000000\n" + ROW, False),
    (HEADER + ROW * LATE + b"\xff.500000000000,0.000000000000,0.000000000000\n", False),
    (HEADER, False),
], ids=["crlf", "crlf-rows", "no-final-lf", "trailing-blank-line", "plus", "exponent",
        "short", "spaces", "comment", "two-digit-whole", "fourteen-digits", "plus-point",
        "trailing-space", "late-short",
        "late-nan", "bom", "double-minus", "inner-minus", "two-columns", "four-columns",
        "two-then-four", "semicolons",
        "late-non-numeric", "late-ragged", "late-undecodable", "header-only"])
def test_hand_written_files_read_as_loadtxt_reads_them(text, accepted, tmp_path):
    """Text the writer does not write: the same array, or the same error, as
    ``np.loadtxt`` behind the header check."""
    path = tmp_path / "dirs.csv"
    path.write_bytes(text)
    expected = outcome(reference_load, path)
    got = outcome(load_directions, path)
    assert isinstance(expected, np.ndarray) == accepted
    if accepted:
        assert_same_bits(got, expected)
    else:
        assert got == expected


def pipe_path(text: bytes) -> str:
    """A path that reads ``text`` from a pipe, like the shell's ``<(cat file)``."""
    read_end, write_end = os.pipe()
    os.write(write_end, text)  # within the pipe's buffer: no writer thread
    os.close(write_end)
    return f"/dev/fd/{read_end}"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_reads_as_loadtxt_reads_it(tmp_path):
    """A pipe has no size and cannot be read twice: every row after the
    header is read from it once, with the values ``np.loadtxt`` gives for the
    same text in a regular file."""
    for rows in (1_000, 20):  # more and less than one buffered read
        text = HEADER + ROW * rows  # less than a pipe holds
        (tmp_path / "dirs.csv").write_bytes(text)
        path = pipe_path(text)
        try:
            got = load_directions(path)
        finally:
            os.close(int(path.rsplit("/", 1)[1]))
        assert got.shape == (rows, 3)
        assert_same_bits(got, reference_load(tmp_path / "dirs.csv"))
