"""Direction sets: the sweep generators against the formula they were first
written with, golden digests of the sweep fixtures and their workspace
report, the writer's text against a row-by-row reference formatter, and the
reader against ``np.loadtxt``."""

import hashlib
import math
import os
import pathlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_trace_csv import assert_same_text, pipe_path

from robothumb import synth
from robothumb.analysis import (UNIT_ROW_BYTES, file_solid_angle, load_directions,
                                save_directions, solid_angle)
from robothumb.cli import main
from robothumb.errors import InputError
from robothumb.sensors import BLOCK_ROWS

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


@pytest.mark.parametrize("samples", [1, 2, BLOCK_ROWS + 1, 600_000])
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


@pytest.mark.parametrize("rows", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
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
    rounds to even, and so is 10 + odd/2**13 times 10**12; odd/2**20 times 10**12 is exact, with a fraction in
    steps of 1/256; a value a few ulps from a tie can round its product
    across the tie."""
    rng = np.random.default_rng(20)
    ties = np.arange(1, 2**13, 2) / 2.0**13
    exact = rng.choice(np.arange(1, 2**20, 2), 4_096) / 2.0**20
    near = [near_tie(k, ulps) for k in rng.integers(0, 10**12, 1_000).tolist()
            for ulps in range(-2, 3)]
    values = np.concatenate((ties, -ties, 10.0 + ties, -10.0 - ties, exact, -exact,
                             near, np.negative(near)))
    dirs = values[:len(values) // 3 * 3].reshape(-1, 3)
    assert written(dirs, tmp_path / "d.csv") == reference_text(dirs)


def product_at(target: float) -> float | None:
    """A float whose product with 10**12 rounds to ``target``, if one does."""
    x = target / 1e12
    for _ in range(4):
        if x * 1e12 == target:
            return x
        x = math.nextafter(x, math.inf if x * 1e12 < target else 0.0)
    return None


def test_save_directions_matches_row_formatter_at_the_tie_window_edges(tmp_path):
    """The writer asks ``%`` for a value whose product with 10**12 lies within
    one ulp of its column's largest product from a rounding tie. With 1.0 at
    the top of each column, that ulp is 2**-13: products one ulp from a tie
    lie just inside the window, products two ulps from it just outside."""
    ulp = np.spacing(1e12)
    assert ulp == 2.0**-13
    rng = np.random.default_rng(22)
    inside, outside = [], []
    for k in rng.integers(2**39, 10**12 - 1, 2_000).tolist():
        for steps, kept in ((-1, inside), (1, inside), (-2, outside), (2, outside)):
            x = product_at(k + 0.5 + steps * ulp)
            if x is not None:
                kept.append(x)
    assert min(len(inside), len(outside)) > 1_000
    values = np.concatenate((inside, outside, np.negative(inside), np.negative(outside)))
    dirs = np.vstack(([1.0, 1.0, 1.0], values[:len(values) // 3 * 3].reshape(-1, 3)))
    assert len(dirs) <= BLOCK_ROWS
    assert written(dirs, tmp_path / "d.csv") == reference_text(dirs)


# the largest value the fixed-point kernel spells to 12 decimals is just below
# 2**44 / 10**12, about 17.59
KERNEL_EDGE = 2.0**44 / 1e12


@pytest.mark.parametrize("bad", [
    1.5, 9.75, -12.5, 10.0 + 1 / 2.0**13, -10.0 - 8_191 / 2.0**13,
    math.nextafter(KERNEL_EDGE, 0.0), KERNEL_EDGE, math.nextafter(KERNEL_EDGE, math.inf),
    -math.nextafter(KERNEL_EDGE, 0.0), -math.nextafter(KERNEL_EDGE, math.inf),
    1e300, math.nan, -math.inf])
def test_save_directions_matches_row_formatter_past_unit_values(bad, tmp_path):
    """A value beyond [-1, 1] in one row and its negation in another, each at a
    block edge mid-file: whole parts of one and two digits, rounding ties past
    10, and values either side of the kernel's range."""
    rng = np.random.default_rng(21)
    dirs = rng.uniform(-1.0, 1.0, (3 * BLOCK_ROWS + 5, 3))
    dirs[BLOCK_ROWS, 1] = bad
    dirs[2 * BLOCK_ROWS - 1, 2] = -bad
    assert_same_text(written(dirs, tmp_path / "d.csv"), reference_text(dirs))


def loadtxt(path):
    """The direction rows as ``np.loadtxt`` reads them, the reader's reference."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, encoding="utf-8")


# -0.0 and -4e-13 print as -0.000000000000; the last six are not unit values
LOAD_SPECIAL = [-0.0, 1.0, -1.0, 4e-13, -4e-13, 1.5, 9.75, 12.5,
                math.nan, math.inf, -math.inf]


@settings(deadline=None, max_examples=60)
@given(rows=st.sampled_from([1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                             3 * BLOCK_ROWS + 5]) | st.integers(1, 40),
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


@pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                  3 * BLOCK_ROWS + 5])
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
LATE = 2 * BLOCK_ROWS  # rows before a row that leaves the writer's layout


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
    (HEADER + ROW * (BLOCK_ROWS * UNIT_ROW_BYTES // len(ROW) - 1)
     + b"0.5" + b"0" * 100 + b",0,0\n" + ROW * 3, True),
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
        "late-nan", "long-row-across-a-chunk-edge",
        "bom", "double-minus", "inner-minus", "two-columns", "four-columns",
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


def traced_peak(argv) -> int:
    """The ``tracemalloc`` peak, in bytes, of one CLI command."""
    tracemalloc.start()
    try:
        assert main([str(a) for a in argv]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_and_workspace_never_hold_a_whole_direction_set(tmp_path, capsys):
    """Both steps work one block at a time: neither one's peak reaches the
    size of the (n, 3) float64 array of the set it writes or reads."""
    samples = 400_000
    whole = samples * 3 * 8
    assert traced_peak(["synth", "sweep", "--samples", samples, "--out", tmp_path]) < whole
    assert traced_peak(["analyze", "workspace", "--dirs", tmp_path / "band_directions.csv",
                        "--out", tmp_path]) < whole
    assert f"over {samples} directions" in capsys.readouterr().out


def workspace(path, bins=1_000):
    """The ``analyze workspace`` report of one direction file, as text."""
    assert main(["analyze", "workspace", "--dirs", str(path), "--bins", str(bins),
                 "--out", str(os.path.dirname(path))]) == 0
    return (pathlib.Path(path).parent / "workspace_report.txt").read_text()


def unit_file(path, rows, last) -> np.ndarray:
    """Write ``rows`` unit-layout rows and then the row ``last``; return the
    rows as ``np.loadtxt`` reads the file."""
    dirs = synth.band_sweep_directions(rows, seed=rows)
    save_directions(dirs, path)
    with open(path, "ab") as f:
        f.write(last)
    return loadtxt(path)


def test_late_row_outside_the_unit_layout_is_binned_once(tmp_path):
    """After two whole blocks were binned from the unit layout, the set is
    binned again as ``np.loadtxt`` reads it, each row counted once."""
    path = tmp_path / "dirs.csv"
    expected = unit_file(path, 2 * BLOCK_ROWS + 2, b"1,0,0\n")
    assert len(expected) == 2 * BLOCK_ROWS + 3
    assert file_solid_angle(path, 1_000) == (solid_angle(expected, 1_000), len(expected))
    assert file_solid_angle(path, 1_000) == (solid_angle(load_directions(path), 1_000),
                                             2 * BLOCK_ROWS + 3)
    assert f"n_directions = {2 * BLOCK_ROWS + 3}\n" in workspace(path)


def test_late_nan_row_fails_with_the_file_named(tmp_path, capsys):
    path = tmp_path / "dirs.csv"
    unit_file(path, 2 * BLOCK_ROWS + 2, b"nan,0,0\n")
    with pytest.raises(InputError, match=re.escape(
            f"{path}: direction norms deviate from 1 by up to nan")):
        file_solid_angle(path, 1_000)
    assert main(["analyze", "workspace", "--dirs", str(path), "--out", str(tmp_path)]) == 2
    assert "dirs.csv: direction norms deviate from 1 by up to nan" in capsys.readouterr().err
    assert not (tmp_path / "workspace_report.txt").exists()


UNIT_ROW = b"0.600000000000,-0.800000000000,0.000000000000\n"


@pytest.mark.parametrize("long_row", [
    b"1." + b"0" * 100 + b",0,0\n",
    b"1." + b"0" * (BLOCK_ROWS * UNIT_ROW_BYTES) + b",0,0\n",
    b"1." + b"0" * 100 + b",0,x\n",
    b"1." + b"0" * (BLOCK_ROWS * UNIT_ROW_BYTES) + b",0,x\n",
], ids=["across-a-chunk-edge", "longer-than-the-buffer",
        "bad-across-a-chunk-edge", "bad-longer-than-the-buffer"])
def test_row_longer_than_the_unit_layout_reads_and_bins_as_loadtxt(long_row, tmp_path,
                                                                    capsys):
    """A row longer than any row of the unit layout, starting in the first
    chunk and ending past it: the floats or the error of ``np.loadtxt``, from
    the reader and from ``analyze workspace``."""
    (tmp_path / "long").mkdir()
    path = tmp_path / "long" / "dirs.csv"
    rows = BLOCK_ROWS * UNIT_ROW_BYTES // len(UNIT_ROW) - 1
    path.write_bytes(HEADER + UNIT_ROW * rows + long_row + UNIT_ROW * 3)
    assert len(HEADER + UNIT_ROW * rows) < BLOCK_ROWS * UNIT_ROW_BYTES < path.stat().st_size
    expected = outcome(reference_load, path)
    got = outcome(load_directions, path)
    if isinstance(expected, str):
        assert got == expected
        assert main(["analyze", "workspace", "--dirs", str(path), "--out",
                     str(tmp_path / "long")]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"
        return
    assert_same_bits(got, expected)
    assert file_solid_angle(path, 1_000) == (solid_angle(expected, 1_000), rows + 4)
    (tmp_path / "unit").mkdir()
    save_directions(expected, tmp_path / "unit" / "dirs.csv")
    assert workspace(path) == workspace(tmp_path / "unit" / "dirs.csv")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_is_binned_as_loadtxt_reads_it(tmp_path):
    """``--dirs <(cat file)``: a pipe is never read in the unit layout, whose
    reader could not give back what it read."""
    text = HEADER + UNIT_ROW * 1_000
    (tmp_path / "file").mkdir()
    (tmp_path / "file" / "dirs.csv").write_bytes(text)
    expected = reference_load(tmp_path / "file" / "dirs.csv")
    path = pipe_path(text)
    try:
        got = file_solid_angle(path, 1_000)
    finally:
        os.close(int(path.rsplit("/", 1)[1]))
    assert got == (solid_angle(expected, 1_000), 1_000)
    path = pipe_path(text)
    (tmp_path / "pipe").mkdir()
    try:
        assert main(["analyze", "workspace", "--dirs", path, "--bins", "1000",
                     "--out", str(tmp_path / "pipe")]) == 0
    finally:
        os.close(int(path.rsplit("/", 1)[1]))
    assert ((tmp_path / "pipe" / "workspace_report.txt").read_text()
            == workspace(tmp_path / "file" / "dirs.csv"))


@pytest.mark.parametrize("text", [b"x,y,z\nabc,0,0\n", b"1,0,0\n", b"x,y,z\n",
                                  b"x,y,z\nnan,0,0\n"],
                         ids=["non-numeric", "no-header", "header-only", "nan"])
def test_bins_out_of_range_are_reported_before_the_file_is_read(text, tmp_path, capsys):
    """``--bins`` is checked first: a malformed file given with 7 bins
    reports the bins, without the file's name."""
    (tmp_path / "dirs.csv").write_bytes(text)
    assert main(["analyze", "workspace", "--dirs", str(tmp_path / "dirs.csv"),
                 "--bins", "7", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: n_bins must be in [100, 100000000]\n"
