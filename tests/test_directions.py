"""Direction sets: the sweep generators against the formula they were first
written with, golden digests of the sweep fixtures and their workspace
report, and the writer's text against a row-by-row reference formatter."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_trace_csv import assert_same_text

from robothumb import synth
from robothumb.analysis import DIRECTION_BLOCK_ROWS, save_directions
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
