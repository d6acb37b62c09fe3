"""Direction-set CSVs: golden digests of the sweep fixtures and their
workspace report, and the writer's text against a row-by-row reference
formatter."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from robothumb.analysis import DIRECTION_BLOCK_ROWS, save_directions
from robothumb.cli import main

SWEEP_SAMPLES = 150_000  # several write blocks
SWEEP_GOLDEN = {
    "band_directions.csv":
        "b82aa4e705992f6c3ce821d561eeed738fe75dd514363bb898940f34b2854bdb",
    "cap_directions.csv":
        "4851bb08d781177cd60d292c3da1f38d4842d4996d3c4700d06949aaa61dd923",
    "workspace_report.txt":
        "5587be2f964674e659abbbe7c16cf04117b5fdaa54eb3e4a742c109bb082b63f",
}


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
