"""Memory guards: reading a trace and running it hold about their own
columns, and binning a direction file about its occupancy array and a few
chunks, as ``tracemalloc`` counts allocations."""

import functools
import tracemalloc

import pytest

from robothumb import engine, synth
from robothumb.analysis import UNIT_ROW_BYTES, file_solid_angle, save_directions
from robothumb.config import default_config
from robothumb.control import calibrate_from_trace
from robothumb.sensors import BLOCK_ROWS, load_trace, save_trace

# tracemalloc peak over the columns' own bytes: the reader holds the samples,
# the labels and one chunk's parse; the engine its step log and one block's
# axis buffers, control columns, schedules and fingertip columns
LOAD_PEAK_OVER_SAMPLES = 2.0
RUN_PEAK_OVER_STEPS = 1.5
# tracemalloc peak of binning a direction file, in chunks read, over its
# one-byte-a-cell occupancy array: the chunk buffer, one chunk's parse and
# the binning of its block, whose temporaries are gone before the next parse
BIN_PEAK_OVER_CHUNKS = 8


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def press_run(tmp_path_factory):
    """``(trace, load peak, log, run peak)`` of a press trace read back from
    its file, by number of presses; each peak is a ``tracemalloc`` one."""
    cfg = default_config()
    calib = calibrate_from_trace(synth.calibration_trace(cfg), synth.anchors_from_config(cfg))
    directory = tmp_path_factory.mktemp("press")

    def press_run(repeat):
        path = directory / f"press_{repeat}.csv"
        save_trace(synth.press_trace(cfg, 46, repeat=repeat), path)
        trace, load_peak = traced_peak(load_trace, path)
        return (trace, load_peak, *traced_peak(engine.run, trace, calib, cfg))
    return functools.cache(press_run)


def test_load_trace_and_engine_run_hold_about_their_own_columns(press_run):
    trace, load_peak, log, run_peak = press_run(486)
    assert len(trace.samples) == 195_600
    assert load_peak < LOAD_PEAK_OVER_SAMPLES * trace.samples.nbytes
    assert run_peak < RUN_PEAK_OVER_STEPS * log.steps.nbytes


def test_engine_run_holds_one_block_beyond_its_step_log(press_run):
    """Past its step log, a run holds one block's columns and its events: from
    50 to 486 presses that grows by less than one block of step rows. The
    trace is read before tracing starts, so its bytes are not in the peak."""
    (*_, short, short_peak), (*_, long, long_peak) = press_run(50), press_run(486)
    growth = (long_peak - long.steps.nbytes) - (short_peak - short.steps.nbytes)
    assert growth < BLOCK_ROWS * engine.STEP_DTYPE.itemsize


@pytest.fixture(scope="module")
def direction_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("dirs") / "band_directions.csv"
    save_directions(synth.band_sweep_directions(12 * BLOCK_ROWS, seed=5), path)
    return path


@pytest.mark.parametrize("n_bins", [10**5, 10**7])
def test_file_solid_angle_holds_its_occupancy_and_a_few_chunks(direction_file, n_bins):
    (_, count), peak = traced_peak(file_solid_angle, direction_file, n_bins)
    assert count == 12 * BLOCK_ROWS
    assert peak - n_bins < BIN_PEAK_OVER_CHUNKS * BLOCK_ROWS * UNIT_ROW_BYTES
