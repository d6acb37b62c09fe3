"""Memory guards: reading a trace and running it hold about their own
columns, drawing a trace holds one block of it, and binning a direction
file holds about its occupancy array and a few chunks, as ``tracemalloc``
counts allocations."""

import functools
import tracemalloc

import pytest

from robothumb import engine, synth
from robothumb.analysis import UNIT_ROW_BYTES, file_solid_angle, save_directions
from robothumb.cli import main
from robothumb.config import default_config
from robothumb.control import calibrate_from_trace, save_calibration
from robothumb.sensors import BLOCK_ROWS, SAMPLE_DTYPE, load_trace, save_trace

# tracemalloc peak over the columns' own bytes: the reader holds the samples,
# the labels and one chunk's parse; the engine its step log and one block's
# axis buffers, control columns, schedules and fingertip columns
LOAD_PEAK_OVER_SAMPLES = 2.0
RUN_PEAK_OVER_STEPS = 1.5
# what a run holds past its step log at 100 presses: one block's columns and
# the run's events; ``simulate`` holds no more than that beside the trace
# it reads, and its writers hold less
RUN_PEAK_OVER_STEP_LOG = 1.1 * 2**20
# tracemalloc peak of binning a direction file, in chunks read, over its
# one-byte-a-cell occupancy array: the chunk buffer, the parse's reused
# offsets, and one chunk's sign mask and block, or that block's binning; the
# block before is gone, and no copy of the chunk is made
BIN_PEAK_OVER_CHUNKS = 4
# tracemalloc peak of writing a direction sweep, over one block's text of
# 48-byte rows: the reused byte matrix and mask, the text of one block, the
# block drawn and its three columns' signs, whole and fractional counts
SAVE_PEAK_OVER_BLOCK_TEXT = 6


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


def test_engine_run_at_100_presses_holds_about_one_block_over_its_step_log(press_run):
    *_, log, run_peak = press_run(100)
    assert run_peak - log.steps.nbytes <= RUN_PEAK_OVER_STEP_LOG


def test_cli_simulate_holds_its_trace_step_log_and_one_block(press_run, calib, tmp_path):
    """The peak is the run's: the writers come after the trace is released."""
    trace, _, log, _ = press_run(100)
    save_trace(trace, tmp_path / "press.csv")
    save_calibration(calib, tmp_path / "calibration.txt")
    rc, peak = traced_peak(main, ["simulate", "--trace", str(tmp_path / "press.csv"),
                                  "--calibration", str(tmp_path / "calibration.txt"),
                                  "--out", str(tmp_path)])
    assert rc == 0
    assert peak < trace.samples.nbytes + log.steps.nbytes + RUN_PEAK_OVER_STEP_LOG


def test_cli_synth_press_holds_one_block_of_trace_rows(tmp_path):
    """From 50 to 486 presses (20,400 to 195,600 rows) the peak of drawing
    and writing a noisy press trace grows by less than one block of rows."""
    def synth_press(repeat):
        return traced_peak(main, ["synth", "press", "--key", "46", "--repeat", str(repeat),
                                  "--flex-noise", "2", "--out", str(tmp_path)])
    synth_press(1)  # the parser and the digit table are built once
    (short_rc, short_peak), (long_rc, long_peak) = synth_press(50), synth_press(486)
    assert short_rc == long_rc == 0
    assert long_peak - short_peak < BLOCK_ROWS * SAMPLE_DTYPE.itemsize


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


def test_save_directions_holds_a_few_blocks_of_text(tmp_path):
    save_directions(synth.band_sweep(1, seed=5), tmp_path / "warm.csv")  # numpy.random
    _, peak = traced_peak(save_directions, synth.band_sweep(12 * BLOCK_ROWS, seed=5),
                          tmp_path / "band_directions.csv")
    assert peak < SAVE_PEAK_OVER_BLOCK_TEXT * BLOCK_ROWS * 48
