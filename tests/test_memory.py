"""Memory guards on the ``simulate`` path: reading a trace and running it hold
about their own columns, as ``tracemalloc`` counts allocations."""

import tracemalloc

from robothumb import engine, synth
from robothumb.config import default_config
from robothumb.control import calibrate_from_trace
from robothumb.sensors import load_trace, save_trace

# tracemalloc peak over the columns' own bytes: the reader holds the samples,
# the labels and one chunk's parse; the engine its step log, the axis
# buffers, the per-sample control columns and the schedules
LOAD_PEAK_OVER_SAMPLES = 2.0
RUN_PEAK_OVER_STEPS = 4.0


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_trace_and_engine_run_hold_about_their_own_columns(tmp_path):
    cfg = default_config()
    calib = calibrate_from_trace(synth.calibration_trace(cfg), synth.anchors_from_config(cfg))
    path = tmp_path / "press_trace.csv"
    save_trace(synth.press_trace(cfg, 46, repeat=486), path)
    trace, load_peak = traced_peak(load_trace, path)
    assert len(trace.samples) == 195_600
    assert load_peak < LOAD_PEAK_OVER_SAMPLES * trace.samples.nbytes
    log, run_peak = traced_peak(engine.run, trace, calib, cfg)
    assert run_peak < RUN_PEAK_OVER_STEPS * log.steps.nbytes
