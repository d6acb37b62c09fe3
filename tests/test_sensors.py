import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from robothumb import synth
from robothumb.config import default_config
from robothumb.control import calibrate_from_trace
from robothumb.errors import CalibrationIncompleteError, InputError, TraceFormatError
from robothumb.sensors import (SensorConfig, SensorTrace,
                               accel_output, adc_quantize, divider_voltage,
                               flex_resistance, load_trace, save_trace)

SENSORS = SensorConfig()


def test_flex_resistance_endpoints_and_midpoint():
    assert flex_resistance(0.0, SENSORS) == pytest.approx(13.0)
    assert flex_resistance(180.0, SENSORS) == pytest.approx(26.0)
    assert flex_resistance(90.0, SENSORS) == pytest.approx(19.5)


def test_flex_resistance_rejects_out_of_range():
    with pytest.raises(InputError):
        flex_resistance(-1.0, SENSORS)
    with pytest.raises(InputError):
        flex_resistance(180.1, SENSORS)


def test_divider_voltage_values():
    assert divider_voltage(20.0, SENSORS) == pytest.approx(2.5)
    assert divider_voltage(13.0, SENSORS) == pytest.approx(100.0 / 33.0, abs=1e-4)
    assert divider_voltage(26.0, SENSORS) == pytest.approx(100.0 / 46.0, abs=1e-4)
    with pytest.raises(InputError):
        divider_voltage(0.0, SENSORS)


def test_adc_quantize_values():
    assert adc_quantize(0.0, SENSORS) == 0
    assert adc_quantize(5.0, SENSORS) == 4095
    # 2.5/5*4095 = 2047.5, half rounds up
    assert adc_quantize(2.5, SENSORS) == 2048
    assert adc_quantize(100.0, SENSORS) == 4095  # clamps
    assert adc_quantize(-1.0, SENSORS) == 0


@given(st.floats(min_value=-2.0, max_value=8.0, allow_nan=False))
def test_adc_quantize_bounded_and_idempotent(v):
    code = adc_quantize(v, SENSORS)
    assert 0 <= code <= SENSORS.full_scale
    # re-quantizing the representable voltage of that code is stable
    representable = code / SENSORS.full_scale * SENSORS.adc_v_ref
    assert adc_quantize(representable, SENSORS) == code


def test_accel_output_values():
    v_y, v_z = accel_output(0.0, 0.0, SENSORS)
    assert v_y == pytest.approx(1.5)
    assert v_z == pytest.approx(1.8)
    v_y30, _ = accel_output(30.0, 0.0, SENSORS)
    assert v_y30 == pytest.approx(1.65)


def test_accel_output_pitch_range():
    with pytest.raises(InputError):
        accel_output(90.5, 0.0, SENSORS)


@given(st.floats(min_value=0.0, max_value=180.0),
       st.floats(min_value=0.0, max_value=180.0))
def test_monotonicity_chain(a1, a2):
    # bend up => resistance up => divider voltage down => code non-increasing
    lo, hi = sorted((a1, a2))
    r_lo, r_hi = flex_resistance(lo, SENSORS), flex_resistance(hi, SENSORS)
    assert r_lo <= r_hi
    v_lo, v_hi = divider_voltage(r_lo, SENSORS), divider_voltage(r_hi, SENSORS)
    assert v_lo >= v_hi
    assert adc_quantize(v_lo, SENSORS) >= adc_quantize(v_hi, SENSORS)


def test_outputs_bit_deterministic():
    first = [adc_quantize(divider_voltage(flex_resistance(a, SENSORS), SENSORS), SENSORS)
             for a in (0.0, 45.0, 90.0, 135.0, 180.0)]
    second = [adc_quantize(divider_voltage(flex_resistance(a, SENSORS), SENSORS), SENSORS)
              for a in (0.0, 45.0, 90.0, 135.0, 180.0)]
    assert first == second


def make_trace(t, labels=None):
    n = len(t)
    return SensorTrace.from_columns(t, [2000] * n, [1229] * n, [1474] * n,
                                    labels or [""] * n)


def test_trace_rejects_non_monotone_timestamps():
    with pytest.raises(TraceFormatError):
        make_trace([0.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trace_rejects_non_finite_timestamps(bad):
    with pytest.raises(TraceFormatError, match="not finite"):
        make_trace([0.0, bad])
    with pytest.raises(TraceFormatError, match="not finite"):
        make_trace([bad])


def test_trace_rejects_irregular_spacing():
    """The period is the first spacing; the message names both."""
    with pytest.raises(TraceFormatError) as err:
        make_trace([0.0, 1.0, 2.5])
    assert str(err.value) == "sample spacing 1.5 ms deviates more than 1% from period 1.0 ms"
    with pytest.raises(TraceFormatError, match="spacing 1.0 ms .* from period 2.0 ms"):
        make_trace([0.0, 2.0, 3.0])


def test_trace_csv_round_trip(tmp_path):
    trace = make_trace([float(i) for i in range(5)],
                       labels=["", "tag", "", "", ""])
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert np.array_equal(loaded.samples, trace.samples)
    assert loaded.samples.dtype == trace.samples.dtype
    assert loaded.labels == trace.labels
    save_trace(loaded, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_read_back_press_trace_holds_no_labels(tmp_path):
    """An unlabelled trace keeps no per-sample labels, written or read back
    by either reader, and each row it writes ends in an empty label; one
    label per sample or none is all a trace accepts."""
    cfg = default_config()
    trace = synth.press_trace(cfg, 46, repeat=2)
    assert trace.labels == ()
    path = tmp_path / "press_trace.csv"
    save_trace(trace, path)
    rows = path.read_bytes().split(b"\r\n")[1:-1]
    assert len(rows) == len(trace.samples) and all(row.endswith(b",") for row in rows)
    lf = tmp_path / "lf.csv"  # leaves the writer's layout: the text parser
    lf.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    for loaded in (load_trace(path), load_trace(lf)):
        assert loaded.labels == ()
        assert loaded.samples.tobytes() == trace.samples.tobytes()
    with pytest.raises(CalibrationIncompleteError, match="flex_min missing"):
        calibrate_from_trace(trace, synth.anchors_from_config(cfg))
    with pytest.raises(TraceFormatError, match="one label per sample"):
        SensorTrace(trace.samples, ("",) * 3)


def test_calibration_trace_round_trips_its_labels(tmp_path):
    cfg = default_config()
    trace = synth.calibration_trace(cfg)
    path = tmp_path / "calibration_trace.csv"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert len(loaded.labels) == len(loaded.samples) and loaded.labels == trace.labels
    anchors = synth.anchors_from_config(cfg)
    assert calibrate_from_trace(loaded, anchors) == calibrate_from_trace(trace, anchors)


def test_load_trace_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,flex\n0,1\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)
