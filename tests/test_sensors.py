import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from robothumb.errors import InputError, TraceFormatError
from robothumb.sensors import (AccelerometerModel, DividerConfig,
                               FlexSensorModel, SensorTrace,
                               accel_output, adc_quantize, divider_voltage,
                               flex_resistance, load_trace, save_trace)

FLEX = FlexSensorModel()
DIV = DividerConfig()
ACC = AccelerometerModel()


def test_flex_resistance_endpoints_and_midpoint():
    assert flex_resistance(0.0, FLEX) == pytest.approx(13.0)
    assert flex_resistance(180.0, FLEX) == pytest.approx(26.0)
    assert flex_resistance(90.0, FLEX) == pytest.approx(19.5)


def test_flex_resistance_rejects_out_of_range():
    with pytest.raises(InputError):
        flex_resistance(-1.0, FLEX)
    with pytest.raises(InputError):
        flex_resistance(180.1, FLEX)


def test_divider_voltage_values():
    assert divider_voltage(20.0, DIV) == pytest.approx(2.5)
    assert divider_voltage(13.0, DIV) == pytest.approx(100.0 / 33.0, abs=1e-4)
    assert divider_voltage(26.0, DIV) == pytest.approx(100.0 / 46.0, abs=1e-4)
    with pytest.raises(InputError):
        divider_voltage(0.0, DIV)


def test_adc_quantize_values():
    assert adc_quantize(0.0, DIV) == 0
    assert adc_quantize(5.0, DIV) == 4095
    # 2.5/5*4095 = 2047.5, half rounds up
    assert adc_quantize(2.5, DIV) == 2048
    assert adc_quantize(100.0, DIV) == 4095  # clamps
    assert adc_quantize(-1.0, DIV) == 0


@given(st.floats(min_value=-2.0, max_value=8.0, allow_nan=False))
def test_adc_quantize_bounded_and_idempotent(v):
    code = adc_quantize(v, DIV)
    assert 0 <= code <= DIV.full_scale
    # re-quantizing the representable voltage of that code is stable
    representable = code / DIV.full_scale * DIV.v_ref
    assert adc_quantize(representable, DIV) == code


def test_accel_output_values():
    v_y, v_z = accel_output(0.0, 0.0, ACC)
    assert v_y == pytest.approx(1.5)
    assert v_z == pytest.approx(1.8)
    v_y30, _ = accel_output(30.0, 0.0, ACC)
    assert v_y30 == pytest.approx(1.65)


def test_accel_output_pitch_range():
    with pytest.raises(InputError):
        accel_output(90.5, 0.0, ACC)


@given(st.floats(min_value=0.0, max_value=180.0),
       st.floats(min_value=0.0, max_value=180.0))
def test_monotonicity_chain(a1, a2):
    # bend up => resistance up => divider voltage down => code non-increasing
    lo, hi = sorted((a1, a2))
    r_lo, r_hi = flex_resistance(lo, FLEX), flex_resistance(hi, FLEX)
    assert r_lo <= r_hi
    v_lo, v_hi = divider_voltage(r_lo, DIV), divider_voltage(r_hi, DIV)
    assert v_lo >= v_hi
    assert adc_quantize(v_lo, DIV) >= adc_quantize(v_hi, DIV)


def test_outputs_bit_deterministic():
    first = [adc_quantize(divider_voltage(flex_resistance(a, FLEX), DIV), DIV)
             for a in (0.0, 45.0, 90.0, 135.0, 180.0)]
    second = [adc_quantize(divider_voltage(flex_resistance(a, FLEX), DIV), DIV)
              for a in (0.0, 45.0, 90.0, 135.0, 180.0)]
    assert first == second


def make_trace(t, period=1.0, labels=None):
    n = len(t)
    return SensorTrace.from_columns(t, [2000] * n, [1229] * n, [1474] * n,
                                    labels or [""] * n, period)


def test_trace_rejects_non_monotone_timestamps():
    with pytest.raises(TraceFormatError):
        make_trace([0.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trace_rejects_non_finite_timestamps(bad):
    with pytest.raises(TraceFormatError, match="not finite"):
        make_trace([0.0, bad])
    with pytest.raises(TraceFormatError, match="not finite"):
        make_trace([bad])


@pytest.mark.parametrize("period", [math.nan, math.inf, 0.0, -1.0])
def test_trace_rejects_bad_sample_period(period):
    # irregular timestamps, which a NaN or inf period lets past the spacing check
    with pytest.raises(TraceFormatError, match="sample_period"):
        make_trace([0.0, 1.0, 7.0], period)


def test_trace_rejects_irregular_spacing():
    with pytest.raises(TraceFormatError):
        make_trace([0.0, 1.0, 2.5])


def test_trace_csv_round_trip(tmp_path):
    trace = make_trace([float(i) for i in range(5)],
                       labels=["", "tag", "", "", ""])
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert np.array_equal(loaded.samples, trace.samples)
    assert loaded.samples.dtype == trace.samples.dtype
    assert (loaded.labels, loaded.sample_period) == (trace.labels, trace.sample_period)
    save_trace(loaded, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_load_trace_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,flex\n0,1\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)
