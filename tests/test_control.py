import random
from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

from robothumb.control import (CalibrationSet, ControlParams,
                               calibrate_from_trace, horizontal_update,
                               linear_map, load_calibration, save_calibration,
                               validate_calibration_ranges, vertical_update)
from robothumb.errors import (CalibrationIncompleteError, ConfigurationError,
                              DegenerateCalibrationError)
from robothumb.kinematics import FingerGeometry
from robothumb.plant import MotorAxis, round_half_away, run_axis
from robothumb.sensors import SensorTrace

PARAMS = ControlParams()

CAL = CalibrationSet(flex_min=2482, flex_max=1780, enc_h_min=790, enc_h_max=-795,
                     y_min=1229, y_max=1332, z_min=1474, z_max=1720,
                     enc_hover=0, enc_pressed=558)

ANCHORS = {"enc_h_min": 790, "enc_h_max": -795, "enc_hover": 0, "enc_pressed": 558}


def make_trace(rows):
    """rows: (flex, y, z, label) tuples at 1 ms spacing."""
    flex, acc_y, acc_z, labels = zip(*rows)
    return SensorTrace.from_columns([float(i) for i in range(len(rows))],
                                    flex, acc_y, acc_z, labels, 1.0)


def full_calibration_rows(flex_values=(1000, 1002)):
    rows = []
    for v in flex_values:
        rows.append((v, 1229, 1474, "flex_min"))
    rows.append((3000, 1229, 1474, "flex_max"))
    rows.append((500, 1229, 1474, "foot_down"))
    rows.append((500, 1332, 1474, "foot_up"))
    rows.append((500, 1229, 1474, "z_rest"))
    rows.append((500, 1229, 1720, "z_active"))
    return rows


def test_linear_map_endpoints_and_midpoint():
    assert linear_map(0, 0, 100, -50, 50) == -50
    assert linear_map(100, 0, 100, -50, 50) == 50
    assert linear_map(50, 0, 100, -50, 50) == 0
    # anchors may be in either order
    assert linear_map(2482, 2482, 1780, 790, -795) == 790
    assert linear_map(1780, 2482, 1780, 790, -795) == -795


def test_linear_map_clamps_outside_anchors():
    assert linear_map(-10, 0, 100, 0, 1000) == 0
    assert linear_map(110, 0, 100, 0, 1000) == 1000
    assert linear_map(5000, 2482, 1780, 790, -795) == 790


def test_linear_map_degenerate_rejected():
    with pytest.raises(DegenerateCalibrationError):
        linear_map(1, 5, 5, 0, 10)


def test_calibrate_means_and_rounding():
    calib = calibrate_from_trace(make_trace(full_calibration_rows()), ANCHORS)
    assert calib.flex_min == 1001  # mean of 1000, 1002
    assert calib.flex_max == 3000
    assert calib.y_min == 1229
    assert calib.y_max == 1332
    assert calib.z_min == 1474
    assert calib.z_max == 1720
    assert calib.enc_pressed == 558


def test_calibrate_missing_label_names_it():
    rows = [r for r in full_calibration_rows() if r[3] != "foot_up"]
    with pytest.raises(CalibrationIncompleteError, match="foot_up"):
        calibrate_from_trace(make_trace(rows), ANCHORS)


def test_calibrate_missing_anchor_names_it():
    anchors = {k: v for k, v in ANCHORS.items() if k != "enc_pressed"}
    with pytest.raises(CalibrationIncompleteError, match="enc_pressed"):
        calibrate_from_trace(make_trace(full_calibration_rows()), anchors)


def test_calibrate_single_samples_identity():
    calib = calibrate_from_trace(make_trace(full_calibration_rows((1000,))), ANCHORS)
    assert calib.flex_min == 1000


def test_degenerate_calibration_rejected():
    with pytest.raises(DegenerateCalibrationError):
        CalibrationSet(flex_min=5, flex_max=5, enc_h_min=0, enc_h_max=1,
                       y_min=0, y_max=1, z_min=0, z_max=1,
                       enc_hover=0, enc_pressed=1)


def commanded_velocity(distance: int, params: ControlParams) -> float:
    """Profile velocity the engine's horizontal pipeline sends toward a
    setpoint ``distance`` counts from the axis, read off one step of an axis
    with unbounded acceleration (it reaches the commanded velocity at once):
    the step's command is sent from the drive-enable state, buffer index 0."""
    axis = MotorAxis(a_max=1e12, v_max=1e9)
    angles, velocities = array("d", [0.0, 0.0]), array("d", [0.0, 0.0])
    run_axis(angles, velocities, [(1, 2, distance)], [0], 1.0, axis,
             (params.kp_h, params.v_cap))
    return abs(velocities[1])


def scalar_setpoint(s, s_min, s_max, p_min, p_max) -> int:
    """Reference: the map and rounding one sample at a time, in plain floats."""
    p = p_min + (s - s_min) * (p_max - p_min) / (s_max - s_min)
    return round_half_away(min(max(p, min(p_min, p_max)), max(p_min, p_max)))


def test_horizontal_update_endpoints_and_velocity_law():
    assert horizontal_update(np.array([CAL.flex_min, CAL.flex_max]), CAL) == [
        CAL.enc_h_min, CAL.enc_h_max]
    # converged: zero distance, zero commanded velocity
    assert commanded_velocity(0, PARAMS) == 0.0
    # proportional law below the cap, capped above it
    params = ControlParams(kp_h=0.05, v_cap=90.0)
    assert commanded_velocity(-1000, params) == pytest.approx(50.0)
    assert commanded_velocity(1000, params) == pytest.approx(50.0)
    assert commanded_velocity(5000, params) == 90.0


def test_vertical_update_endpoints_and_velocity_clamp():
    setpoints, velocities = vertical_update(np.array([CAL.y_min, CAL.y_max]),
                                            np.array([CAL.z_min, CAL.z_max]),
                                            CAL, PARAMS)
    assert setpoints == [CAL.enc_hover, CAL.enc_pressed]
    assert velocities == [PARAMS.v_floor, min(PARAMS.kv_z, PARAMS.v_cap)]
    big = ControlParams(kv_z=10000.0)
    _, velocities = vertical_update(np.array([CAL.y_max]), np.array([CAL.z_max]),
                                    CAL, big)
    assert velocities == [big.v_cap]


def test_laws_match_scalar_reference_on_every_code():
    codes = np.arange(0, 4096)
    assert horizontal_update(codes, CAL) == [
        scalar_setpoint(c, CAL.flex_min, CAL.flex_max, CAL.enc_h_min, CAL.enc_h_max)
        for c in range(4096)]
    setpoints, velocities = vertical_update(codes, codes[::-1], CAL, PARAMS)
    assert setpoints == [
        scalar_setpoint(c, CAL.y_min, CAL.y_max, CAL.enc_hover, CAL.enc_pressed)
        for c in range(4096)]
    z_span = CAL.z_max - CAL.z_min
    assert velocities == [
        min(max(PARAMS.kv_z * ((z - CAL.z_min) / z_span), PARAMS.v_floor), PARAMS.v_cap)
        for z in range(4095, -1, -1)]


@given(st.integers(min_value=-10000, max_value=10000))
def test_horizontal_setpoint_always_clamped(flex):
    [setpoint] = horizontal_update(np.array([flex]), CAL)
    lo, hi = sorted((CAL.enc_h_min, CAL.enc_h_max))
    assert lo <= setpoint <= hi


@given(st.integers(min_value=-10000, max_value=10000),
       st.integers(min_value=-10000, max_value=10000))
def test_vertical_setpoint_clamped_and_velocity_bounded(y, z):
    [setpoint], [velocity] = vertical_update(np.array([y]), np.array([z]),
                                             CAL, PARAMS)
    lo, hi = sorted((CAL.enc_hover, CAL.enc_pressed))
    assert lo <= setpoint <= hi
    assert PARAMS.v_floor <= velocity <= PARAMS.v_cap


def test_setpoints_monotone_in_sensor_codes():
    # codes toward flex_min (2482) map toward enc_h_min (790): rising
    h = horizontal_update(np.arange(1700, 2600, 25), CAL)
    assert h == sorted(h)
    y = np.arange(1200, 1360, 5)
    v, _ = vertical_update(y, np.full(len(y), CAL.z_min), CAL, PARAMS)
    assert v == sorted(v)


def test_proportional_velocity_non_decreasing_in_distance():
    prev = -1.0
    for dist in range(0, 3000, 50):
        velocity = commanded_velocity(dist, PARAMS)
        assert velocity >= prev
        assert velocity <= PARAMS.v_cap
        prev = velocity


def test_endpoint_exactness_over_random_calibrations():
    rng = random.Random(42)
    for _ in range(300):
        s_min = rng.randint(0, 4000)
        s_max = rng.randint(0, 4000)
        p_min = rng.randint(-16000, 16000)
        p_max = rng.randint(-16000, 16000)
        if s_min == s_max:
            continue
        assert linear_map(s_min, s_min, s_max, p_min, p_max) == p_min
        assert linear_map(s_max, s_min, s_max, p_min, p_max) == p_max
        mid = linear_map((s_min + s_max) / 2.0, s_min, s_max, p_min, p_max)
        assert abs(mid - (p_min + p_max) / 2.0) <= 1.0


def test_calibration_file_round_trip(tmp_path):
    path = tmp_path / "calibration.txt"
    save_calibration(CAL, path)
    assert load_calibration(path) == CAL
    text = path.read_text()
    assert "flex_min = 2482" in text


def test_validate_calibration_ranges():
    validate_calibration_ranges(CAL, FingerGeometry(), MotorAxis())
    too_deep = CalibrationSet(flex_min=2482, flex_max=1780, enc_h_min=790,
                              enc_h_max=-795, y_min=1229, y_max=1332,
                              z_min=1474, z_max=1720, enc_hover=0,
                              enc_pressed=9000)  # ~198 deg, past the joint stop
    with pytest.raises(ConfigurationError, match="enc_pressed"):
        validate_calibration_ranges(too_deep, FingerGeometry(), MotorAxis())


def test_control_params_validation():
    with pytest.raises(ConfigurationError):
        ControlParams(kp_h=0.0)
    with pytest.raises(ConfigurationError):
        ControlParams(v_floor=0.0)
    with pytest.raises(ConfigurationError):
        ControlParams(v_floor=500.0, v_cap=400.0)
