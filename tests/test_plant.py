from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from robothumb.errors import ConfigurationError, InputError
from robothumb.plant import (MotorAxis, axis_step, counts_per_output_rev,
                             encoder_counts, torque_margin)

AXIS = MotorAxis()
REST = (0.0, 0.0, 0)  # (angle, velocity, encoder_count) at drive enable


def oracle_counts(angle: float, axis: MotorAxis) -> int:
    """Independent exact-rational rounding oracle (ties away from zero)."""
    x = Fraction(angle) * counts_per_output_rev(axis) / 360
    q, r = divmod(abs(x.numerator), x.denominator)
    value = q + (1 if 2 * r >= x.denominator else 0)
    return value if x >= 0 else -value


def test_counts_per_output_rev():
    assert counts_per_output_rev(AXIS) == 16384  # 256 * 4 * 16
    assert counts_per_output_rev(MotorAxis(quadrature=1)) == 4096
    assert counts_per_output_rev(MotorAxis(gear_ratio=1, quadrature=1)) == 256


def test_encoder_counts_values():
    assert encoder_counts(0.0, AXIS) == 0
    assert encoder_counts(360.0, AXIS) == 16384
    assert encoder_counts(90.0, AXIS) == 4096
    assert encoder_counts(-90.0, AXIS) == -4096
    # exactly half a count rounds away from zero
    half = 0.5 * 360.0 / 16384.0
    assert encoder_counts(half, AXIS) == 1
    assert encoder_counts(-half, AXIS) == -1


@given(st.floats(min_value=-720.0, max_value=720.0, allow_nan=False))
def test_encoder_counts_match_exact_oracle(angle):
    assert encoder_counts(angle, AXIS) == oracle_counts(angle, AXIS)


def test_axis_step_converged_setpoint():
    angle = 455 * 360.0 / 16384.0
    state = (angle, 25.0, encoder_counts(angle, AXIS))
    out = axis_step(state, 455, 90.0, 1.0, AXIS)
    assert out == (angle, 0.0, 455)
    assert axis_step(out, 455, 90.0, 1.0, AXIS) is out  # idle: state unchanged


def test_axis_step_velocity_limited_move():
    # 1000 counts away, 90 deg/s limit, huge accel, 100 ms: moves 9 deg = 410 counts
    axis = MotorAxis(a_max=1e12)
    angle, velocity, count = axis_step(REST, 1000, 90.0, 100.0, axis)
    assert angle == pytest.approx(9.0)
    assert count == 410
    assert velocity == pytest.approx(90.0)


def test_axis_step_accel_limited_slew():
    # a far setpoint keeps the deceleration envelope out of the way
    axis = MotorAxis(a_max=500.0)
    _, velocity, _ = axis_step(REST, 10**9, 50.0, 20.0, axis)
    assert velocity == pytest.approx(10.0)  # 500 deg/s^2 * 20 ms


def test_axis_step_respects_v_max():
    _, velocity, _ = axis_step(REST, 10**9, 1e9, 1000.0, AXIS)
    assert velocity == AXIS.v_max


def test_time_consistency_constant_velocity():
    # far from target at the limit: dt twice equals 2*dt once
    axis = MotorAxis(a_max=1e12)
    start = (0.0, 120.0, 0)
    twice = axis_step(axis_step(start, 100000, 120.0, 1.0, axis),
                      100000, 120.0, 1.0, axis)
    once = axis_step(start, 100000, 120.0, 2.0, axis)
    assert twice[0] == pytest.approx(once[0], abs=1e-12)
    assert twice[1] == once[1]


@given(st.integers(min_value=-20000, max_value=20000),
       st.floats(min_value=1.0, max_value=500.0),
       st.integers(min_value=1, max_value=40))
def test_no_overshoot_and_encoder_consistency(setpoint, limit, steps):
    state = REST
    target_deg = setpoint * 360.0 / 16384.0
    for _ in range(steps):
        before = state[0]
        state = axis_step(state, setpoint, limit, 5.0, AXIS)
        angle, _, count = state
        assert count == encoder_counts(angle, AXIS)
        # never moves past the target
        if target_deg >= before:
            assert angle <= target_deg + 1e-9
        else:
            assert angle >= target_deg - 1e-9


@pytest.mark.parametrize("setpoint", [1, -1, 410, 16384, -5000])
def test_position_mode_reaches_setpoint_exactly(setpoint):
    state = REST
    for _ in range(100000):
        state = axis_step(state, setpoint, 200.0, 1.0, AXIS)
        if state[2] == setpoint and state[1] == 0.0:
            break
    angle, velocity, count = state
    assert count == setpoint
    assert angle == pytest.approx(setpoint * 360.0 / 16384.0)
    assert velocity == 0.0


def test_torque_margin_values():
    assert torque_margin(0.04113, AXIS) == pytest.approx(3.89, abs=0.01)
    assert torque_margin(AXIS.nominal_torque * AXIS.gear_ratio, AXIS) == pytest.approx(1.0)
    undersized = MotorAxis(nominal_torque=0.00257)
    assert torque_margin(0.04113, undersized) == pytest.approx(1.0, abs=0.005)
    with pytest.raises(InputError):
        torque_margin(0.0, AXIS)


def test_output_torque_is_gear_ratio_times_nominal():
    # margin 1 exactly when the requirement equals gear_ratio * nominal
    for gear in (1, 4, 16, 64):
        axis = MotorAxis(gear_ratio=gear)
        assert torque_margin(gear * axis.nominal_torque, axis) == pytest.approx(1.0)


def test_invalid_axis_rejected():
    with pytest.raises(ConfigurationError):
        MotorAxis(gear_ratio=0)
    with pytest.raises(ConfigurationError):
        MotorAxis(quadrature=3)
    with pytest.raises(InputError):
        axis_step(REST, 0, -1.0, 1.0, AXIS)
    with pytest.raises(InputError):
        axis_step(REST, 0, 1.0, 0.0, AXIS)
