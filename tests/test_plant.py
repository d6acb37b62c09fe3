from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from robothumb.errors import ConfigurationError, InputError
from robothumb.plant import (MAX_COUNTS_PER_REV, MotorAxis, axis_step,
                             counts_per_output_rev, encoder_count_column,
                             encoder_counts, run_axis, torque_margin)

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


def test_encoder_resolution_bounded_for_exact_counts():
    # the largest count range a float angle resolves count by count
    assert counts_per_output_rev(MotorAxis(gear_ratio=2**43)) == MAX_COUNTS_PER_REV
    with pytest.raises(ConfigurationError, match="at most 2\\*\\*53"):
        MotorAxis(gear_ratio=2**43 + 1)
    with pytest.raises(ConfigurationError, match="at most 2\\*\\*53"):
        MotorAxis(gear_ratio=10**400)


@given(st.lists(st.floats(min_value=-720.0, max_value=720.0), max_size=50))
def test_encoder_count_column_matches_scalar(angles):
    column = encoder_count_column(np.array(angles, dtype=float), AXIS)
    assert column.dtype == np.int64
    assert column.tolist() == [encoder_counts(a, AXIS) for a in angles]


@st.composite
def schedules(draw):
    """An axis, a starting state and runs of steps under one setpoint.

    Setpoints come from a few nearby values, so the axis lands and idles,
    retargets mid-move and reverses; adjacent runs may share a setpoint.
    Each step gets a profile velocity (0 stalls the axis) and, for the
    feedback form, the earlier state its command was sent from.
    """
    axis = MotorAxis(gear_ratio=draw(st.sampled_from([1, 4, 16])),
                     v_max=draw(st.floats(50.0, 1000.0)),
                     a_max=draw(st.floats(1000.0, 1e6)))
    dt = draw(st.sampled_from([0.5, 1.0, 2.5]))
    targets = st.sampled_from([-40, -3, 0, 1, 2, 25, 300])
    runs, k = [], 1
    for length, setpoint in draw(st.lists(st.tuples(st.integers(1, 12), targets),
                                          min_size=1, max_size=12)):
        runs.append((k, k + length, setpoint))
        k += length
    n = k - 1
    limits = draw(st.lists(st.floats(0.0, 500.0) | st.just(0.0), min_size=n, max_size=n))
    sent = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    sent = [min(j, k - 1) for k, j in enumerate(sorted(sent), start=1)]
    start_setpoint = draw(targets)
    angle = draw(st.sampled_from([0.0, start_setpoint * 360.0 / counts_per_output_rev(axis)]))
    velocity = draw(st.sampled_from([0.0, -0.0, 35.0, -120.0]))
    feedback = draw(st.none() | st.tuples(st.floats(0.01, 5.0), st.floats(1.0, 400.0)))
    return axis, dt, runs, limits, sent, (angle, velocity), feedback


@st.composite
def strided_schedules(draw):
    """Feedback schedules as ``engine.run`` builds them from a trace sampled
    slower than the timestep: each step's command is sent from a state a few
    steps back, and that state is held for ``period`` steps, then jumps.

    Runs are up to 300 steps long and setpoints a few hundred counts
    apart, so within one run the axis moves and stops short of its target
    once the sent count equals the setpoint. Setpoints revisit a few values
    and some runs are short, so a run can also retarget the axis onto a count
    it left a few steps back: the send state's count is then the setpoint
    while the axis is elsewhere, and it must move again once later sends see
    where it stopped.
    """
    axis = MotorAxis(gear_ratio=draw(st.sampled_from([1, 4, 16])),
                     a_max=draw(st.sampled_from([1000.0, 100000.0])))
    dt = draw(st.sampled_from([0.5, 1.0, 2.5]))
    period = draw(st.integers(1, 40))
    lag = draw(st.integers(1, 30))
    phase = draw(st.integers(0, period - 1))
    setpoints = st.sampled_from(
        [0] + draw(st.lists(st.integers(-600, 600), min_size=1, max_size=3)))
    lengths = st.integers(1, 300) | st.integers(1, 30)
    runs, k = [], 1
    for length, setpoint in draw(st.lists(st.tuples(lengths, setpoints),
                                          min_size=1, max_size=8)):
        runs.append((k, k + length, setpoint))
        k += length
    sent = [min(k - 1, max(0, (k - lag - phase) // period * period + phase))
            for k in range(1, k)]
    start = (draw(st.sampled_from([0.0, -0.0])),
             draw(st.sampled_from([0.0, -0.0, 35.0, -120.0])))
    feedback = (draw(st.sampled_from([0.3, 0.01, 5.0]) | st.floats(0.01, 5.0)),
                draw(st.sampled_from([400.0, 50.0, 1.0])))
    return axis, dt, runs, None, sent, start, feedback


def bits(values) -> list[int]:
    """The float64 bit patterns of ``values``; ``-0.0`` differs from ``0.0``."""
    return np.array(values, dtype=float).view(np.int64).tolist()


def assert_run_axis_equals_chained_axis_step(schedule):
    axis, dt, runs, limits, sent, (angle, velocity), feedback = schedule
    n = runs[-1][1] - 1
    angles = array("d", [angle]) * (n + 1)
    velocities = array("d", [velocity]) * (n + 1)
    run_axis(angles, velocities, iter(runs), sent if feedback else limits,
             dt, axis, feedback)

    states = [(angle, velocity, encoder_counts(angle, axis))]
    for first, stop, setpoint in runs:
        for k in range(first, stop):
            if feedback is None:
                limit = limits[k - 1]
            else:
                kp, v_cap = feedback
                limit = min(kp * abs(setpoint - states[sent[k - 1]][2]), v_cap)
            states.append(axis_step(states[-1], setpoint, limit, dt, axis))
    assert bits(angles) == bits([a for a, _, _ in states])
    assert bits(velocities) == bits([v for _, v, _ in states])
    assert encoder_count_column(np.frombuffer(angles), axis).tolist() == [
        c for _, _, c in states]


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_run_axis_equals_chained_axis_step(schedule):
    """The fused loop's state after each step is the state chaining
    ``axis_step`` gives, bit for bit, with and without feedback."""
    assert_run_axis_equals_chained_axis_step(schedule)


@settings(max_examples=200, deadline=None)
@given(strided_schedules())
# the axis stops with limit 0 over step 2, but step 3 is sent from that
# stopped state, whose count is 1, not 0: the axis must move back
@example((MotorAxis(), 1.0, [(1, 2, 37), (2, 4, 0)], None, [0, 0, 2],
          (0.0, 0.0), (0.3, 50.0)))
# the same stop, but step 3 is still sent from state 0: the axis moved
# after that state, so it moves back over step 4
@example((MotorAxis(), 1.0, [(1, 2, 37), (2, 5, 0)], None, [0, 0, 0, 3],
          (0.0, 0.0), (0.3, 50.0)))
def test_run_axis_equals_chained_axis_step_with_strided_sends(schedule):
    """The same on feedback schedules whose axis stalls off target for long
    stretches, with sends held for many steps as a coarse trace holds them."""
    assert_run_axis_equals_chained_axis_step(schedule)
