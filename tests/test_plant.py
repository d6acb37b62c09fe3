import math
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
    """An axis, a starting state and a setpoint for each step, in stretches.

    Setpoints come from a few nearby values, so the axis lands and idles,
    retargets mid-move and reverses. Each step gets a profile velocity (0
    stalls the axis) and, for the feedback form, the earlier state its
    command was sent from.
    """
    axis = MotorAxis(gear_ratio=draw(st.sampled_from([1, 4, 16])),
                     v_max=draw(st.floats(50.0, 1000.0)),
                     a_max=draw(st.floats(1000.0, 1e6)))
    dt = draw(st.sampled_from([0.5, 1.0, 2.5]))
    targets = st.sampled_from([-40, -3, 0, 1, 2, 25, 300])
    setpoints = [setpoint for length, setpoint in draw(st.lists(
        st.tuples(st.integers(1, 12), targets), min_size=1, max_size=12))
        for _ in range(length)]
    n = len(setpoints)
    limits = draw(st.lists(st.floats(0.0, 500.0) | st.just(0.0), min_size=n, max_size=n))
    sent = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    sent = [min(j, k) for k, j in enumerate(sorted(sent))]
    start_setpoint = draw(targets)
    angle = draw(st.sampled_from([0.0, start_setpoint * 360.0 / counts_per_output_rev(axis)]))
    velocity = draw(st.sampled_from([0.0, -0.0, 35.0, -120.0]))
    feedback = draw(st.none() | st.tuples(st.floats(0.01, 5.0), st.floats(1.0, 400.0)))
    return axis, dt, setpoints, limits, sent, (angle, velocity), feedback


@st.composite
def strided_schedules(draw):
    """Feedback schedules as ``engine.run`` builds them from a trace sampled
    slower than the timestep: each step's command is sent from a state a few
    steps back, and that state is held for ``period`` steps, then jumps.

    Setpoints hold for up to 300 steps and lie a few hundred counts apart,
    so under one setpoint the axis moves and stops short of its target once
    the sent count equals the setpoint. Setpoints revisit a few values and
    some hold only briefly, so a new setpoint can also retarget the axis onto
    a count it left a few steps back: the send state's count is then the
    setpoint while the axis is elsewhere, and it must move again once later
    sends see where it stopped.
    """
    axis = MotorAxis(gear_ratio=draw(st.sampled_from([1, 4, 16])),
                     a_max=draw(st.sampled_from([1000.0, 100000.0])))
    dt = draw(st.sampled_from([0.5, 1.0, 2.5]))
    period = draw(st.integers(1, 40))
    lag = draw(st.integers(1, 30))
    phase = draw(st.integers(0, period - 1))
    values = st.sampled_from(
        [0] + draw(st.lists(st.integers(-600, 600), min_size=1, max_size=3)))
    lengths = st.integers(1, 300) | st.integers(1, 30)
    setpoints = [setpoint for length, setpoint in draw(st.lists(
        st.tuples(lengths, values), min_size=1, max_size=8)) for _ in range(length)]
    sent = [min(k - 1, max(0, (k - lag - phase) // period * period + phase))
            for k in range(1, len(setpoints) + 1)]
    start = (draw(st.sampled_from([0.0, -0.0])),
             draw(st.sampled_from([0.0, -0.0, 35.0, -120.0])))
    feedback = (draw(st.sampled_from([0.3, 0.01, 5.0]) | st.floats(0.01, 5.0)),
                draw(st.sampled_from([400.0, 50.0, 1.0])))
    return axis, dt, setpoints, None, sent, start, feedback


def bits(values) -> list[int]:
    """The float64 bit patterns of ``values``; ``-0.0`` differs from ``0.0``."""
    return np.array(values, dtype=float).view(np.int64).tolist()


def assert_run_axis_equals_chained_axis_step(schedule):
    """Steps are numbered from 1 and states from 0, the starting state. The
    buffers hold ``lead`` entries before step 1: none or the starting state
    without feedback, as the engine's vertical buffers and a caller that
    keeps its last state do; with feedback the starting state, or that and
    an earlier state that no send reads, as the engine's horizontal buffer
    holds the states its commands are sent from."""
    axis, dt, setpoints, limits, sent, (angle, velocity), feedback = schedule
    states = [(angle, velocity, encoder_counts(angle, axis))]
    for i, setpoint in enumerate(setpoints):
        if feedback is None:
            limit = limits[i]
        else:
            kp, v_cap = feedback
            limit = min(kp * abs(setpoint - states[sent[i]][2]), v_cap)
        states.append(axis_step(states[-1], setpoint, limit, dt, axis))

    columns = np.array(setpoints, np.int64), None if limits is None else np.array(limits)
    for lead in (0, 1) if feedback is None else (1, 2):
        before = [angle - 1.0, angle][2 - lead:]
        # NaN marks an entry the loop does not write
        angles = array("d", before + [math.nan] * len(setpoints))
        velocities = array("d", [velocity] * lead + [math.nan] * len(setpoints))
        sends = None if feedback is None else (
            *feedback, np.array(sent, np.int64) + (lead - 1))
        end = run_axis(angles, velocities, *columns, dt, axis, sends, (angle, velocity))
        # without a velocity buffer the angles and the end state are the same
        angles_only = array("d", before + [math.nan] * len(setpoints))
        assert bits(run_axis(angles_only, None, *columns, dt, axis, sends,
                             (angle, velocity))) == bits(end)
        assert bits(angles_only) == bits(angles)

        assert bits(angles) == bits(before + [a for a, _, _ in states[1:]])
        assert bits(velocities) == bits([velocity] * lead + [v for _, v, _ in states[1:]])
        assert bits(end) == bits(states[-1][:2])
        assert encoder_count_column(np.frombuffer(angles)[lead:], axis).tolist() == [
            c for _, _, c in states[1:]]


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
@example((MotorAxis(), 1.0, [37, 0, 0], None, [0, 0, 2], (0.0, 0.0), (0.3, 50.0)))
# the same stop, but step 3 is still sent from state 0: the axis moved
# after that state, so it moves back over step 4
@example((MotorAxis(), 1.0, [37, 0, 0, 0], None, [0, 0, 0, 3], (0.0, 0.0), (0.3, 50.0)))
def test_run_axis_equals_chained_axis_step_with_strided_sends(schedule):
    """The same on feedback schedules whose axis stalls off target for long
    stretches, with sends held for many steps as a coarse trace holds them."""
    assert_run_axis_equals_chained_axis_step(schedule)


@st.composite
def noisy_schedules(draw):
    """Feedback schedules as ``engine.run`` builds them from a 1 ms trace of a
    noisy flex sensor at the default control parameters: the setpoint changes
    on nearly every step, within 3 counts of the last, and every command is
    sent from the state 21 steps back. Now and then a setpoint holds long
    enough for the axis to land and rest, or to stop off target and hold that
    stop until the setpoint changes.
    """
    aim = draw(st.sampled_from([0, 2, 40, -300]))
    setpoints = []
    for length, jitter, shift in draw(st.lists(
            st.tuples(st.just(1) | st.integers(1, 60), st.integers(-3, 3),
                      st.just(0) | st.integers(-40, 40)),
            min_size=1, max_size=60)):
        aim += shift
        setpoints += [aim + jitter] * length
    sent = [max(0, k - 21) for k in range(1, len(setpoints) + 1)]
    start = (draw(st.sampled_from([0.0, setpoints[0] * 360.0 / 16384.0])), 0.0)
    return MotorAxis(), 1.0, setpoints, None, sent, start, (0.3, 400.0)


def sent_21_back(n: int) -> list[int]:
    """The send states of ``n`` steps, each 21 steps back, as at 1 ms."""
    return [max(0, k - 21) for k in range(1, n + 1)]


# a setpoint change on every step but one, within 3 counts of the last
NOISY_SETPOINTS = [0, 2, -1, 3, 1, -3, 2, 0, -2, 1] * 6 + [3, 3, 2]


@settings(max_examples=200, deadline=None)
@given(noisy_schedules())
@example((MotorAxis(), 1.0, NOISY_SETPOINTS, None, sent_21_back(63), (0.0, 0.0),
          (0.3, 400.0)))
# the axis lands on setpoint 1 over step 5 and rests until the setpoint
# changes; setpoint 3 follows for four steps, on which it lands and rests
@example((MotorAxis(), 1.0, [1] * 11 + [3] * 4 + [0], None, sent_21_back(16),
          (0.0, 0.0), (5.0, 400.0)))
@example((MotorAxis(), 1.0, [1] * 7 + [3] * 4 + [0], [400.0] * 12, None, (0.0, 0.0),
          None))
# the axis stops 0.22 counts short of setpoint 1 over step 58, and once the
# sends read that stop the stall is held until the setpoint changes at step 100
@example((MotorAxis(), 1.0, [1] * 99 + [3] * 4 + [0], None, sent_21_back(104),
          (0.0, 0.0), (0.3, 400.0)))
# 0.3 counts off setpoint 0, at rest, sent from that state: the stall is held
# over steps 1 .. 3 and ends where setpoint 3 moves it
@example((MotorAxis(), 1.0, [0] * 3 + [3] * 2, None, [0] * 5,
          (0.3 * 360.0 / 16384.0, 0.0), (0.3, 400.0)))
def test_run_axis_equals_chained_axis_step_under_flex_noise(schedule):
    """The same on schedules of a noisy horizontal axis: setpoints that change
    on almost every step, rests and held stops that last until the setpoint
    changes, and setpoint changes right after them."""
    assert_run_axis_equals_chained_axis_step(schedule)
