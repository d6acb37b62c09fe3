"""Motor axis model: gearhead, quadrature encoder and profile motion.

Each axis mimics a servo drive in profile-position mode: the velocity
slews toward its target at no more than ``a_max``, position integrates
velocity, and the axis lands exactly on the setpoint with no overshoot
(the deceleration envelope v <= sqrt(2*a_max*dist) is enforced every
step). Angles are output-side degrees; the encoder count is kept
consistent with the angle after every update.

``axis_step`` advances one ``(angle, velocity, encoder_count)`` state by one
step. ``run_axis`` is the same step fused into one loop over the steps of a
block, resumed from a given state. The block's schedule is given as numpy
columns with one entry per step: the setpoint, and the profile velocity or
the state the command was sent from. It writes angles and velocities into
preallocated buffers and leaves the encoder counts to
``encoder_count_column``, which derives them from the angles afterwards.

``encoder_counts`` is the package's one rule from an angle to a count, and
``round_half_away`` its one rounding rule, which the ADC, the calibration
means and the MIDI tick and velocity use too.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, require


def round_half_away(x: float) -> int:
    """Round to nearest integer with ties away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def round_half_away_column(x: np.ndarray) -> np.ndarray:
    """``round_half_away`` of each element, by the same float operations."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x).astype(np.int64)


MAX_COUNTS_PER_REV = 2**53  # largest count range a float64 holds exactly


@dataclass(frozen=True)
class MotorAxis:
    gear_ratio: int = 16
    encoder_cpr: int = 256        # impulses per motor revolution
    quadrature: int = 4           # decoded edges per impulse
    v_max: float = 600.0          # deg/s, output side
    a_max: float = 100000.0       # deg/s^2, output side
    nominal_torque: float = 0.010  # N*m, motor side

    def __post_init__(self):
        if not self.gear_ratio >= 1:
            raise ConfigurationError("gear_ratio must be >= 1")
        require(self, "positive", "encoder_cpr")
        if self.quadrature not in (1, 2, 4):
            raise ConfigurationError("quadrature must be 1, 2 or 4")
        require(self, "positive", "v_max", "a_max", "nominal_torque")
        if not counts_per_output_rev(self) <= MAX_COUNTS_PER_REV:
            # beyond it a float angle cannot name every count, and the
            # encoder count column would no longer be exact
            raise ConfigurationError(
                "encoder_cpr * quadrature * gear_ratio must be at most 2**53")


def counts_per_output_rev(axis: MotorAxis) -> int:
    """Decoded encoder counts for one full output-shaft revolution."""
    return axis.encoder_cpr * axis.quadrature * axis.gear_ratio


def encoder_counts(angle: float, axis: MotorAxis) -> int:
    """Encoder count for an output angle in degrees, ties away from zero."""
    return round_half_away(angle * counts_per_output_rev(axis) / 360.0)


def axis_step(state: tuple, setpoint: int, velocity_limit: float, dt: float,
              axis: MotorAxis) -> tuple[float, float, int]:
    """Advance ``state``, ``(angle, velocity, encoder_count)``, by ``dt`` ms
    toward ``setpoint`` counts at profile velocity ``velocity_limit``; an
    idle step, already at rest on the setpoint, returns ``state`` itself."""
    if not dt > 0:
        raise InputError("dt must be positive")
    if not velocity_limit >= 0:
        raise InputError("velocity_limit must be non-negative")
    angle, velocity, _ = state
    target = setpoint * 360.0 / counts_per_output_rev(axis)
    dist = target - angle
    if dist == 0.0:
        return state if velocity == 0.0 else (angle, 0.0, encoder_counts(angle, axis))

    dt_s = dt / 1000.0
    limit = min(velocity_limit, axis.v_max)
    # stay inside the no-overshoot deceleration envelope toward the target
    stoppable = math.sqrt(2.0 * axis.a_max * abs(dist))
    desired = math.copysign(min(limit, stoppable), dist)
    max_delta = axis.a_max * dt_s  # slew toward ``desired`` by at most this
    if desired > velocity:
        velocity = min(desired, velocity + max_delta)
    else:
        velocity = max(desired, velocity - max_delta)
    move = velocity * dt_s
    if (move >= dist if dist > 0 else move <= dist):
        # lands on (or would pass) the setpoint: stop exactly there
        return target, 0.0, encoder_counts(target, axis)
    angle += move
    return angle, velocity, encoder_counts(angle, axis)


def encoder_count_column(angles: np.ndarray, axis: MotorAxis) -> np.ndarray:
    """``encoder_counts`` of each angle in a column, as int64."""
    return round_half_away_column(angles * counts_per_output_rev(axis) / 360.0)


def run_axis(angles, velocities, setpoints, limits, dt: float, axis: MotorAxis,
             feedback: tuple | None = None,
             state: tuple[float, float] = (0.0, 0.0)) -> tuple[float, float]:
    """Step an axis from ``state``, ``(angle, velocity)``, through one block of
    steps and return its state after the last step; the default is the
    drive-enable state.

    The block's steps are the last ``len(setpoints)`` entries of ``angles``,
    an ``array('d')`` buffer; call the first one's index ``first``. The state
    after the step at buffer index k is what chaining ``axis_step`` from
    ``state`` gives; its angle goes to ``angles[k]`` and, unless
    ``velocities`` is None, its velocity to ``velocities[k]``, in a buffer as
    long. The schedule is given as numpy columns with one entry per step, the
    step at index k being entry ``k - first``: ``setpoints`` holds its
    setpoint in counts and ``limits`` its profile velocity. With ``feedback =
    (kp, v_cap, sent)``, kp and v_cap positive, ``limits`` is not read:
    ``sent`` holds the buffer index of the state the step's command was sent
    from, below k and never decreasing with k, and the velocity is ``min(kp *
    |setpoint - encoder_count|, v_cap)`` with that state's count. The entries
    of ``angles`` below ``first`` hold the angles of the states before the
    block that those indices name, ``state`` last.

    The loop only writes into the buffers it is given, so it grows no
    container wherever it runs. It first builds the runs of steps under one
    setpoint with numpy: the buffer index of each run's first step, its
    setpoint and its target angle, ``setpoint * 360.0 /
    counts_per_output_rev(axis)``. It is then one loop over steps, not one
    per run: with a noisy flex sensor the horizontal setpoint changes on most
    steps, and a loop per run would pay for a ``range`` on each of them. A
    run's setpoint and target are read when its first step comes up, so a
    step in a long run pays one integer comparison for the schedule. Once the
    axis rests on its setpoint it holds that state, with no arithmetic, until
    the setpoint changes: the loop fills the rest of the run at once and
    resumes at the run's end, with no pass over the held steps, which are
    most of the vertical axis's. A feedback axis can also stop off its
    setpoint, once the count of the state a command was sent from equals the
    setpoint. A stop in motion lasts until a later send reads where the axis
    stopped; it is held in the same way from step k on when, at step k, its
    velocity is zero, the profile velocity from send state s is exactly zero
    and the angle has not changed over states s .. k - 1: every later send of
    the run then reads that same angle, so no later step moves the axis. That
    held stop is at most half a count off the setpoint.
    """
    cpr = counts_per_output_rev(axis)
    dt_s = dt / 1000.0
    two_a_max = 2.0 * axis.a_max
    max_delta = axis.a_max * dt_s
    v_max = axis.v_max
    first = len(angles) - len(setpoints)  # the buffer index of the first step
    at = np.flatnonzero(np.diff(setpoints, prepend=setpoints[:1] + 1))
    firsts = array("q", (np.append(at, len(setpoints)) + first).tobytes())
    targets = array("d", (setpoints[at] * 360.0 / cpr).tobytes())
    setpoints = array("q", setpoints[at].tobytes())
    # the other per-step column, padded so that a step's entry is read at
    # its buffer index
    if feedback is None:
        kp, limits = None, array("d", bytes(8 * first) + limits.tobytes())
    else:
        kp, v_cap, sent = feedback
        sent = array("q", bytes(8 * first) + sent.tobytes())
    sqrt, copysign, floor = math.sqrt, math.copysign, math.floor
    angle, velocity = state
    k, end = firsts[0], firsts[-1]
    r, stop = 0, k  # run r starts at step ``stop``
    # ``b if b < a else a`` is min(a, b) and ``b if b > a else a`` is
    # max(a, b), NaN included, without the call
    while k < end:
        for k in range(k, end):
            if k == stop:
                setpoint, target = setpoints[r], targets[r]
                r += 1
                stop = firsts[r]
            dist = target - angle
            if dist == 0.0:
                if velocity == 0.0:  # at rest on the setpoint until it changes
                    break
                velocity = 0.0
            else:
                if kp is None:
                    limit = limits[k]
                else:
                    s = sent[k]
                    x = angles[s] * cpr / 360.0
                    count = floor(x + 0.5) if x >= 0 else -floor(-x + 0.5)
                    limit = kp * abs(setpoint - count)
                    if v_cap < limit:
                        limit = v_cap
                    # the window's first angle alone rules out most stops
                    # that follow a move, without building the slice
                    if (limit == 0.0 and velocity == 0.0 and angles[s] == angle
                            and angles[s:k].count(angle) == k - s):
                        # stalled off target until the setpoint changes
                        velocity = copysign(0.0, dist)
                        break
                if v_max < limit:
                    limit = v_max
                stoppable = sqrt(two_a_max * abs(dist))
                desired = copysign(stoppable if stoppable < limit else limit, dist)
                if desired > velocity:
                    velocity += max_delta
                    if not velocity < desired:
                        velocity = desired
                else:
                    velocity -= max_delta
                    if not velocity > desired:
                        velocity = desired
                move = velocity * dt_s
                if (move >= dist if dist > 0 else move <= dist):
                    angle, velocity = target, 0.0
                else:
                    angle += move
            angles[k] = angle
            if velocities is not None:
                velocities[k] = velocity
        else:
            break
        # the loop broke at step k to hold the state to the end of the run,
        # and resumes at the run's end
        angles[k:stop] = array("d", [angle]) * (stop - k)
        if velocities is not None:
            velocities[k:stop] = array("d", [velocity]) * (stop - k)
        k = stop
    return angle, velocity


def torque_margin(required: float, axis: MotorAxis) -> float:
    """Ratio of geared-up nominal torque to the required output torque."""
    if not required > 0:
        raise InputError("required torque must be positive")
    return axis.nominal_torque * axis.gear_ratio / required
