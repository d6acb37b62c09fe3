"""Motor axis model: gearhead, quadrature encoder and profile motion.

Each axis mimics a servo drive in profile-position mode: the velocity
slews toward its target at no more than ``a_max``, position integrates
velocity, and the axis lands exactly on the setpoint with no overshoot
(the deceleration envelope v <= sqrt(2*a_max*dist) is enforced every
step). Angles are output-side degrees; the encoder count is kept
consistent with the angle after every update.

``axis_step`` advances one ``(angle, velocity, encoder_count)`` state by one
step. ``run_axis`` is the same step fused into one loop over the steps of a
command schedule, resumed from a given state. The schedule is given as run
columns: the first step, the setpoint and the target angle of each run of
steps under one setpoint. It writes angles and velocities into preallocated
buffers and leaves the encoder counts to ``encoder_count_column``, which
derives them from the angles afterwards.

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


def run_axis(angles, velocities, runs, limits, dt: float, axis: MotorAxis,
             feedback: tuple[float, float] | None = None,
             state: tuple[float, float] = (0.0, 0.0)) -> tuple[float, float]:
    """Step an axis from ``state``, ``(angle, velocity)``, through a command
    schedule and return its state after the last step; the default is the
    drive-enable state.

    The state after step k is what chaining ``axis_step`` from ``state``
    gives; its angle goes to ``angles[k]`` and, unless ``velocities`` is
    None, its velocity to ``velocities[k]``, in ``array('d')`` buffers.
    ``runs`` is the schedule as three run columns, one entry per run of steps
    under one setpoint, in step order: ``runs[0][r]`` is the buffer index of
    run r's first step, the first run's being the step after ``state``, and
    holds one entry more, the index after the last step; ``runs[1][r]`` is
    its setpoint in counts and ``runs[2][r]`` its target angle, ``setpoint *
    360.0 / counts_per_output_rev(axis)``. ``limits[k - 1]`` is the profile
    velocity over step k; with ``feedback = (kp, v_cap)``, both positive, it
    is instead the buffer index of the state the step's command was sent
    from, below k and never decreasing with k, and the velocity is ``min(kp
    * |setpoint - encoder_count|, v_cap)`` with that state's count. The
    entries of ``angles`` below the first step hold the angles of the states
    before it that those indices name, ``state`` last.

    The loop only writes into the buffers it is given, so it grows no
    container wherever it runs. It is one loop over steps, not one per run:
    with a noisy flex sensor the horizontal setpoint changes on most steps,
    and a loop per run would pay for a ``range`` on each of them. A run's
    setpoint and target are read when its first step comes up, so a step in
    a long run pays one integer comparison for the schedule. Once the axis
    rests on its setpoint it holds that state, with no arithmetic, until the
    setpoint changes: the loop fills the rest of the run at once and resumes
    at the run's end, with no pass over the held steps, which are most of
    the vertical axis's. A feedback axis can also stop off its setpoint, once
    the count of the state a command was sent from equals the setpoint. A
    stop in motion lasts until a later send reads where the axis stopped; it
    is held in the same way from step k on when, at step k, its velocity is
    zero, the profile velocity from send state ``s = limits[k - 1]`` is
    exactly zero and the angle has not changed over states s .. k - 1: every
    later send of the run then reads that same angle, so no later step moves
    the axis. That held stop is at most half a count off the setpoint.
    """
    cpr = counts_per_output_rev(axis)
    dt_s = dt / 1000.0
    two_a_max = 2.0 * axis.a_max
    max_delta = axis.a_max * dt_s
    v_max = axis.v_max
    kp, v_cap = feedback if feedback is not None else (None, None)
    sqrt, copysign, floor = math.sqrt, math.copysign, math.floor
    angle, velocity = state
    firsts, setpoints, targets = runs
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
                    limit = limits[k - 1]
                else:
                    sent = limits[k - 1]
                    x = angles[sent] * cpr / 360.0
                    count = floor(x + 0.5) if x >= 0 else -floor(-x + 0.5)
                    limit = kp * abs(setpoint - count)
                    if v_cap < limit:
                        limit = v_cap
                    # the window's first angle alone rules out most stops
                    # that follow a move, without building the slice
                    if (limit == 0.0 and velocity == 0.0 and angles[sent] == angle
                            and angles[sent:k].count(angle) == k - sent):
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
