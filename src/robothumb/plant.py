"""Motor axis model: gearhead, quadrature encoder and profile motion.

Each axis mimics a servo drive in profile-position mode: the velocity
slews toward its target at no more than ``a_max``, position integrates
velocity, and the axis lands exactly on the setpoint with no overshoot
(the deceleration envelope v <= sqrt(2*a_max*dist) is enforced every
step). Angles are output-side degrees; the encoder count is kept
consistent with the angle after every update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, InputError


def round_half_away(x: float) -> int:
    """Round to nearest integer with ties away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass(frozen=True)
class MotorAxis:
    gear_ratio: int = 16
    encoder_cpr: int = 256        # impulses per motor revolution
    quadrature: int = 4           # decoded edges per impulse
    v_max: float = 600.0          # deg/s, output side
    a_max: float = 100000.0       # deg/s^2, output side
    nominal_torque: float = 0.010  # N*m, motor side

    def __post_init__(self):
        if self.gear_ratio < 1:
            raise ConfigurationError("gear_ratio must be >= 1")
        if self.encoder_cpr <= 0:
            raise ConfigurationError("encoder_cpr must be positive")
        if self.quadrature not in (1, 2, 4):
            raise ConfigurationError("quadrature must be 1, 2 or 4")
        if self.v_max <= 0:
            raise ConfigurationError("v_max must be positive")
        if self.a_max <= 0:
            raise ConfigurationError("a_max must be positive")
        if self.nominal_torque <= 0:
            raise ConfigurationError("nominal_torque must be positive")


@dataclass(frozen=True)
class AxisState:
    angle: float = 0.0          # deg, output side, zero at drive enable
    velocity: float = 0.0       # deg/s
    encoder_count: int = 0      # counts, zeroed at drive enable


@dataclass(frozen=True)
class AxisCommand:
    setpoint: float        # counts
    velocity_limit: float  # deg/s profile velocity

    def __post_init__(self):
        if self.velocity_limit < 0:
            raise InputError("velocity_limit must be non-negative")


def counts_per_output_rev(axis: MotorAxis) -> int:
    """Decoded encoder counts for one full output-shaft revolution."""
    return axis.encoder_cpr * axis.quadrature * axis.gear_ratio


def encoder_counts(angle: float, axis: MotorAxis) -> int:
    """Encoder count for an output angle in degrees, ties away from zero."""
    return round_half_away(angle * counts_per_output_rev(axis) / 360.0)


def _slew(current: float, target: float, max_delta: float) -> float:
    if target > current:
        return min(target, current + max_delta)
    return max(target, current - max_delta)


def axis_step(state: AxisState, command: AxisCommand, dt: float,
              axis: MotorAxis) -> AxisState:
    """Advance one axis by ``dt`` milliseconds under ``command``."""
    if dt <= 0:
        raise InputError("dt must be positive")
    dt_s = dt / 1000.0
    target_deg = command.setpoint * 360.0 / counts_per_output_rev(axis)
    dist = target_deg - state.angle
    if dist == 0.0:
        return AxisState(state.angle, 0.0, encoder_counts(state.angle, axis))

    limit = min(command.velocity_limit, axis.v_max)
    # stay inside the no-overshoot deceleration envelope toward the target
    stoppable = math.sqrt(2.0 * axis.a_max * abs(dist))
    desired = math.copysign(min(limit, stoppable), dist)
    velocity = _slew(state.velocity, desired, axis.a_max * dt_s)
    move = velocity * dt_s
    if (move >= dist if dist > 0 else move <= dist):
        # lands on (or would pass) the setpoint: stop exactly there
        return AxisState(target_deg, 0.0, encoder_counts(target_deg, axis))
    angle = state.angle + move
    return AxisState(angle, velocity, encoder_counts(angle, axis))


def torque_margin(required: float, axis: MotorAxis) -> float:
    """Ratio of geared-up nominal torque to the required output torque."""
    if required <= 0:
        raise InputError("required torque must be positive")
    return axis.nominal_torque * axis.gear_ratio / required
