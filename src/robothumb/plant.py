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
    if dt <= 0:
        raise InputError("dt must be positive")
    if velocity_limit < 0:
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


def torque_margin(required: float, axis: MotorAxis) -> float:
    """Ratio of geared-up nominal torque to the required output torque."""
    if required <= 0:
        raise InputError("required torque must be positive")
    return axis.nominal_torque * axis.gear_ratio / required
