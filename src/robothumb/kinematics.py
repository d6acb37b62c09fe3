"""Forward/inverse kinematics of the two-DOF finger and static torque needs.

The finger is a rigid chain: a knuckle link of length l0 in the horizontal
plane, a proximal link l1 and a distal link l2 joined at a fixed bend.
Rotation about the vertical axis (theta_h) sweeps the tip along the key
line; rotation about the horizontal press axis (theta_v, positive = down)
lowers the tip. With theta_v measured from the horizontal:

    radial r(tv) = l0 + l1*cos(tv) + l2*cos(tv + bend)
    drop   d(tv) = l1*sin(tv) + l2*sin(tv + bend)

so the tip sits at (r*cos(th), r*sin(th), -d) in the base frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, InputError, ReachError, TravelRangeError, require


@dataclass(frozen=True)
class FingerGeometry:
    l0_knuckle: float = 41.0    # mm
    l1_proximal: float = 58.0   # mm
    l2_distal: float = 48.5     # mm
    bend_angle: float = 60.0    # deg between proximal and distal links
    theta_h_range: float = 360.0  # deg of free horizontal rotation
    theta_v_min: float = -90.0  # deg, most raised press angle
    theta_v_max: float = 30.0   # deg, deepest press angle

    def __post_init__(self):
        require(self, "positive", "l0_knuckle", "l1_proximal", "l2_distal")
        if not 0 < self.bend_angle <= 90:
            raise ConfigurationError("bend_angle must be in (0, 90]")
        if not 0 < self.theta_v_max - self.theta_v_min <= 120:
            raise ConfigurationError("theta_v_max - theta_v_min must be in (0, 120]")
        require(self, "positive", "theta_h_range")


@dataclass(frozen=True)
class MountPose:
    """Placement of the device base relative to the keyboard.

    base_x runs along the key line, base_z is the pivot height above the
    undepressed key surface, heading is the horizontal-axis zero direction,
    and depth is the hand's in/out position used for black-key addressing.
    The reach fields place the natural hand and the calibrated sweep along
    the key line; mass_g is the device's declared mass.
    """

    base_x: float = 600.0   # mm along the keyboard
    base_z: float = 47.0    # mm above the key surface
    heading: float = 73.0   # deg added to the horizontal axis angle
    depth: float = 0.0      # mm toward the fallboard
    pinkie_reach_x: float = 580.0       # mm, rightmost point of the natural hand span
    reach_near_x: float = 599.25        # mm, calibrated closest-note center
    reach_far_x: float = 669.75         # mm, calibrated furthest-note center
    press_overtravel_deg: float = 1.2   # press-axis margin past the full-press pose
    mass_g: float = 310.0               # declared bill-of-materials mass

    def __post_init__(self):
        require(self, "positive", "base_z")
        require(self, "non-negative", "press_overtravel_deg")
        require(self, "positive", "mass_g")
        require(self, "finite", "base_x", "heading", "depth", "pinkie_reach_x",
                "reach_near_x", "reach_far_x")


def radial_extension(theta_v, geometry: FingerGeometry, xp=math):
    """Horizontal distance (mm) from the vertical axis to the fingertip.

    ``xp`` supplies ``radians``, ``cos`` and ``sin``: ``math`` for a number,
    ``numpy`` for a column of angles, computed by the same formula.
    """
    tv = xp.radians(theta_v)
    bend = math.radians(geometry.bend_angle)
    return (geometry.l0_knuckle
            + geometry.l1_proximal * xp.cos(tv)
            + geometry.l2_distal * xp.cos(tv + bend))


def press_drop(theta_v, geometry: FingerGeometry, xp=math):
    """Vertical drop (mm) of the fingertip below the press-axis plane."""
    tv = xp.radians(theta_v)
    bend = math.radians(geometry.bend_angle)
    return (geometry.l1_proximal * xp.sin(tv)
            + geometry.l2_distal * xp.sin(tv + bend))


def keyline_position(theta_h_world, theta_v, geometry: FingerGeometry,
                     mount: MountPose, xp=math):
    """Fingertip position projected onto the key line: (x along keys, z above keys).

    Takes numbers with ``xp = math`` and equal-length angle columns with
    ``xp = numpy``.
    """
    r = radial_extension(theta_v, geometry, xp)
    d = press_drop(theta_v, geometry, xp)
    x = mount.base_x + r * xp.cos(xp.radians(theta_h_world))
    return x, mount.base_z - d


def theta_for_key(key_center_x: float, mount: MountPose,
                  geometry: FingerGeometry) -> float:
    """Horizontal angle (deg, world frame) placing the hovering tip over a key center.

    The drive is enabled at hover, so the hovering tip has theta_v = 0.
    Solved in closed form from the circle of radius r(0) around the base;
    of the two intersections the one facing the keyboard (angle in
    [0, 180]) is returned. Raises ReachError for keys outside the circle,
    reporting the furthest reachable x.
    """
    r = radial_extension(0.0, geometry)
    dx = key_center_x - mount.base_x
    if abs(dx) > r:
        raise ReachError(
            f"key at x={key_center_x} mm is beyond reach; max reachable "
            f"x={mount.base_x + r:.2f} mm")
    return math.degrees(math.acos(dx / r))


def press_angle(travel: float, geometry: FingerGeometry) -> float:
    """Smallest press rotation (deg) from hover that lowers the tip by ``travel`` mm.

    d(tv) collapses to R*sin(tv + phi), so the press angle has the closed
    form asin((d(0) + travel)/R) - phi on the rising branch.
    """
    if not travel >= 0:
        raise InputError("travel must be non-negative")
    if travel == 0:
        return 0.0
    bend = math.radians(geometry.bend_angle)
    a = geometry.l1_proximal + geometry.l2_distal * math.cos(bend)
    b = geometry.l2_distal * math.sin(bend)
    amplitude = math.hypot(a, b)
    phase = math.atan2(b, a)
    hover_drop = press_drop(0.0, geometry)
    if hover_drop + travel > amplitude:
        raise TravelRangeError(
            f"travel {travel} mm exceeds the maximum drop "
            f"{amplitude - hover_drop:.2f} mm from hover")
    theta = math.degrees(math.asin((hover_drop + travel) / amplitude) - phase)
    if theta > geometry.theta_v_max:
        raise TravelRangeError(
            f"travel {travel} mm needs theta_v {theta:.2f} deg, beyond the "
            f"joint limit {geometry.theta_v_max} deg")
    return theta


def required_torque(force: float, theta_v: float, geometry: FingerGeometry) -> float:
    """Torque (N*m) about the press axis to exert ``force`` N at the tip."""
    if not force >= 0:
        raise InputError("force must be non-negative")
    tv = math.radians(theta_v)
    bend = math.radians(geometry.bend_angle)
    arm_mm = (geometry.l1_proximal * math.cos(tv)
              + geometry.l2_distal * math.cos(tv + bend))
    return force * arm_mm / 1000.0
