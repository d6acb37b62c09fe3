import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from robothumb.errors import InputError, ReachError, TravelRangeError
from robothumb.kinematics import (FingerGeometry, MountPose, keyline_position,
                                  press_angle, press_drop, radial_extension,
                                  required_torque, theta_for_key)

GEO = FingerGeometry()
MOUNT = MountPose()

# frozen from the link lengths: drop at theta_v = 0 is 48.5*sin(60 deg)
DROP_AT_HOVER = 42.00223208354527


def bisect_press_angle(travel, geometry, hover=0.0, tol=1e-12):
    """Independent oracle: bisection on the drop function."""
    target = press_drop(hover, geometry) + travel
    lo, hi = hover, 90.0 - geometry.bend_angle
    assert press_drop(hi, geometry) >= target
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if press_drop(mid, geometry) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return (lo + hi) / 2.0 - hover


def test_fingertip_at_rest():
    x, z = keyline_position(0.0, 0.0, GEO, MOUNT)
    assert x - MOUNT.base_x == pytest.approx(123.25)
    assert z - MOUNT.base_z == pytest.approx(-DROP_AT_HOVER)


def test_fingertip_rotated_90():
    x, z = keyline_position(90.0, 0.0, GEO, MOUNT)
    assert x - MOUNT.base_x == pytest.approx(0.0, abs=1e-12)
    assert z - MOUNT.base_z == pytest.approx(-DROP_AT_HOVER)


def test_fingertip_pressed_30():
    x, z = keyline_position(0.0, 30.0, GEO, MOUNT)
    # r = 41 + 58cos30 + 48.5cos90, d = 58sin30 + 48.5sin90
    assert x - MOUNT.base_x == pytest.approx(
        41.0 + 58.0 * math.cos(math.radians(30.0)), abs=1e-9)
    assert z - MOUNT.base_z == pytest.approx(-77.5)


def assert_columns_match_scalars(theta_h, theta_v):
    x, z = keyline_position(theta_h, theta_v, GEO, MOUNT, np)
    scalar = [keyline_position(h, v, GEO, MOUNT)
              for h, v in zip(theta_h.tolist(), theta_v.tolist())]
    assert x.tolist() == [p[0] for p in scalar]
    assert z.tolist() == [p[1] for p in scalar]


def test_fingertip_columns_equal_keyline_position():
    """The column form the engine uses gives the scalar form's floats, bit
    for bit, over the joint ranges and on the encoder grid near hover."""
    rng = np.random.default_rng(20)
    grid = np.arange(-2000, 2000) * 360.0 / 16384
    theta_h = np.concatenate((rng.uniform(-180.0, 180.0, 50_000),
                              MOUNT.heading + grid))
    theta_v = np.concatenate((rng.uniform(-90.0, 30.0, 50_000), grid / 4))
    assert_columns_match_scalars(theta_h, theta_v)


@given(st.integers(1, 50).flatmap(lambda n: st.tuples(
    arrays(float, n, elements=st.floats(-360.0, 360.0)),
    arrays(float, n, elements=st.floats(-90.0, 30.0)))))
def test_fingertip_columns_match_scalars_property(angles):
    assert_columns_match_scalars(*angles)


@given(st.floats(min_value=-180.0, max_value=180.0),
       st.floats(min_value=-90.0, max_value=30.0))
def test_radius_invariant_under_horizontal_rotation(theta_h, theta_v):
    x, z = keyline_position(theta_h, theta_v, GEO, MOUNT)
    x0, z0 = keyline_position(0.0, theta_v, GEO, MOUNT)
    r = radial_extension(theta_v, GEO)
    assert z == z0
    assert x0 - MOUNT.base_x == pytest.approx(r)
    assert abs(x - MOUNT.base_x) <= r + 1e-9


def test_theta_for_key_solutions():
    assert theta_for_key(MOUNT.base_x + 123.25, MOUNT, GEO) == pytest.approx(0.0)
    assert theta_for_key(MOUNT.base_x, MOUNT, GEO) == pytest.approx(90.0)
    assert theta_for_key(MOUNT.base_x - 123.25, MOUNT, GEO) == pytest.approx(180.0)


def test_theta_for_key_reach_error_reports_limit():
    with pytest.raises(ReachError, match=f"max reachable x={MOUNT.base_x + 123.25:.2f} mm"):
        theta_for_key(MOUNT.base_x + 150.0, MOUNT, GEO)


@given(st.floats(min_value=0.0, max_value=180.0))
def test_theta_for_key_round_trips_keyline_x(theta_h):
    x, _ = keyline_position(theta_h, 0.0, GEO, MountPose(heading=0.0))
    solved = theta_for_key(x, MountPose(heading=0.0), GEO)
    x_back, _ = keyline_position(solved, 0.0, GEO, MountPose(heading=0.0))
    assert abs(x_back - x) < 1e-9


def test_press_angle_zero_travel():
    assert press_angle(0.0, GEO) == 0.0


def test_press_angle_matches_bisection_oracle():
    oracle = bisect_press_angle(10.0, GEO)
    assert oracle == pytest.approx(7.216920636, abs=1e-6)  # frozen oracle value
    assert press_angle(10.0, GEO) == pytest.approx(oracle, abs=1e-9)
    for travel in (1.0, 5.0, 20.0, 33.0):
        assert press_angle(travel, GEO) == pytest.approx(
            bisect_press_angle(travel, GEO), abs=1e-9)


def test_press_angle_range_errors():
    with pytest.raises(TravelRangeError):
        press_angle(60.0, GEO)  # beyond the maximum drop
    # reachable in drop terms but beyond the 30 deg joint limit
    max_in_range = press_drop(GEO.theta_v_max, GEO) - press_drop(0.0, GEO)
    with pytest.raises(TravelRangeError):
        press_angle(max_in_range + 0.5, GEO)


def test_drop_strictly_increasing_over_press_range():
    # monotone on [-bend, 90 - bend], which makes the press angle unique
    thetas = [(-60.0 + i * 0.5) for i in range(int((90.0 - 60.0 + 60.0) / 0.5) + 1)]
    drops = [press_drop(t, GEO) for t in thetas]
    assert all(b > a for a, b in zip(drops, drops[1:]))


def test_required_torque_values():
    assert required_torque(0.0, 0.0, GEO) == 0.0
    # 0.5 N on the 82.25 mm arm
    assert required_torque(0.5, 0.0, GEO) == pytest.approx(0.0411250, abs=1e-6)
    assert required_torque(1.0, 0.0, GEO) == pytest.approx(0.0822500, abs=1e-6)
    with pytest.raises(InputError):
        required_torque(-0.1, 0.0, GEO)


def test_torque_peaks_at_flat_press_angle():
    # moment arm shrinks as the press deepens: dense sampling over the stroke
    peak = required_torque(0.5, 0.0, GEO)
    for i in range(1, 301):
        theta = i * 0.1
        assert required_torque(0.5, theta, GEO) < peak


def test_mount_pose_validation():
    with pytest.raises(Exception):
        MountPose(base_z=0.0)
