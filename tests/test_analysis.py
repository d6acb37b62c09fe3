import dataclasses
import math

import numpy as np
import pytest

from robothumb import synth
from robothumb.analysis import (MAX_BINS, BudgetReport, budget_check, latency_stats,
                                range_increase, solid_angle, sphere_partition,
                                workspace_from_limits)
from robothumb.errors import InputError

FULL = 4.0 * math.pi
BAND_60 = 2.0 * math.pi * 2.0 * math.sin(math.radians(60.0))  # 10.8828 sr
CAP_549 = 2.0 * math.pi * (1.0 - math.cos(math.radians(54.9)))  # 2.6703 sr


def sphere_uniform(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(-math.pi, math.pi, n)
    r = np.sqrt(1.0 - z * z)
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


def montecarlo_membership(inside, n=1_000_000, seed=9):
    """Independent oracle: fraction of uniform sphere samples inside * 4 pi."""
    dirs = sphere_uniform(n, seed)
    return float(np.mean(inside(dirs))) * FULL


def test_partition_covers_sphere_exactly():
    for n_bins in (100, 1234, 10_000):
        z_edges, cells, offsets = sphere_partition(n_bins)
        assert int(cells.sum()) == n_bins
        assert z_edges[0] == -1.0 and z_edges[-1] == 1.0
        assert np.all(np.diff(z_edges) > 0)
        # every ring's cells cover the same area: dz * (2 pi / cells)
        areas = np.diff(z_edges) * 2.0 * math.pi / cells
        assert np.allclose(areas, FULL / n_bins, rtol=0, atol=1e-12)
        assert offsets[0] == 0


def test_partition_rejects_tiny_bin_counts():
    with pytest.raises(InputError):
        sphere_partition(99)


def test_partition_bounds_bin_count():
    _, cells, _ = sphere_partition(MAX_BINS)
    assert int(cells.sum()) == MAX_BINS
    for n_bins in (MAX_BINS + 1, 10**12):
        with pytest.raises(InputError, match=f"n_bins must be in \\[100, {MAX_BINS}\\]"):
            sphere_partition(n_bins)


def test_solid_angle_full_sphere():
    dirs = sphere_uniform(1_000_000, seed=3)
    estimate = solid_angle(dirs, 10_000)
    assert abs(estimate - FULL) / FULL < 0.02


def test_solid_angle_hemisphere():
    dirs = sphere_uniform(1_000_000, seed=4)
    upper = dirs[dirs[:, 2] > 0]
    estimate = solid_angle(upper, 10_000)
    assert abs(estimate - 2.0 * math.pi) / (2.0 * math.pi) < 0.02


def test_solid_angle_band_matches_analytic_and_montecarlo():
    dirs = synth.band_sweep_directions(600_000, seed=5)
    estimate = solid_angle(dirs, 10_000)
    assert abs(estimate - BAND_60) / BAND_60 < 0.02
    sin60 = math.sin(math.radians(60.0))
    oracle = montecarlo_membership(lambda d: np.abs(d[:, 2]) <= sin60)
    assert abs(estimate - oracle) / oracle < 0.02


def test_solid_angle_monotone_under_superset():
    dirs = synth.band_sweep_directions(200_000, elev_min=-30.0, elev_max=30.0, seed=6)
    more = synth.band_sweep_directions(200_000, seed=7)  # wider band
    small = solid_angle(dirs, 10_000)
    big = solid_angle(np.vstack((dirs, more)), 10_000)
    assert big >= small
    assert big <= FULL + 1e-9


def test_solid_angle_rejects_bad_input():
    with pytest.raises(InputError):
        solid_angle(np.empty((0, 3)), 10_000)
    with pytest.raises(InputError):
        solid_angle(np.array([[1.0, 1.0, 0.0]]), 10_000)  # norm sqrt(2)
    with pytest.raises(InputError, match="nan"):
        solid_angle(np.array([[1.0, 0.0, 0.0], [math.nan, 0.0, 0.0]]), 10_000)


def test_workspace_from_limits():
    assert workspace_from_limits(360.0, -90.0, 90.0) == pytest.approx(FULL)
    assert workspace_from_limits(360.0, -60.0, 60.0) == pytest.approx(10.8828, abs=1e-4)
    assert workspace_from_limits(0.0, -60.0, 60.0) == 0.0
    with pytest.raises(InputError):
        workspace_from_limits(400.0, -60.0, 60.0)
    with pytest.raises(InputError):
        workspace_from_limits(360.0, 60.0, -60.0)


def test_cap_area():
    """The estimate of a cap's solid angle against the analytic area."""
    assert CAP_549 == pytest.approx(2.6703, abs=1e-4)
    dirs = synth.cap_directions(200_000, 54.9, seed=3)
    assert solid_angle(dirs, 100_000) == pytest.approx(CAP_549, rel=0.02)


def test_range_increase_default_fixture(cfg, calib):
    notes = range_increase(cfg.mount, cfg.geometry, calib, cfg.layout,
                           cfg.axis, cfg.pinkie_reach_x)
    assert notes == 4


def test_range_increase_collapsed_span(cfg, calib):
    # collapse the sweep to a single note: at most one key beyond the pinkie
    collapsed = dataclasses.replace(calib, enc_h_max=calib.enc_h_min - 1)
    notes = range_increase(cfg.mount, cfg.geometry, collapsed, cfg.layout,
                           cfg.axis, cfg.pinkie_reach_x)
    assert notes in (0, 1)


def test_range_increase_mount_shift_is_span_limited(cfg):
    # the mount moves one white key right together with its calibrated span
    shift = cfg.layout.white_width
    moved = dataclasses.replace(
        cfg,
        mount=dataclasses.replace(cfg.mount, base_x=cfg.mount.base_x + shift),
        reach_near_x=cfg.reach_near_x + shift,
        reach_far_x=cfg.reach_far_x + shift)
    from robothumb.control import calibrate_from_trace
    calib = calibrate_from_trace(synth.calibration_trace(moved),
                                 synth.anchors_from_config(moved))
    notes = range_increase(moved.mount, moved.geometry, calib, moved.layout,
                           moved.axis, moved.pinkie_reach_x)
    assert notes == 4


def test_latency_stats_cases():
    single = latency_stats([85.0])
    assert single.mean == 85.0 and single.stddev == 0.0 and single.over_budget
    pair = latency_stats([80.0, 90.0])
    assert pair.mean == 85.0 and pair.over_budget
    under = latency_stats([75.0, 75.0, 75.0])
    assert not under.over_budget
    with pytest.raises(InputError):
        latency_stats([])


def test_latency_stats_permutation_invariant():
    a = latency_stats([70.0, 95.0, 85.0, 60.0])
    b = latency_stats([95.0, 60.0, 85.0, 70.0])
    assert a == b


def test_budget_check_defaults(cfg):
    report = budget_check(cfg)
    assert report.measured_mean_ms == pytest.approx(85.0)
    assert not report.latency_pass  # designed latency exceeds the 80 ms budget
    assert report.mass_pass and report.configured_mass_g == 310.0
    assert report.torque_pass
    assert report.torque_margin == pytest.approx(3.89, abs=0.01)
    assert not (report.latency_pass and report.mass_pass and report.torque_pass)


def test_budget_check_mass_fail(cfg):
    heavy = dataclasses.replace(cfg, device_mass_g=400.0)
    assert not budget_check(heavy).mass_pass


def test_budget_check_all_pass(cfg):
    report = budget_check(cfg, measured_latency_ms=75.0)
    assert report.latency_pass and report.mass_pass and report.torque_pass
    assert isinstance(report, BudgetReport)
    assert report.kv()["latency_pass"] == 1



def test_partition_floor_shares_cover_every_ring():
    """Each ring gets its floor share plus at most one cell, so two cells or
    more in every ring mean every floor share is at least 1."""
    for n_bins in [*range(100, 3000), 10_007, 65_536, 100_000, 199_999, 200_000,
                   10**6, 10**7, 10**8]:
        _, cells, _ = sphere_partition(n_bins)
        assert cells.min() >= 2, n_bins
        assert int(cells.sum()) == n_bins, n_bins
