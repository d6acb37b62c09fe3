import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from robothumb import default_config, synth
from robothumb.analysis import (MAX_BINS, RING_GRID, BudgetReport, _cell_lookup,
                                _norm_deviation, budget_check, latency_stats,
                                range_increase, reachable_keys, solid_angle,
                                sphere_partition, workspace_from_limits)
from robothumb.errors import InputError, ReachError
from robothumb.kinematics import theta_for_key
from robothumb.plant import counts_per_output_rev

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


def searched_cells(block, n_bins):
    """The cell of each row of ``block`` with its ring found by a binary
    search of the ring edges."""
    z_edges, cells, offsets = sphere_partition(n_bins)
    z = np.clip(block[:, 2], -1.0, 1.0)
    ring = np.clip(np.searchsorted(z_edges, z, side="right") - 1, 0, len(cells) - 1)
    frac = (np.arctan2(block[:, 1], block[:, 0]) + math.pi) / (2.0 * math.pi)
    return offsets[ring] + np.minimum((frac * cells[ring]).astype(int), cells[ring] - 1)


@pytest.mark.parametrize("n_bins", [100, 10**4, 10**5, 10**6, 10**7, MAX_BINS])
def test_ring_table_finds_the_ring_a_search_finds(n_bins):
    """Rings own disjoint runs of cells, so equal cells mean equal rings: at
    every ring edge, every grid cell edge, the floats beside each, the poles
    and uniform z."""
    z_edges = sphere_partition(n_bins)[0]
    grid = np.arange(RING_GRID + 1) * (2.0 / RING_GRID) - 1.0
    rng = np.random.default_rng(n_bins % 1_000_003)
    z = np.concatenate((z_edges, grid, [-1.0, 1.0], rng.uniform(-1.0, 1.0, 100_000)))
    z = np.concatenate((z, np.nextafter(z, -2.0), np.nextafter(z, 2.0)))
    phi = rng.uniform(-math.pi, math.pi, len(z))
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    block = np.column_stack((r * np.cos(phi), r * np.sin(phi), z))
    np.testing.assert_array_equal(_cell_lookup(n_bins)(block), searched_cells(block, n_bins))


def test_norm_deviation_is_that_of_linalg_norm_to_the_bit():
    rng = np.random.default_rng(25)
    for scale in (1e-12, 1e-9, 1e-3, 1.0):
        good = sphere_uniform(10_000, 7) * (1.0 + rng.normal(0.0, scale, (10_000, 1)))
        for bad in (None, math.nan, math.inf, -math.inf):
            block = good.copy()
            if bad is not None:
                block[rng.integers(len(block)), rng.integers(3)] = bad
            expected = np.abs(np.linalg.norm(block, axis=1) - 1.0).max()
            np.testing.assert_array_equal(_norm_deviation(block), expected)


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
    notes = range_increase(cfg, calib.enc_h_min, calib.enc_h_max)
    assert notes == 4


def test_range_increase_collapsed_span(cfg, calib):
    # collapse the sweep to a single note: at most one key beyond the pinkie
    collapsed = dataclasses.replace(calib, enc_h_max=calib.enc_h_min - 1)
    notes = range_increase(cfg, collapsed.enc_h_min, collapsed.enc_h_max)
    assert notes in (0, 1)


def test_range_increase_mount_shift_is_span_limited(cfg):
    # the mount moves one white key right together with its calibrated span
    shift = cfg.layout.white_width
    moved = dataclasses.replace(
        cfg,
        mount=dataclasses.replace(cfg.mount, base_x=cfg.mount.base_x + shift,
                                  reach_near_x=cfg.mount.reach_near_x + shift,
                                  reach_far_x=cfg.mount.reach_far_x + shift))
    from robothumb.control import calibrate_from_trace
    calib = calibrate_from_trace(synth.calibration_trace(moved),
                                 synth.anchors_from_config(moved))
    notes = range_increase(moved, calib.enc_h_min, calib.enc_h_max)
    assert notes == 4


def _horizontal_anchors():
    """Counts inside the default horizontal joint range, half of them next
    to some key center's aim, where two aiming rules could part."""
    cfg = default_config()
    cpd = counts_per_output_rev(cfg.axis) / 360.0
    half = math.floor(cfg.geometry.theta_h_range / 2.0 * cpd)
    aims = []
    for key in cfg.layout.keys:
        try:
            aims.append((theta_for_key(key.center_x, cfg.mount, cfg.geometry)
                         - cfg.mount.heading) * cpd)
        except ReachError:
            continue
    near_key = st.sampled_from(aims).flatmap(
        lambda aim: st.sampled_from((math.floor(aim), math.ceil(aim))))
    return st.one_of(st.integers(-half, half), near_key).filter(lambda c: abs(c) <= half)


@settings(deadline=None, max_examples=40)
@example(791, -229)  # key 46 aims at -229.375 counts: reachable_keys left it out
@given(_horizontal_anchors(), _horizontal_anchors())
def test_reachable_keys_are_the_keys_synth_can_aim_at(cfg, enc_h_min, enc_h_max):
    assume(enc_h_min != enc_h_max)
    anchors = {"enc_h_min": enc_h_min, "enc_h_max": enc_h_max}
    aimed = []
    for key in cfg.layout.keys:
        try:
            synth.flex_code_for_key(cfg, key, anchors)
        except (InputError, ReachError):
            continue
        aimed.append(key.index)
    assert [key.index for key in reachable_keys(cfg, enc_h_min, enc_h_max)] == aimed


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
    heavy = dataclasses.replace(
        cfg, mount=dataclasses.replace(cfg.mount, mass_g=400.0))
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
