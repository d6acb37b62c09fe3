"""Workspace, latency and design-budget analysis over simulation outputs.

The angular end-point workspace is estimated by equal-area binning of the
unit sphere: latitude rings are cut so that every cell covers exactly
4*pi/n_bins steradians, the occupied cells are counted, and the workspace
is occupied * 4*pi/n_bins. This handles arbitrarily shaped (non-convex)
direction sets, unlike a spherical hull.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .control import CalibrationSet
from .errors import InputError, ReachError
from .kinematics import FingerGeometry, MountPose, required_torque, theta_for_key
from .piano import Key, KeyboardLayout
from .plant import MotorAxis, counts_per_output_rev, torque_margin

FULL_SPHERE = 4.0 * math.pi
LATENCY_BUDGET_MS = 80.0
MASS_BUDGET_G = 350.0
DIRECTION_NORM_TOL = 1e-9
DIRECTION_BLOCK_ROWS = 65_536  # rows per formatting block in save_directions


def load_directions(path) -> np.ndarray:
    """Read an ``x,y,z`` CSV into an (n, 3) array.

    Only the file's header and shape are checked here; ``solid_angle``
    checks that the rows are unit vectors.
    """
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().rstrip("\n")
        if header != "x,y,z":
            raise InputError(f"{path}: first line must be the header x,y,z")
        with warnings.catch_warnings():
            # a header-only file is reported as an empty set below
            warnings.simplefilter("ignore", UserWarning)
            # from the path, not the open file: numpy parses a path faster
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                              encoding="utf-8")
    except ValueError as exc:  # unparsable text, undecodable bytes included
        raise InputError(f"{path}: {exc}") from None
    if data.size == 0:
        raise InputError(f"{path}: direction set is empty")
    if data.shape[1] != 3:
        raise InputError(f"{path}: expected 3 columns x,y,z")
    return data


def validate_directions(dirs: np.ndarray) -> None:
    if len(dirs) == 0:
        raise InputError("direction set is empty")
    norms = np.linalg.norm(dirs, axis=1)
    worst = float(np.abs(norms - 1.0).max())
    if not worst <= DIRECTION_NORM_TOL:  # NaN fails too
        raise InputError(f"direction norms deviate from 1 by up to {worst:.3e}")


def save_directions(dirs: np.ndarray, path) -> None:
    """Write an ``x,y,z`` CSV with 12 decimals per value.

    Each block of rows is formatted by one ``%`` operation; ``%.12f`` and
    ``f"{x:.12f}"`` share CPython's float formatter, so the text is the
    same as formatting row by row.
    """
    with open(path, "w", newline="") as f:
        f.write("x,y,z\n")
        for start in range(0, len(dirs), DIRECTION_BLOCK_ROWS):
            block = dirs[start:start + DIRECTION_BLOCK_ROWS]
            f.write(("%.12f,%.12f,%.12f\n" * len(block))
                    % tuple(block.ravel().tolist()))


def sphere_partition(n_bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut the sphere into exactly ``n_bins`` equal-area cells.

    Latitude rings get cell counts apportioned to the ring circumference
    (largest-remainder rounding), then each ring's z extent is set to
    2*cells/n_bins so that every cell spans the same z-by-azimuth area,
    4*pi/n_bins. Returns (z_edges, cells_per_ring, ring_offsets).
    """
    if n_bins < 100:
        raise InputError("n_bins must be >= 100")
    n_rings = max(1, int(round(math.sqrt(math.pi * n_bins) / 2.0)))
    centers = (np.arange(n_rings) + 0.5) * math.pi / n_rings
    weights = np.sin(centers)
    ideal = weights / weights.sum() * n_bins
    cells = np.maximum(1, np.floor(ideal).astype(int))
    remainder = n_bins - int(cells.sum())
    if remainder > 0:
        order = np.argsort(-(ideal - np.floor(ideal)))
        cells[order[:remainder]] += 1
    elif remainder < 0:
        order = np.argsort(ideal - np.floor(ideal))
        for idx in order:
            if remainder == 0:
                break
            if cells[idx] > 1:
                cells[idx] -= 1
                remainder += 1
    z_edges = np.concatenate(([-1.0], -1.0 + 2.0 * np.cumsum(cells) / n_bins))
    z_edges[-1] = 1.0
    offsets = np.concatenate(([0], np.cumsum(cells)[:-1]))
    return z_edges, cells, offsets


def solid_angle(dirs: np.ndarray, n_bins: int) -> float:
    """Solid angle (sr) covered by a set of unit directions."""
    dirs = np.asarray(dirs, dtype=float)
    validate_directions(dirs)
    z_edges, cells, offsets = sphere_partition(n_bins)
    z = np.clip(dirs[:, 2], -1.0, 1.0)
    ring = np.clip(np.searchsorted(z_edges, z, side="right") - 1, 0, len(cells) - 1)
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])  # [-pi, pi]
    frac = (phi + math.pi) / (2.0 * math.pi)
    col = np.minimum((frac * cells[ring]).astype(int), cells[ring] - 1)
    occupied = np.count_nonzero(np.bincount(offsets[ring] + col, minlength=n_bins))
    return occupied * FULL_SPHERE / n_bins


def check_band_limits(azimuth_span: float, elev_min: float,
                      elev_max: float) -> None:
    """Reject an azimuth-by-elevation band outside the sphere (degrees; NaN fails)."""
    if not 0 <= azimuth_span <= 360:
        raise InputError("azimuth_span must be within [0, 360]")
    if not -90 <= elev_min <= elev_max <= 90:
        raise InputError("elevation range must satisfy -90 <= min <= max <= 90")


def check_cap_half_angle(half_angle: float) -> None:
    """Reject a cap half-angle outside [0, 180] degrees (NaN fails)."""
    if not 0 <= half_angle <= 180:
        raise InputError("half_angle must be within [0, 180]")


def workspace_from_limits(azimuth_span: float, elev_min: float,
                          elev_max: float) -> float:
    """Analytic solid angle of a full-azimuth-by-elevation band (degrees in)."""
    check_band_limits(azimuth_span, elev_min, elev_max)
    return math.radians(azimuth_span) * (
        math.sin(math.radians(elev_max)) - math.sin(math.radians(elev_min)))


def spherical_cap_area(half_angle: float) -> float:
    """Analytic solid angle of a cap of the given half-angle (deg)."""
    check_cap_half_angle(half_angle)
    return 2.0 * math.pi * (1.0 - math.cos(math.radians(half_angle)))


def reachable_keys(layout: KeyboardLayout, geometry: FingerGeometry,
                   mount: MountPose, calib: CalibrationSet,
                   axis: MotorAxis) -> list[Key]:
    """Keys whose centers the calibrated horizontal sweep can target."""
    cpd = counts_per_output_rev(axis) / 360.0
    bounds = sorted((mount.heading + calib.enc_h_min / cpd,
                     mount.heading + calib.enc_h_max / cpd))
    keys = []
    for key in layout.keys:
        try:
            theta = theta_for_key(key.center_x, mount, geometry)
        except ReachError:
            continue
        if bounds[0] <= theta <= bounds[1]:
            keys.append(key)
    return keys


def range_increase(mount: MountPose, geometry: FingerGeometry,
                   calib: CalibrationSet, layout: KeyboardLayout,
                   axis: MotorAxis, pinkie_reach_x: float) -> int:
    """Whole notes playable beyond the pinkie's natural reach.

    Counts the white keys whose centers lie to the right of the pinkie
    reach and inside the calibrated horizontal sweep.
    """
    return sum(1 for key in reachable_keys(layout, geometry, mount, calib, axis)
               if key.color == "white" and key.center_x > pinkie_reach_x)


@dataclass(frozen=True)
class LatencyStats:
    mean: float
    stddev: float
    max: float
    count: int
    over_budget: bool


def latency_stats(delays_ms) -> LatencyStats:
    """Sample statistics over intention-to-action delays (ms)."""
    delays = [float(d) for d in delays_ms]
    if not delays:
        raise InputError("no latency records")
    mean = sum(delays) / len(delays)
    variance = sum((d - mean) ** 2 for d in delays) / len(delays)
    return LatencyStats(mean=mean, stddev=math.sqrt(variance), max=max(delays),
                        count=len(delays), over_budget=mean > LATENCY_BUDGET_MS)


@dataclass(frozen=True)
class BudgetReport:
    measured_mean_ms: float
    latency_pass: bool
    configured_mass_g: float
    mass_pass: bool
    torque_required_nm: float
    torque_margin: float
    torque_pass: bool

    @property
    def all_pass(self) -> bool:
        return self.latency_pass and self.mass_pass and self.torque_pass

    def kv(self) -> dict:
        return {
            "latency_budget_ms": LATENCY_BUDGET_MS,
            "latency_measured_ms": round(self.measured_mean_ms, 3),
            "latency_pass": int(self.latency_pass),
            "mass_budget_g": MASS_BUDGET_G,
            "mass_configured_g": self.configured_mass_g,
            "mass_pass": int(self.mass_pass),
            "torque_required_nm": round(self.torque_required_nm, 6),
            "torque_margin": round(self.torque_margin, 4),
            "torque_pass": int(self.torque_pass),
        }

    def lines(self) -> list[str]:
        def mark(ok: bool) -> str:
            return "pass" if ok else "FAIL"
        return [
            f"latency: {self.measured_mean_ms:.1f} ms vs {LATENCY_BUDGET_MS:.0f} ms "
            f"budget -> {mark(self.latency_pass)}",
            f"mass:    {self.configured_mass_g:.0f} g vs {MASS_BUDGET_G:.0f} g "
            f"budget -> {mark(self.mass_pass)}",
            f"torque:  margin {self.torque_margin:.2f} at {self.torque_required_nm * 1000:.2f} "
            f"mN*m required -> {mark(self.torque_pass)}",
        ]


def budget_check(config, measured_latency_ms: float | None = None) -> BudgetReport:
    """Evaluate the three design budgets against a configuration.

    When no measured latency is supplied the configured stage delays are
    summed, which is the designed end-to-end latency.
    """
    layout = config.layout
    geometry = config.geometry
    axis = config.axis
    if measured_latency_ms is None:
        measured = config.simulation.latency.total
    else:
        measured = measured_latency_ms
    required = required_torque(layout.press_force, 0.0, geometry)
    margin = torque_margin(required, axis)
    mass = config.device_mass_g
    return BudgetReport(
        measured_mean_ms=measured,
        latency_pass=measured <= LATENCY_BUDGET_MS,
        configured_mass_g=mass,
        mass_pass=mass <= MASS_BUDGET_G,
        torque_required_nm=required,
        torque_margin=margin,
        torque_pass=margin >= 1.0,
    )
