"""Workspace, latency and design-budget analysis over simulation outputs.

The angular end-point workspace is estimated by equal-area binning of the
unit sphere: latitude rings are cut so that every cell covers exactly
4*pi/n_bins steradians, the occupied cells are counted, and the workspace
is occupied * 4*pi/n_bins. This handles arbitrarily shaped (non-convex)
direction sets, unlike a spherical hull.
"""

from __future__ import annotations

import functools
import math
import os
import stat
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
# rows per block in save_directions and solid_angle: each block's
# temporaries stay small whatever the size of the set. At 65,536 rows a
# block's floats, tuple and text took about 15 MB and raised the peak
# memory of a 600k-row sweep by about 5 MiB; 8,192 rows take about 2 MB and
# write as fast.
DIRECTION_BLOCK_ROWS = 8_192
# sphere_partition rejects more bins before allocating anything, which
# keeps the occupancy array of solid_angle within 100 MB
MAX_BINS = 100_000_000


def load_directions(path) -> np.ndarray:
    """Read an ``x,y,z`` CSV into an (n, 3) array.

    A file in the layout that ``save_directions`` writes for values in
    [-1, 1] is parsed by numpy; any other text goes to ``np.loadtxt``.
    Both give the same floats. Only the file's header and shape are
    checked here; ``solid_angle`` checks that the rows are unit vectors.
    """
    data = _read_unit_layout(path)
    if data is None:
        data = _loadtxt_directions(path)
    if data.size == 0:
        raise InputError(f"{path}: direction set is empty")
    if data.shape[1] != 3:
        raise InputError(f"{path}: expected 3 columns x,y,z")
    return data


def _loadtxt_directions(path) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as f, warnings.catch_warnings():
            if f.readline().rstrip("\n") != "x,y,z":
                raise InputError(f"{path}: first line must be the header x,y,z")
            # a header-only file is reported as an empty set by the caller
            warnings.simplefilter("ignore", UserWarning)
            # the open file, not the path: a pipe cannot be read again
            return np.loadtxt(f, delimiter=",", skiprows=0, ndmin=2,
                              encoding="utf-8")
    except ValueError as exc:  # unparsable text, undecodable bytes included
        raise InputError(f"{path}: {exc}") from None


# a value of the unit layout, sign aside: whole digit, point, 12 decimals and
# its separator; three make a row
UNIT_VALUE_BYTES = 15
UNIT_ROW_BYTES = 3 * UNIT_VALUE_BYTES
_ROW_SEPARATORS = np.frombuffer(b",,\n", np.uint8)


def _read_unit_layout(path) -> np.ndarray | None:
    """The rows of a file in the writer's unit layout, or None for other text.

    That layout is the header ``x,y,z`` and rows of three values
    ``-?d.dddddddddddd`` split by ``,``, each row ended by LF. The body is
    read in chunks of about ``DIRECTION_BLOCK_ROWS`` rows, each cut at its
    last LF. Rows fill one array sized for the most rows the file can hold;
    pages past the last row are never touched.
    """
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        # a pipe has no size, and what is read from it here np.loadtxt cannot
        # read again
        if not stat.S_ISREG(info.st_mode) or f.readline(6) != b"x,y,z\n":
            return None
        out = np.empty(info.st_size // UNIT_ROW_BYTES * 3)
        filled = 0
        rest = b""
        while chunk := f.read(DIRECTION_BLOCK_ROWS * UNIT_ROW_BYTES):
            chunk = rest + chunk
            cut = chunk.rfind(b"\n") + 1
            count = _unit_values(chunk[:cut], out[filled:]) if cut else None
            if count is None:
                return None
            filled += count
            rest = chunk[cut:]
    if rest:  # a last row without LF
        return None
    return out[:filled].reshape(-1, 3)


def _unit_values(text: bytes, out: np.ndarray) -> int | None:
    """Parse whole rows of the unit layout into ``out``: the count of values,
    or None if any byte does not fit the layout."""
    signs = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("-"))
    slots = np.frombuffer(text.replace(b"-", b""), np.uint8)
    if len(slots) % UNIT_ROW_BYTES:
        return None
    slots = slots.reshape(-1, UNIT_VALUE_BYTES)
    values = out[:len(slots)]
    if len(values) < len(slots):  # the file grew while it was read
        return None
    whole = slots[:, 0] - ord("0")  # uint8: a byte below "0" wraps past 9
    decimals = slots[:, 2:14] - ord("0")
    # where each sign byte would stand without the sign bytes before it: the
    # start of a value, and no two at one start
    starts = signs - np.arange(len(signs))
    if not ((slots[:, 1] == ord(".")).all()
            and (slots[:, 14].reshape(-1, 3) == _ROW_SEPARATORS).all()
            and whole.max() <= 9 and decimals.max() <= 9
            and not (starts % UNIT_VALUE_BYTES).any()
            and (np.diff(starts) > 0).all()):
        return None
    # four decimals to a little-endian word, first in the low byte: pair the
    # digits, then the pairs
    words = decimals.view("<u4")
    words = (words * 10 + (words >> 8)) & 0x00FF00FF
    words = (words * 100 + (words >> 16)) & 0xFFFF
    # counts of 1e-12 below 10**13 < 2**53 add up exactly in float64, and
    # 1e12 is exact, so the quotient is the correctly rounded decimal
    np.matmul(words, np.array([1e8, 1e4, 1.0]), out=values)
    values += whole * 1e12
    values /= 1e12
    values[starts // UNIT_VALUE_BYTES] *= -1.0  # -0.000000000000 is -0.0
    return len(slots)


def _blocks(dirs: np.ndarray):
    for start in range(0, len(dirs), DIRECTION_BLOCK_ROWS):
        yield dirs[start:start + DIRECTION_BLOCK_ROWS]


def validate_directions(dirs: np.ndarray) -> None:
    if len(dirs) == 0:
        raise InputError("direction set is empty")
    worst = 0.0
    for block in _blocks(dirs):
        # np.maximum keeps a NaN deviation, which the check below rejects
        worst = np.maximum(worst, np.abs(np.linalg.norm(block, axis=1) - 1.0).max())
    worst = float(worst)
    if not worst <= DIRECTION_NORM_TOL:  # NaN fails too
        raise InputError(f"direction norms deviate from 1 by up to {worst:.3e}")


def save_directions(dirs: np.ndarray, path) -> None:
    """Write an ``x,y,z`` CSV, each row's text that of ``"%.12f"``.

    A block of rows whose values all lie in [-1, 1] is spelled by numpy
    from each value's count of 1e-12; any other block is formatted by one
    ``%`` operation.
    """
    dirs = np.asarray(dirs, dtype=np.float64)
    if dirs.ndim != 2 or dirs.shape[1] != 3:
        raise InputError(f"directions must be an (n, 3) array, not shape {dirs.shape}")
    with open(path, "wb") as f:
        f.write(b"x,y,z\n")
        for block in _blocks(dirs):
            if (np.abs(block) <= 1.0).all():  # NaN fails too
                f.write(_unit_block_text(block.ravel()))
            else:
                f.write((("%.12f,%.12f,%.12f\n" * len(block))
                         % tuple(block.ravel().tolist())).encode())


@functools.cache
def _digit_groups() -> np.ndarray:
    """Row ``i`` holds the four ASCII digits of ``i``, for 0 <= i < 10,000."""
    digits = "".join(map("{:04d}".format, range(10_000))).encode()
    return np.frombuffer(digits, np.uint8).reshape(10_000, 4)


def _unit_block_text(values: np.ndarray) -> bytes:
    """``"%.12f"`` of each of a block's values in [-1, 1], three to a row."""
    scaled = np.abs(values) * 1e12  # within 2**-14 of the exact product
    counts = np.rint(scaled)
    # within 1e-3 of a rounding tie, the exact value decides: ask CPython
    for i in np.flatnonzero(~(np.abs(scaled - counts) < 0.499)).tolist():
        counts[i] = int(("%.12f" % abs(values[i])).replace(".", ""))
    counts = counts.astype(np.int64)
    # one 16-byte slot per value: sign, whole digit, point, 12 decimals, separator
    text = np.tile(np.frombuffer(b"-0.000000000000,", np.uint8), (len(values), 1))
    text[2::3, 15] = ord("\n")
    for start in (11, 7, 3):
        counts, group = np.divmod(counts, 10_000)
        text[:, start:start + 4] = _digit_groups().take(group, axis=0)
    text[:, 1] += counts.astype(np.uint8)
    keep = np.ones(text.shape, bool)
    keep[:, 0] = np.signbit(values)  # "%.12f" signs -0.0 and tiny negatives
    return text[keep].tobytes()


def sphere_partition(n_bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut the sphere into exactly ``n_bins`` equal-area cells.

    Latitude rings get cell counts apportioned to the ring circumference
    (largest-remainder rounding), then each ring's z extent is set to
    2*cells/n_bins so that every cell spans the same z-by-azimuth area,
    4*pi/n_bins. Returns (z_edges, cells_per_ring, ring_offsets).
    """
    if not 100 <= n_bins <= MAX_BINS:
        raise InputError(f"n_bins must be in [100, {MAX_BINS}]")
    n_rings = int(round(math.sqrt(math.pi * n_bins) / 2.0))
    centers = (np.arange(n_rings) + 0.5) * math.pi / n_rings
    weights = np.sin(centers)
    ideal = weights / weights.sum() * n_bins
    # the polar rings' ideal share is about pi cells, so every floor is >= 1
    # and the floors sum to at most n_bins
    cells = np.floor(ideal).astype(int)
    order = np.argsort(-(ideal - np.floor(ideal)))
    cells[order[:n_bins - int(cells.sum())]] += 1
    z_edges = np.concatenate(([-1.0], -1.0 + 2.0 * np.cumsum(cells) / n_bins))
    z_edges[-1] = 1.0
    offsets = np.concatenate(([0], np.cumsum(cells)[:-1]))
    return z_edges, cells, offsets


def solid_angle(dirs: np.ndarray, n_bins: int) -> float:
    """Solid angle (sr) covered by a set of unit directions."""
    dirs = np.asarray(dirs, dtype=float)
    validate_directions(dirs)
    z_edges, cells, offsets = sphere_partition(n_bins)
    occupied = np.zeros(n_bins, dtype=bool)
    for block in _blocks(dirs):
        z = np.clip(block[:, 2], -1.0, 1.0)
        ring = np.clip(np.searchsorted(z_edges, z, side="right") - 1, 0, len(cells) - 1)
        phi = np.arctan2(block[:, 1], block[:, 0])  # [-pi, pi]
        frac = (phi + math.pi) / (2.0 * math.pi)
        col = np.minimum((frac * cells[ring]).astype(int), cells[ring] - 1)
        occupied[offsets[ring] + col] = True
    return np.count_nonzero(occupied) * FULL_SPHERE / n_bins


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
