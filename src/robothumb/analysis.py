"""Workspace, latency and design-budget analysis over simulation outputs.

The angular end-point workspace is estimated by equal-area binning of the
unit sphere: latitude rings are cut so that every cell covers exactly
4*pi/n_bins steradians, the occupied cells are counted, and the workspace
is occupied * 4*pi/n_bins. This handles arbitrarily shaped (non-convex)
direction sets, unlike a spherical hull. A direction file is read a chunk at
a time through ``sensors.writer_rows``, or by ``np.loadtxt`` in other layouts.

A key is reachable exactly when its ``control.aimed_counts`` lies between
the sorted horizontal anchors, the test ``synth.flex_code_for_key`` applies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .control import aimed_counts
from .errors import InputError, ReachError
from .kinematics import required_torque
from .piano import Key
from .plant import torque_margin
from .sensors import BLOCK_ROWS, OtherLayout, blocks, fixed_point_rows, writer_rows

FULL_SPHERE = 4.0 * math.pi
LATENCY_BUDGET_MS = 80.0
MASS_BUDGET_G = 350.0
DIRECTION_NORM_TOL = 1e-9
# sphere_partition rejects more bins before allocating anything, which
# keeps the occupancy array of solid_angle within 100 MB
MAX_BINS = 100_000_000
MAX_DIRECTIONS = 100_000_000  # most rows of a sweep, checked before its file is opened


def load_directions(path) -> np.ndarray:
    """Read an ``x,y,z`` CSV into an (n, 3) array.

    A file in the layout that ``save_directions`` writes for values in
    [-1, 1] is parsed by numpy (``_unit_blocks``); any other text goes to
    ``np.loadtxt``. Both give the same floats. Only the file's header and
    shape are checked here; ``solid_angle`` checks that the rows are unit
    vectors.
    """
    try:
        data = np.concatenate([np.empty((0, 3)), *_unit_blocks(path)])
    except OtherLayout:
        data = _loadtxt_directions(path)
    if data.size == 0:
        raise InputError(f"{path}: direction set is empty")
    return data


def _loadtxt_directions(path) -> np.ndarray:
    """The rows of any ``x,y,z`` text as ``np.loadtxt`` reads them; a set with
    rows of other than 3 columns is refused, an empty one is returned."""
    try:
        with open(path, encoding="utf-8") as f, warnings.catch_warnings():
            if f.readline().rstrip("\n") != "x,y,z":
                raise InputError(f"{path}: first line must be the header x,y,z")
            # a header-only file is reported as an empty set by the caller
            warnings.simplefilter("ignore", UserWarning)
            # the open file, not the path: a pipe cannot be read again
            data = np.loadtxt(f, delimiter=",", skiprows=0, ndmin=2, encoding="utf-8")
    except ValueError as exc:  # unparsable text, undecodable bytes included
        raise InputError(f"{path}: {exc}") from None
    if data.size and data.shape[1] != 3:
        raise InputError(f"{path}: expected 3 columns x,y,z")
    return data


# a value of the unit layout, sign aside: whole digit, point, 12 decimals and
# its separator; three make a row
UNIT_VALUE_BYTES = 15
UNIT_ROW_BYTES = 3 * UNIT_VALUE_BYTES
_ROW_SEPARATORS = np.frombuffer(b",,\n", np.uint8)


def _unit_blocks(path):
    """The rows of a file in the writer's unit layout, one (k, 3) block per
    chunk read; raises ``OtherLayout`` where the text leaves that layout.

    That layout is the header ``x,y,z`` and rows of three values
    ``-?d.dddddddddddd`` split by ``,``, each row ended by LF, read by
    ``writer_rows`` in chunks of about ``BLOCK_ROWS`` rows; it leaves a pipe
    unread, for ``np.loadtxt`` to read once.
    """
    with open(path, "rb") as f:
        for text in writer_rows(f, b"x,y,z\n", BLOCK_ROWS * UNIT_ROW_BYTES):
            yield _unit_values(text)


def _unit_values(text: memoryview) -> np.ndarray:
    """The (k, 3) rows of whole rows of the unit layout; raises
    ``OtherLayout`` if any byte does not fit the layout."""
    signs = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("-"))
    slots = np.frombuffer(text.tobytes().replace(b"-", b""), np.uint8)
    if len(slots) % UNIT_ROW_BYTES:
        raise OtherLayout
    slots = slots.reshape(-1, UNIT_VALUE_BYTES)
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
        raise OtherLayout
    # four decimals to a little-endian word, first in the low byte: pair the
    # digits, then the pairs
    words = decimals.view("<u4")
    words = (words * 10 + (words >> 8)) & 0x00FF00FF
    words = (words * 100 + (words >> 16)) & 0xFFFF
    # counts of 1e-12 below 10**13 < 2**53 add up exactly in float64, and
    # 1e12 is exact, so the quotient is the correctly rounded decimal
    values = words @ np.array([1e8, 1e4, 1.0])
    values += whole * 1e12
    values /= 1e12
    values[starts // UNIT_VALUE_BYTES] *= -1.0  # -0.000000000000 is -0.0
    return values.reshape(-1, 3)


def save_directions(dirs, path) -> None:
    """Write an ``x,y,z`` CSV, each row's text that of ``"%.12f"``, each block
    of rows spelled by ``fixed_point_rows``. ``dirs`` is an (n, 3) array (or
    list), or an iterable of (k, 3) blocks such as a ``synth.DirectionSweep``,
    whose blocks are written as they are drawn."""
    if isinstance(dirs, (np.ndarray, list, tuple)):
        dirs = np.asarray(dirs, dtype=np.float64)
        if dirs.ndim != 2 or dirs.shape[1] != 3:
            raise InputError(f"directions must be an (n, 3) array, not shape {dirs.shape}")
        dirs = blocks(dirs)
    scratch = {}
    with open(path, "wb") as f:
        f.write(b"x,y,z\n")
        for block in dirs:
            f.write(fixed_point_rows(block.T, (12, 12, 12), (b",", b",", b"\n"), scratch))


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
    """Solid angle (sr) covered by an (n, 3) array of unit directions."""
    return _binned(blocks(np.asarray(dirs, dtype=float)), n_bins)[0]


def file_solid_angle(path, n_bins: int) -> tuple[float, int]:
    """Solid angle (sr) of the directions of an ``x,y,z`` CSV and their count,
    each block binned as ``_unit_blocks`` reads it. Where the text leaves the
    writer's unit layout, what was binned is dropped and the rows as
    ``np.loadtxt`` reads them are binned instead. Errors name the file."""
    try:
        return _binned(_unit_blocks(path), n_bins, f"{path}: ")
    except OtherLayout:
        return _binned(blocks(_loadtxt_directions(path)), n_bins, f"{path}: ")


def _binned(parts, n_bins: int, where: str = "") -> tuple[float, int]:
    """The solid angle of the rows of blocks ``parts`` and their count.

    ``n_bins`` is checked before the first block is asked for. Every row's
    norm must be within ``DIRECTION_NORM_TOL`` of 1; the error, prefixed by
    ``where``, gives the largest deviation in the whole set, so every block
    is read."""
    cell_indices = _cell_lookup(n_bins)
    occupied = np.zeros(n_bins, dtype=bool)
    count = 0
    worst = 0.0
    for block in parts:
        count += len(block)
        # np.maximum keeps a NaN deviation, which the checks below reject
        worst = np.maximum(worst, _norm_deviation(block))
        if worst <= DIRECTION_NORM_TOL:  # else no use binning: the set is refused
            occupied[cell_indices(block)] = True
    if count == 0:
        raise InputError(f"{where}direction set is empty")
    if not worst <= DIRECTION_NORM_TOL:  # NaN fails too
        raise InputError(f"{where}direction norms deviate from 1 by up to {float(worst):.3e}")
    return np.count_nonzero(occupied) * FULL_SPHERE / n_bins, count


def _norm_deviation(block: np.ndarray) -> float:
    """The largest ``|norm - 1|`` of the rows of an (n, 3) block, NaN if any
    row's is; the squares are summed in ``np.linalg.norm``'s order, so the
    figure is the same to the bit."""
    s = block * block
    return np.abs(np.sqrt(s[:, 0] + s[:, 1] + s[:, 2]) - 1.0).max()


# cells of the uniform grid in z on which _cell_lookup tabulates the rings
RING_GRID = 2**15


def _cell_lookup(n_bins: int):
    """The function that gives, for an (n, 3) block of unit rows, the index
    of each row's cell in ``sphere_partition(n_bins)``, ring after ring.

    A row's ring is the last one whose lower edge is at or below its z, z
    clipped to [-1, 1]; z = 1 is in the last ring. A table over a uniform
    grid of ``RING_GRID`` cells in z bounds each row's ring from below, and
    ``spread`` passes step it up one ring while its z reaches the next edge:
    exactly the ring that a binary search of the edges gives. The rounding of
    a z to its grid cell can miss by one cell, so each cell's bound and
    spread are taken over its two neighbours as well.
    """
    z_edges, cells, offsets = sphere_partition(n_bins)
    last = len(cells) - 1
    grid = np.arange(-1, RING_GRID + 3) * (2.0 / RING_GRID) - 1.0  # exact in float64
    # the ring at the lower edge of each grid cell from -1 to RING_GRID + 2
    at = np.clip(np.searchsorted(z_edges, grid, side="right") - 1, 0, last)
    # cell RING_GRID holds z = 1 alone; 2 bytes a cell at MAX_BINS
    table = at[:RING_GRID + 1].astype(np.min_scalar_type(last))
    spread = int((at[3:] - at[:RING_GRID + 1]).max())
    above = np.append(z_edges[1:-1], np.inf)  # upper edges; z = 1 stays in the last ring

    def cell_indices(block: np.ndarray) -> np.ndarray:
        z = np.clip(block[:, 2], -1.0, 1.0)
        ring = table[((z + 1.0) * (RING_GRID / 2)).astype(np.intp)].astype(np.intp)
        for _ in range(spread):
            ring += z >= above[ring]
        n = cells[ring]
        phi = np.arctan2(block[:, 1], block[:, 0])  # [-pi, pi]
        col = np.minimum(((phi + math.pi) / (2.0 * math.pi) * n).astype(int), n - 1)
        return offsets[ring] + col

    return cell_indices


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


def reachable_keys(config, enc_h_min: int, enc_h_max: int) -> list[Key]:
    """Keys whose centers the horizontal sweep calibrated on the encoder
    anchors ``enc_h_min`` and ``enc_h_max`` can target: those whose
    ``control.aimed_counts`` lies between the sorted anchors."""
    lo, hi = sorted((enc_h_min, enc_h_max))
    keys = []
    for key in config.layout.keys:
        try:
            if lo <= aimed_counts(config, key.center_x) <= hi:
                keys.append(key)
        except ReachError:  # beyond the hovering tip's circle
            pass
    return keys


def range_increase(config, enc_h_min: int, enc_h_max: int) -> int:
    """Whole notes playable beyond the pinkie's natural reach.

    Counts the white keys whose centers lie to the right of the pinkie
    reach and inside the calibrated horizontal sweep.
    """
    return sum(1 for key in reachable_keys(config, enc_h_min, enc_h_max)
               if key.color == "white" and key.center_x > config.mount.pinkie_reach_x)


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
    mass = config.mount.mass_g
    return BudgetReport(
        measured_mean_ms=measured,
        latency_pass=measured <= LATENCY_BUDGET_MS,
        configured_mass_g=mass,
        mass_pass=mass <= MASS_BUDGET_G,
        torque_required_nm=required,
        torque_margin=margin,
        torque_pass=margin >= 1.0,
    )
