"""Calibration procedure and the two control laws driving the axes.

Calibration anchors both linear maps: thumb flex codes to horizontal
encoder counts (closest to furthest note) and foot Y-accelerometer codes
to vertical encoder counts (hover to fully pressed). The horizontal
profile velocity follows a proportional law in the remaining distance,
the vertical profile velocity follows the foot's Z acceleration so a
faster lift presses harder. Both laws map whole columns to ``array`` columns.

``aimed_counts`` is the package's one aim, from a key-line position to
horizontal counts by the one count rule ``plant.encoder_counts``; synth's
anchors and presses and the reach test of ``analysis`` all take it.

``POSES`` names the six calibration poses once, each trace label with the
column it anchors and the ``CalibrationSet`` field it fills; one rule,
``whole_values``, reads the encoder anchors and a calibration file.
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (CalibrationIncompleteError, ConfigurationError,
                     DegenerateCalibrationError, require)
from .plant import (MotorAxis, counts_per_output_rev, encoder_counts, round_half_away,
                    round_half_away_column)
from .kinematics import FingerGeometry, theta_for_key
from .sensors import SensorTrace

# the six calibration poses: trace label -> (the column its samples anchor,
# the CalibrationSet field that holds their mean code)
POSES = {"flex_min": ("flex_adc", "flex_min"), "flex_max": ("flex_adc", "flex_max"),
         "foot_down": ("acc_y_adc", "y_min"), "foot_up": ("acc_y_adc", "y_max"),
         "z_rest": ("acc_z_adc", "z_min"), "z_active": ("acc_z_adc", "z_max")}
# encoder anchors supplied alongside the trace
ANCHOR_NAMES = ("enc_h_min", "enc_h_max", "enc_hover", "enc_pressed")


@dataclass(frozen=True)
class CalibrationSet:
    """Min/max anchors defining both sensor-to-position maps."""

    flex_min: int      # flex ADC code, thumb straight
    flex_max: int      # flex ADC code, thumb fully flexed
    enc_h_min: int     # horizontal counts at the closest note
    enc_h_max: int     # horizontal counts at the furthest note
    y_min: int         # Y ADC code, foot on the ground
    y_max: int         # Y ADC code, foot lifted
    z_min: int         # Z ADC code, foot stationary
    z_max: int         # Z ADC code, foot lifting briskly
    enc_hover: int     # vertical counts hovering above the keys
    enc_pressed: int   # vertical counts at a full key press

    def __post_init__(self):
        for lo, hi in (("flex_min", "flex_max"), ("y_min", "y_max"),
                       ("z_min", "z_max"), ("enc_hover", "enc_pressed")):
            if getattr(self, lo) == getattr(self, hi):
                raise DegenerateCalibrationError(f"{lo} equals {hi}")


@dataclass(frozen=True)
class ControlParams:
    kp_h: float = 0.3            # (deg/s) per count of horizontal distance
    v_cap: float = 400.0         # deg/s ceiling for both profile velocities
    kv_z: float = 442.0          # deg/s per unit of normalized Z activity
    v_floor: float = 5.0         # deg/s floor so vertical motion always completes
    z_threshold: int = 80        # codes above z_min that signal an intention
    z_refractory_ms: float = 250.0  # ignore further crossings for one press cycle

    def __post_init__(self):
        require(self, "positive", "kp_h", "v_cap", "kv_z")
        if not 0 < self.v_floor <= self.v_cap:
            raise ConfigurationError("v_floor must be in (0, v_cap]")
        require(self, "positive", "z_threshold")
        require(self, "non-negative", "z_refractory_ms")


def linear_map(s, s_min: float, s_max: float, p_min: float, p_max: float):
    """Affine map taking s_min -> p_min and s_max -> p_max, clamped to the p
    range; ``s`` is a number or a numpy array, mapped element by element."""
    if s_min == s_max:
        raise DegenerateCalibrationError("degenerate map: s_min equals s_max")
    p = p_min + (s - s_min) * (p_max - p_min) / (s_max - s_min)
    lo, hi = min(p_min, p_max), max(p_min, p_max)
    return np.clip(p, lo, hi)


def aimed_counts(config: "GlobalConfig", x: float) -> int:
    """Horizontal encoder counts that steer the hovering tip over key-line
    position ``x``: ``plant.encoder_counts`` of the ``theta_for_key`` angle
    from the mount heading. A key is reachable exactly when this count of its
    center lies between the sorted horizontal anchors."""
    theta = theta_for_key(x, config.mount, config.geometry)
    return encoder_counts(theta - config.mount.heading, config.axis)


def calibrate_from_trace(trace: SensorTrace, anchors: dict) -> CalibrationSet:
    """Build a calibration from labeled trace segments plus encoder anchors.

    Each sensor anchor is the mean of its labeled samples rounded to the
    nearest code; segment means reject single-sample noise. ``anchors``
    must supply the four encoder positions recorded when the finger was
    driven to its reference poses.
    """
    labels = np.array(trace.labels, dtype=object)  # compared as Python str
    means = {}
    for label, (column, field) in POSES.items():
        codes = trace.samples[column][labels == label].tolist() if trace.labels else []
        if not codes:
            raise CalibrationIncompleteError(label)
        means[field] = round_half_away(sum(codes) / len(codes))  # exact integer sum
    return CalibrationSet(**means, **whole_values(anchors, ANCHOR_NAMES))


def validate_anchor_ranges(anchors: dict, geometry: FingerGeometry,
                           axis: MotorAxis) -> None:
    """Check that the encoder anchors, by ``ANCHOR_NAMES``, fit inside the
    joint ranges."""
    cpd = counts_per_output_rev(axis) / 360.0
    h_half = geometry.theta_h_range / 2.0 * cpd
    for name in ("enc_h_min", "enc_h_max"):
        if abs(anchors[name]) > h_half:
            raise ConfigurationError(f"{name} outside the horizontal joint range")
    v_lo, v_hi = geometry.theta_v_min * cpd, geometry.theta_v_max * cpd
    for name in ("enc_hover", "enc_pressed"):
        if not v_lo - 0.5 <= anchors[name] <= v_hi + 0.5:
            raise ConfigurationError(f"{name} outside the vertical joint range")


def validate_calibration_ranges(calib: CalibrationSet, config: "GlobalConfig") -> None:
    """Check that a calibration's sensor anchors are codes of the configured
    ADC and its encoder anchors fit inside the joint ranges."""
    full_scale = config.sensors.full_scale
    for _, name in POSES.values():
        code = getattr(calib, name)
        if not 0 <= code <= full_scale:
            raise ConfigurationError(f"{name} = {code} outside the ADC range [0, {full_scale}]")
    validate_anchor_ranges(vars(calib), config.geometry, config.axis)


def horizontal_update(flex_adc: np.ndarray, calib: CalibrationSet) -> array:
    """Horizontal setpoints (counts) in an ``array('q')``, one per flex reading.

    The engine sends each with a profile velocity proportional to the
    distance left when it arrives, ``min(kp_h * |setpoint - encoder_count|,
    v_cap)``, so larger repositioning moves run faster.
    """
    return array("q", round_half_away_column(linear_map(
        flex_adc, calib.flex_min, calib.flex_max, calib.enc_h_min, calib.enc_h_max)).tobytes())


def vertical_update(acc_y_adc: np.ndarray, acc_z_adc: np.ndarray, calib: CalibrationSet,
                    params: ControlParams) -> tuple[array, array]:
    """Vertical ``array('q')`` setpoints (counts) and ``array('d')`` profile
    velocities (deg/s), one each per reading.

    Y places the finger between hover (foot down) and full press (foot
    lifted); Z sets how fast it gets there, with a floor so the motion
    always completes.
    """
    setpoints = round_half_away_column(linear_map(
        acc_y_adc, calib.y_min, calib.y_max, calib.enc_hover, calib.enc_pressed))
    z_norm = (acc_z_adc - calib.z_min) / (calib.z_max - calib.z_min)
    with np.errstate(invalid="ignore"):  # kv_z = inf at rest: inf * 0 is nan
        velocity = np.clip(params.kv_z * z_norm, params.v_floor, params.v_cap)
    return array("q", setpoints.tobytes()), array("d", velocity.tobytes())


def save_calibration(calib: CalibrationSet, path) -> None:
    """Write a calibration as one ``name = integer`` line per anchor."""
    write_kv_file(asdict(calib), path)


def load_calibration(path) -> CalibrationSet:
    names = [f.name for f in fields(CalibrationSet)]
    return CalibrationSet(**whole_values(read_kv_file(path, names), names))


def whole_values(values: dict, names) -> dict:
    """``values`` of each of ``names`` as an int, by name: every name must be
    present before any is converted, and NaN, infinities and fractions are
    rejected."""
    for name in names:
        if name not in values:
            raise CalibrationIncompleteError(name)
    whole = {}
    for name in names:
        value = float(values[name])
        if not value.is_integer():
            raise ConfigurationError(f"{name} = {value} is not a whole number")
        whole[name] = int(value)
    return whole


def read_kv_file(path, names=None) -> dict:
    """Parse a flat UTF-8 ``name = value`` text file into an ordered dict of
    floats; each name may appear once and, if ``names`` is given, must be
    one of them."""
    values = {}
    with open(path, "rb") as f:
        data = f.read()
    for lineno, raw in enumerate(data.splitlines(), start=1):  # LF, CRLF or CR
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from None
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'name = value'")
        name, _, value = line.partition("=")
        name = name.strip()
        if name in values:
            raise ConfigurationError(f"{path}:{lineno}: {name} given twice")
        if names is not None and name not in names:
            raise ConfigurationError(f"{path}:{lineno}: unknown name {name}")
        try:
            values[name] = float(value.strip())
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {name}: {exc}") from exc
    return values


def write_kv_file(values: dict, path) -> None:
    with open(path, "w") as f:
        for name, value in values.items():
            f.write(f"{name} = {value}\n")
