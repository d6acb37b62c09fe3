"""Global configuration: defaults plus a sectioned key = value file loader.

The file format is INI-style. Any key left out keeps its default; unknown
sections or keys are rejected so fixture files stay honest. Invariant
violations surface as ConfigurationError naming the offending key.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .control import ControlParams
from .engine import LatencyConfig, SimulationConfig
from .errors import ConfigurationError
from .kinematics import FingerGeometry, MountPose
from .piano import KeyboardLayout
from .plant import MotorAxis
from .sensors import AccelerometerModel, DividerConfig, FlexSensorModel


@dataclass(frozen=True)
class GlobalConfig:
    layout: KeyboardLayout = field(default_factory=KeyboardLayout)
    flex: FlexSensorModel = field(default_factory=FlexSensorModel)
    divider: DividerConfig = field(default_factory=DividerConfig)
    accel: AccelerometerModel = field(default_factory=AccelerometerModel)
    geometry: FingerGeometry = field(default_factory=FingerGeometry)
    mount: MountPose = field(default_factory=MountPose)
    axis: MotorAxis = field(default_factory=MotorAxis)
    control: ControlParams = field(default_factory=ControlParams)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    device_mass_g: float = 310.0        # declared bill-of-materials mass
    pinkie_reach_x: float = 580.0       # mm, rightmost point of the natural hand span
    reach_near_x: float = 599.25        # mm, calibrated closest-note center
    reach_far_x: float = 669.75         # mm, calibrated furthest-note center
    press_overtravel_deg: float = 1.2   # press-axis margin past the full-press pose

    def __post_init__(self):
        if self.device_mass_g <= 0:
            raise ConfigurationError("mass_g must be positive")
        if self.press_overtravel_deg < 0:
            raise ConfigurationError("press_overtravel_deg must be non-negative")


def default_config() -> GlobalConfig:
    return GlobalConfig()


def _finite_float(raw: str) -> float:
    """Parse a float, rejecting NaN and infinities like unparsable text."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


_FLOAT = _finite_float
_INT = int
_STR = str

# section -> key -> converter
_SCHEMA = {
    "layout": {
        "n_keys": _INT, "white_width": _FLOAT, "black_width": _FLOAT,
        "key_travel": _FLOAT, "press_force": _FLOAT,
        "black_zone_depth": _FLOAT, "origin_x": _FLOAT,
    },
    "sensors": {
        "flex_r_flat": _FLOAT, "flex_r_bent": _FLOAT, "flex_angle_range": _FLOAT,
        "divider_vcc": _FLOAT, "divider_r_fixed": _FLOAT,
        "adc_bits": _INT, "adc_v_ref": _FLOAT,
        "accel_sensitivity": _FLOAT, "accel_zero_g_bias": _FLOAT,
    },
    "geometry": {
        "l0_knuckle": _FLOAT, "l1_proximal": _FLOAT, "l2_distal": _FLOAT,
        "bend_angle": _FLOAT, "theta_h_range": _FLOAT,
        "theta_v_min": _FLOAT, "theta_v_max": _FLOAT,
    },
    "mount": {
        "base_x": _FLOAT, "base_z": _FLOAT, "heading": _FLOAT, "depth": _FLOAT,
        "pinkie_reach_x": _FLOAT, "reach_near_x": _FLOAT, "reach_far_x": _FLOAT,
        "press_overtravel_deg": _FLOAT, "mass_g": _FLOAT,
    },
    "axes": {
        "gear_ratio": _INT, "encoder_cpr": _INT, "quadrature": _INT,
        "v_max": _FLOAT, "a_max": _FLOAT, "nominal_torque": _FLOAT,
    },
    "control": {
        "kp_h": _FLOAT, "v_cap": _FLOAT, "kv_z": _FLOAT, "v_floor": _FLOAT,
        "z_threshold": _INT, "z_refractory_ms": _FLOAT,
    },
    "latency": {
        "sensor_sample": _FLOAT, "adc_transport": _FLOAT, "compute": _FLOAT,
        "command_transport": _FLOAT, "controller_process": _FLOAT,
        "mech_motion": _FLOAT,
    },
    "simulation": {
        "timestep": _FLOAT, "seed": _INT, "mode": _STR, "settle_tail_ms": _FLOAT,
    },
}


def _parse_sections(path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    values: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        keys = _SCHEMA[section]
        out = {}
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigurationError(f"unknown config key {section}.{key}")
            try:
                out[key] = keys[key](raw)
            except ValueError:
                raise ConfigurationError(
                    f"config key {section}.{key}: cannot parse {raw!r}") from None
        values[section] = out
    return values


def _take(section: dict, mapping: dict) -> dict:
    """Rename config keys to constructor kwargs, dropping absent ones."""
    return {kwarg: section[key] for key, kwarg in mapping.items() if key in section}


def _build(section: str, ctor, kwargs: dict):
    try:
        return ctor(**kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"[{section}] {exc}") from None


def load_config(path) -> GlobalConfig:
    """Load a configuration file on top of the defaults."""
    values = _parse_sections(path)
    layout = values.get("layout", {})
    sensors = values.get("sensors", {})
    geometry = values.get("geometry", {})
    mount = values.get("mount", {})
    axes = values.get("axes", {})
    ctrl = values.get("control", {})
    latency = values.get("latency", {})
    sim = values.get("simulation", {})

    identity = lambda keys: {k: k for k in keys}
    sim_kwargs = dict(sim)
    if latency:
        sim_kwargs["latency"] = _build("latency", LatencyConfig, latency)
    return _build("mount", GlobalConfig, dict(
        layout=_build("layout", KeyboardLayout, layout),
        flex=_build("sensors", FlexSensorModel, _take(sensors, {
            "flex_r_flat": "r_flat", "flex_r_bent": "r_bent",
            "flex_angle_range": "angle_range"})),
        divider=_build("sensors", DividerConfig, _take(sensors, {
            "divider_vcc": "vcc", "divider_r_fixed": "r_fixed",
            "adc_bits": "adc_bits", "adc_v_ref": "v_ref"})),
        accel=_build("sensors", AccelerometerModel, _take(sensors, {
            "accel_sensitivity": "sensitivity", "accel_zero_g_bias": "zero_g_bias"})),
        geometry=_build("geometry", FingerGeometry, geometry),
        mount=_build("mount", MountPose, _take(mount, identity(
            ("base_x", "base_z", "heading", "depth")))),
        axis=_build("axes", MotorAxis, axes),
        control=_build("control", ControlParams, ctrl),
        simulation=_build("simulation", SimulationConfig, sim_kwargs),
        **_take(mount, {"mass_g": "device_mass_g", **identity((
            "pinkie_reach_x", "reach_near_x", "reach_far_x",
            "press_overtravel_deg"))}),
    ))
