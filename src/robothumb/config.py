"""Global configuration: defaults plus a sectioned key = value file loader.

The file format is INI-style, read as UTF-8. Each key is a defaulted field
of a dataclass its section builds and takes that field's name, except the
``[sensors]`` and ``[mount]`` renames in ``_KEY_NAMES``. Any key left out
keeps its default; unknown sections or keys are rejected so fixture files
stay honest. Invariant violations surface as ConfigurationError naming the
offending key.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields

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


# section -> the constructors its keys set, one key per defaulted field
_SECTIONS = {
    "layout": (KeyboardLayout,),
    "sensors": (FlexSensorModel, DividerConfig, AccelerometerModel),
    "geometry": (FingerGeometry,),
    "mount": (MountPose, GlobalConfig),
    "axes": (MotorAxis,),
    "control": (ControlParams,),
    "latency": (LatencyConfig,),
    "simulation": (SimulationConfig,),
}
# the keys that are not their field's name: constructor -> {field: key}
_KEY_NAMES = {
    FlexSensorModel: {"r_flat": "flex_r_flat", "r_bent": "flex_r_bent",
                      "angle_range": "flex_angle_range"},
    DividerConfig: {"vcc": "divider_vcc", "r_fixed": "divider_r_fixed",
                    "v_ref": "adc_v_ref"},
    AccelerometerModel: {"sensitivity": "accel_sensitivity",
                         "zero_g_bias": "accel_zero_g_bias"},
    GlobalConfig: {"device_mass_g": "mass_g"},
}
# a key's parser follows the type of its field's default
_PARSERS = {float: _finite_float, int: int, str: str}


def _section_keys(section: str) -> dict:
    """key -> (constructor, field name, parser) for one config section."""
    keys = {}
    for ctor in _SECTIONS[section]:
        names = _KEY_NAMES.get(ctor, {})
        for f in fields(ctor):
            if f.init and f.default is not MISSING:
                keys[names.get(f.name, f.name)] = (ctor, f.name, _PARSERS[type(f.default)])
    return keys


def _parse_sections(path) -> dict:
    """Constructor -> the keyword arguments the file sets for it."""
    # no default section: [DEFAULT] is an unknown section like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # keep key case
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except OSError:
        raise ConfigurationError(f"cannot read config file {path}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    kwargs: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown config section [{section}]")
        keys = _section_keys(section)
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigurationError(f"unknown config key {section}.{key}")
            ctor, name, parse = keys[key]
            try:
                kwargs.setdefault(ctor, {})[name] = parse(raw)
            except ValueError:
                raise ConfigurationError(
                    f"config key {section}.{key}: cannot parse {raw!r}") from None
    return kwargs


def load_config(path) -> GlobalConfig:
    """Load a configuration file on top of the defaults."""
    kwargs = _parse_sections(path)

    def build(ctor, **parts):
        try:
            return ctor(**kwargs.get(ctor, {}), **parts)
        except ConfigurationError as exc:
            section = next(s for s, ctors in _SECTIONS.items() if ctor in ctors)
            raise ConfigurationError(f"[{section}] {exc}") from None

    # [latency] is checked first, then the parts in GlobalConfig's field order
    kwargs.setdefault(SimulationConfig, {})["latency"] = build(LatencyConfig)
    return build(GlobalConfig, **{f.name: build(f.default_factory)
                                  for f in fields(GlobalConfig)
                                  if f.default_factory is not MISSING})
