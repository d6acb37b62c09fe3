"""Global configuration: defaults plus a sectioned key = value file loader.

The file format is INI-style, read as UTF-8. Each section builds one
dataclass, and each key is the name of one of its defaulted fields. Any key
left out keeps its default; unknown sections or keys are rejected so
fixture files stay honest. Invariant violations surface as
ConfigurationError naming the section and the offending key.
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
from .sensors import SensorConfig


@dataclass(frozen=True)
class GlobalConfig:
    layout: KeyboardLayout = field(default_factory=KeyboardLayout)
    sensors: SensorConfig = field(default_factory=SensorConfig)
    geometry: FingerGeometry = field(default_factory=FingerGeometry)
    mount: MountPose = field(default_factory=MountPose)
    axis: MotorAxis = field(default_factory=MotorAxis)
    control: ControlParams = field(default_factory=ControlParams)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)


def default_config() -> GlobalConfig:
    return GlobalConfig()


def _finite_float(raw: str) -> float:
    """Parse a float, rejecting NaN and infinities like unparsable text."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


# section -> the constructor its keys set, one key per defaulted field
_SECTIONS = {
    "layout": KeyboardLayout,
    "sensors": SensorConfig,
    "geometry": FingerGeometry,
    "mount": MountPose,
    "axes": MotorAxis,
    "control": ControlParams,
    "latency": LatencyConfig,
    "simulation": SimulationConfig,
}
# a key's parser follows the type of its field's default
_PARSERS = {float: _finite_float, int: int}


def _section_keys(section: str) -> dict:
    """key -> parser for one config section."""
    return {f.name: _PARSERS[type(f.default)] for f in fields(_SECTIONS[section])
            if f.init and f.default is not MISSING}


def _parse_sections(path) -> dict:
    """Section -> the keyword arguments the file sets for its constructor."""
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
        values = kwargs[section] = {}
        parsers = _section_keys(section)
        for key, raw in parser.items(section):
            if key not in parsers:
                raise ConfigurationError(f"unknown config key {section}.{key}")
            try:
                values[key] = parsers[key](raw)
            except ValueError:
                raise ConfigurationError(
                    f"config key {section}.{key}: cannot parse {raw!r}") from None
    return kwargs


def load_config(path) -> GlobalConfig:
    """Load a configuration file on top of the defaults."""
    kwargs = _parse_sections(path)

    def build(section, **parts):
        try:
            return _SECTIONS[section](**kwargs.get(section, {}), **parts)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[{section}] {exc}") from None

    # [latency] is checked first, then the sections in GlobalConfig's field order
    latency = build("latency")
    return GlobalConfig(
        layout=build("layout"), sensors=build("sensors"),
        geometry=build("geometry"), mount=build("mount"), axis=build("axes"),
        control=build("control"), simulation=build("simulation", latency=latency))
