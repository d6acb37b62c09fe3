"""Trace-driven simulator and analysis toolkit for a two-DOF wearable
robotic thumb that plays piano alongside the natural hand."""

from .config import GlobalConfig, default_config, load_config
from .control import CalibrationSet, ControlParams
from .engine import EventLog, LatencyConfig, SimulationConfig, run
from .kinematics import FingerGeometry, MountPose
from .piano import Key, KeyboardLayout, KeyEvent, key_at
from .plant import MotorAxis
from .sensors import SensorConfig, SensorTrace

__version__ = "0.1.0"

__all__ = [
    "CalibrationSet", "ControlParams", "EventLog", "FingerGeometry",
    "GlobalConfig", "Key", "KeyEvent", "KeyboardLayout", "LatencyConfig",
    "MotorAxis", "MountPose", "SensorConfig", "SensorTrace",
    "SimulationConfig", "default_config", "key_at", "load_config", "run",
]
