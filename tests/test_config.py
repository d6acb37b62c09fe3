import dataclasses

import pytest

from robothumb.config import default_config, load_config
from robothumb.errors import ConfigurationError


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_default_config_is_valid():
    cfg = default_config()
    assert cfg.layout.n_keys == 88
    assert cfg.simulation.latency.total == 85.0
    assert cfg.axis.gear_ratio == 16


def test_partial_file_keeps_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "[control]\nkp_h = 0.5\n"))
    assert cfg.control.kp_h == 0.5
    default = default_config()
    assert cfg == dataclasses.replace(
        default, control=dataclasses.replace(default.control, kp_h=0.5))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="motor"):
        load_config(write(tmp_path, "[motor]\nfoo = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="layout.colour"):
        load_config(write(tmp_path, "[layout]\ncolour = red\n"))


def test_accel_noise_key_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="sensors.accel_noise_sigma"):
        load_config(write(tmp_path, "[sensors]\naccel_noise_sigma = 0.01\n"))


def test_invariant_violation_names_key(tmp_path):
    with pytest.raises(ConfigurationError, match="white_width"):
        load_config(write(tmp_path, "[layout]\nwhite_width = -3\n"))
    with pytest.raises(ConfigurationError, match="kp_h"):
        load_config(write(tmp_path, "[control]\nkp_h = 0\n"))


def test_unparsable_value_names_key(tmp_path):
    with pytest.raises(ConfigurationError, match="axes.gear_ratio"):
        load_config(write(tmp_path, "[axes]\ngear_ratio = sixteen\n"))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(tmp_path / "absent.cfg")


def test_full_file_round_trip(tmp_path):
    text = """
[layout]
n_keys = 61
white_width = 23.5
[mount]
base_x = 500.0
depth = 60.0
mass_g = 290.0
[latency]
mech_motion = 40.0
[simulation]
mode = concurrent
seed = 7
"""
    cfg = load_config(write(tmp_path, text))
    assert cfg.layout.n_keys == 61
    assert cfg.mount.base_x == 500.0
    assert cfg.mount.depth == 60.0
    assert cfg.device_mass_g == 290.0
    assert cfg.simulation.latency.mech_motion == 40.0
    assert cfg.simulation.latency.total == 75.0
    assert cfg.simulation.mode == "concurrent"
    assert cfg.simulation.seed == 7
