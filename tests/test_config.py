import dataclasses
import functools
import math
import re

import pytest

from robothumb import engine, kinematics, plant, sensors
from robothumb.config import _SECTIONS, default_config, load_config
from robothumb.errors import ConfigurationError, InputError


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


@pytest.mark.parametrize("text,key", [
    ("[control]\nkv_z = inf\n", "control.kv_z"),
    ("[control]\nkp_h = nan\n", "control.kp_h"),
    ("[axes]\na_max = -inf\n", "axes.a_max"),
], ids=["kv_z=inf", "kp_h=nan", "a_max=-inf"])
def test_non_finite_float_rejected(tmp_path, text, key):
    with pytest.raises(ConfigurationError, match=key):
        load_config(write(tmp_path, text))


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
"""
    cfg = load_config(write(tmp_path, text))
    assert cfg.layout.n_keys == 61
    assert cfg.mount.base_x == 500.0
    assert cfg.mount.depth == 60.0
    assert cfg.mount.mass_g == 290.0
    assert cfg.simulation.latency.mech_motion == 40.0
    assert cfg.simulation.latency.total == 75.0


# section.key -> (value written, path of the attribute it sets, value it holds);
# every key the loader accepts, each with a valid value other than its default
KEY_TABLE = {
    "layout.n_keys": ("61", "layout.n_keys", 61),
    "layout.white_width": ("24", "layout.white_width", 24.0),
    "layout.black_width": ("13.0", "layout.black_width", 13.0),
    "layout.key_travel": ("9.5", "layout.key_travel", 9.5),
    "layout.press_force": ("0.75", "layout.press_force", 0.75),
    "layout.black_zone_depth": ("40", "layout.black_zone_depth", 40.0),
    "layout.origin_x": ("-5", "layout.origin_x", -5.0),
    "sensors.flex_r_flat": ("12", "sensors.flex_r_flat", 12.0),
    "sensors.flex_r_bent": ("30", "sensors.flex_r_bent", 30.0),
    "sensors.flex_angle_range": ("170", "sensors.flex_angle_range", 170.0),
    "sensors.divider_vcc": ("3.3", "sensors.divider_vcc", 3.3),
    "sensors.divider_r_fixed": ("22", "sensors.divider_r_fixed", 22.0),
    "sensors.adc_bits": ("10", "sensors.adc_bits", 10),
    "sensors.adc_v_ref": ("3.3", "sensors.adc_v_ref", 3.3),
    "sensors.accel_sensitivity": ("0.33", "sensors.accel_sensitivity", 0.33),
    "sensors.accel_zero_g_bias": ("1.65", "sensors.accel_zero_g_bias", 1.65),
    "geometry.l0_knuckle": ("40", "geometry.l0_knuckle", 40.0),
    "geometry.l1_proximal": ("57", "geometry.l1_proximal", 57.0),
    "geometry.l2_distal": ("47", "geometry.l2_distal", 47.0),
    "geometry.bend_angle": ("55", "geometry.bend_angle", 55.0),
    "geometry.theta_h_range": ("300", "geometry.theta_h_range", 300.0),
    "geometry.theta_v_min": ("-80", "geometry.theta_v_min", -80.0),
    "geometry.theta_v_max": ("25", "geometry.theta_v_max", 25.0),
    "mount.base_x": ("610", "mount.base_x", 610.0),
    "mount.base_z": ("45", "mount.base_z", 45.0),
    "mount.heading": ("70", "mount.heading", 70.0),
    "mount.depth": ("60", "mount.depth", 60.0),
    "mount.pinkie_reach_x": ("570", "mount.pinkie_reach_x", 570.0),
    "mount.reach_near_x": ("590", "mount.reach_near_x", 590.0),
    "mount.reach_far_x": ("680", "mount.reach_far_x", 680.0),
    "mount.press_overtravel_deg": ("2", "mount.press_overtravel_deg", 2.0),
    "mount.mass_g": ("300", "mount.mass_g", 300.0),
    "axes.gear_ratio": ("20", "axis.gear_ratio", 20),
    "axes.encoder_cpr": ("512", "axis.encoder_cpr", 512),
    "axes.quadrature": ("2", "axis.quadrature", 2),
    "axes.v_max": ("500", "axis.v_max", 500.0),
    "axes.a_max": ("50000", "axis.a_max", 50000.0),
    "axes.nominal_torque": ("0.02", "axis.nominal_torque", 0.02),
    "control.kp_h": ("0.9", "control.kp_h", 0.9),
    "control.v_cap": ("300", "control.v_cap", 300.0),
    "control.kv_z": ("400", "control.kv_z", 400.0),
    "control.v_floor": ("10", "control.v_floor", 10.0),
    "control.z_threshold": ("90", "control.z_threshold", 90),
    "control.z_refractory_ms": ("200", "control.z_refractory_ms", 200.0),
    "latency.sensor_sample": ("6", "simulation.latency.sensor_sample", 6.0),
    "latency.adc_transport": ("11", "simulation.latency.adc_transport", 11.0),
    "latency.compute": ("4", "simulation.latency.compute", 4.0),
    "latency.command_transport": ("9", "simulation.latency.command_transport", 9.0),
    "latency.controller_process": ("3", "simulation.latency.controller_process", 3.0),
    "latency.mech_motion": ("40", "simulation.latency.mech_motion", 40.0),
    "simulation.timestep": ("0.5", "simulation.timestep", 0.5),
    "simulation.settle_tail_ms": ("150", "simulation.settle_tail_ms", 150.0),
}
# field names that are not keys in their section (or in any other)
NON_KEYS = ("device_mass_g", "r_flat", "r_bent", "angle_range", "vcc", "r_fixed",
            "v_ref", "sensitivity", "zero_g_bias", "latency", "keys", "n_white",
            "layout", "flex", "divider", "accel", "geometry", "mount", "axis",
            "control", "simulation")


def key_file(tmp_path, name, raw):
    section, key = name.split(".")
    return write(tmp_path, f"[{section}]\n{key} = {raw}\n")


def replace_at(obj, path, value):
    head, _, rest = path.partition(".")
    if rest:
        value = replace_at(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: value})


def test_key_table_has_52_keys_in_8_sections():
    assert len(KEY_TABLE) == 52
    assert len({name.split(".")[0] for name in KEY_TABLE}) == 8


@pytest.mark.parametrize("name", list(KEY_TABLE))
def test_each_key_sets_its_field_alone(name, tmp_path):
    raw, path, value = KEY_TABLE[name]
    cfg = load_config(key_file(tmp_path, name, raw))
    assert cfg == replace_at(default_config(), path, value)
    landed = functools.reduce(getattr, path.split("."), cfg)
    assert landed == value and type(landed) is type(value)
    assert landed != functools.reduce(getattr, path.split("."), default_config())


@pytest.mark.parametrize("name", list(KEY_TABLE))
def test_each_key_parser(name, tmp_path):
    value = KEY_TABLE[name][2]
    bad = "1.5" if isinstance(value, int) else "inf"
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"config key {name}: cannot parse '{bad}'")):
        load_config(key_file(tmp_path, name, bad))


def test_accepted_key_set_is_exact(tmp_path):
    sections = {name.split(".")[0] for name in KEY_TABLE}
    keys = {name.split(".")[1] for name in KEY_TABLE} | set(NON_KEYS)
    for section in sorted(sections):
        for key in sorted(keys):
            name = f"{section}.{key}"
            if name in KEY_TABLE:
                load_config(key_file(tmp_path, name, KEY_TABLE[name][0]))
            else:
                with pytest.raises(ConfigurationError,
                                   match=re.escape(f"unknown config key {name}")):
                    load_config(key_file(tmp_path, name, "1"))
    for section in ("sensor", "axis", "mass", "LAYOUT", "DEFAULTS"):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"unknown config section [{section}]")):
            load_config(write(tmp_path, f"[{section}]\n"))


# section.key -> a value breaking the key's constraint; every key of KEY_TABLE
# whose section checks it
BROKEN = {
    "layout.n_keys": "0", "layout.white_width": "-3", "layout.black_width": "0",
    "layout.key_travel": "0", "layout.press_force": "0",
    "sensors.flex_r_flat": "0", "sensors.flex_r_bent": "10",
    "sensors.flex_angle_range": "0", "sensors.divider_vcc": "-1",
    "sensors.divider_r_fixed": "0", "sensors.adc_bits": "7",
    "sensors.adc_v_ref": "0", "sensors.accel_sensitivity": "0",
    "geometry.l0_knuckle": "0", "geometry.l1_proximal": "0",
    "geometry.l2_distal": "0", "geometry.bend_angle": "0",
    "geometry.theta_h_range": "0",
    "geometry.theta_v_min": "40", "geometry.theta_v_max": "-100",
    "mount.base_z": "0", "mount.press_overtravel_deg": "-1", "mount.mass_g": "0",
    "axes.gear_ratio": "0", "axes.encoder_cpr": "0", "axes.quadrature": "3",
    "axes.v_max": "0", "axes.a_max": "0", "axes.nominal_torque": "0",
    "control.kp_h": "0", "control.v_cap": "0", "control.kv_z": "0",
    "control.v_floor": "0", "control.z_threshold": "0",
    "control.z_refractory_ms": "-1",
    "latency.sensor_sample": "-1", "latency.adc_transport": "-1",
    "latency.compute": "-1", "latency.command_transport": "-1",
    "latency.controller_process": "-1", "latency.mech_motion": "-1",
    "simulation.timestep": "0", "simulation.settle_tail_ms": "-1",
}


@pytest.mark.parametrize("name", list(BROKEN))
def test_each_constraint_error_names_its_key(name, tmp_path):
    assert name in KEY_TABLE
    section, key = name.split(".")
    with pytest.raises(ConfigurationError) as info:
        load_config(key_file(tmp_path, name, BROKEN[name]))
    message = str(info.value)
    assert message.startswith(f"[{section}] ") and key in message



# section.key of every numeric field of every config section, from the section
# classes, so a numeric field added without a rule fails below
NUMERIC_FIELDS = [f"{section}.{f.name}" for section, cls in _SECTIONS.items()
                  for f in dataclasses.fields(cls)
                  if f.init and type(f.default) in (int, float)]
POSITIVE = ("layout.white_width", "layout.black_width", "layout.key_travel",
            "layout.press_force", "sensors.flex_r_flat", "sensors.flex_angle_range",
            "sensors.divider_vcc", "sensors.divider_r_fixed", "sensors.adc_v_ref",
            "sensors.accel_sensitivity", "geometry.l0_knuckle", "geometry.l1_proximal",
            "geometry.l2_distal", "geometry.theta_h_range", "mount.base_z", "mount.mass_g",
            "axes.encoder_cpr", "axes.v_max", "axes.a_max", "axes.nominal_torque",
            "control.kp_h", "control.v_cap", "control.kv_z", "control.z_threshold",
            "simulation.timestep")
NON_NEGATIVE = ("mount.press_overtravel_deg", "control.z_refractory_ms",
                "latency.sensor_sample", "latency.adc_transport", "latency.compute",
                "latency.command_transport", "latency.controller_process",
                "latency.mech_motion", "simulation.settle_tail_ms")
FINITE = ("layout.black_zone_depth", "layout.origin_x", "sensors.accel_zero_g_bias",
          "mount.base_x", "mount.heading", "mount.depth", "mount.pinkie_reach_x",
          "mount.reach_near_x", "mount.reach_far_x")


def build_error(name, value) -> str:
    """The message of the ConfigurationError that building the section of
    ``name`` (section.key) with that field set to ``value`` raises."""
    section, key = name.split(".")
    with pytest.raises(ConfigurationError) as info:
        _SECTIONS[section](**{key: value})
    return str(info.value)


def test_every_config_key_is_numeric():
    assert len(NUMERIC_FIELDS) == 52
    assert set(NUMERIC_FIELDS) == set(KEY_TABLE)
    assert set(POSITIVE + NON_NEGATIVE + FINITE) <= set(NUMERIC_FIELDS)


@pytest.mark.parametrize("name", NUMERIC_FIELDS)
def test_nan_is_refused_by_every_numeric_field(name):
    """41 of these fields accepted NaN when their section was built from Python."""
    key = name.split(".")[1]
    assert re.search(rf"\b{key}\b", build_error(name, math.nan))


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("name", POSITIVE)
def test_positive_field_refuses_zero_and_below(name, value):
    assert build_error(name, value) == f"{name.split('.')[1]} must be positive"


@pytest.mark.parametrize("name", NON_NEGATIVE)
def test_non_negative_field_refuses_below_zero(name):
    assert build_error(name, -1) == f"{name.split('.')[1]} must be non-negative"


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("name", FINITE)
def test_finite_field_refuses_infinity(name, value):
    assert build_error(name, value) == f"{name.split('.')[1]} must be finite"


NAN = math.nan
CFG = default_config()
NAN_ARGUMENTS = {
    "midi_velocity": lambda: engine.midi_velocity(NAN, 400.0),
    "axis_step.dt": lambda: plant.axis_step((0.0, 0.0, 0), 10, 100.0, NAN, CFG.axis),
    "axis_step.velocity_limit": lambda: plant.axis_step((0.0, 0.0, 0), 10, NAN, 1.0, CFG.axis),
    "torque_margin": lambda: plant.torque_margin(NAN, CFG.axis),
    "press_angle": lambda: kinematics.press_angle(NAN, CFG.geometry),
    "required_torque": lambda: kinematics.required_torque(NAN, 0.0, CFG.geometry),
    "divider_voltage": lambda: sensors.divider_voltage(NAN, CFG.sensors),
    "accel_output": lambda: sensors.accel_output(NAN, 0.0, CFG.sensors),
    "LatencyRecord": lambda: engine.LatencyRecord(NAN, 5.0),
}


@pytest.mark.parametrize("call", NAN_ARGUMENTS.values(), ids=NAN_ARGUMENTS)
def test_nan_argument_is_refused_by_library_checks(call):
    """Each of these once ended in a bare ValueError or returned NaN."""
    with pytest.raises(InputError):
        call()
