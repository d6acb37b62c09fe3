"""Synthetic gesture and fixture generation.

Scenarios produce the sensor traces a wearer would generate: a labeled
calibration sweep, single or repeated key presses (an idealized foot
snap: the Y direction channel steps while Z carries an acceleration pulse
for the duration of the lift), a scale run across several keys, and
direction-set sweeps for workspace analysis. Everything derives from the
configuration so the synthesized codes and the calibration produced from
them agree by construction.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import check_band_limits, check_cap_half_angle
from .config import GlobalConfig
from .control import linear_map
from .errors import InputError
from .kinematics import press_angle, press_drop, theta_for_key
from .piano import Key
from .plant import counts_per_output_rev, round_half_away
from .sensors import (SensorSample, SensorTrace, accel_output, adc_quantize,
                      divider_voltage, flex_resistance)

FOOT_UP_PITCH_DEG = 25.0   # held dorsiflexion while a key is down
CAL_LIFT_DYN_G = 1.0       # reference lift acceleration saved as the Z maximum
Z_PULSE_MS = 80.0          # acceleration pulse of a full-speed lift/drop
PRESS_HOLD_MS = 200.0      # foot-up time per press
PRESS_CYCLE_MS = 400.0     # lift-to-lift spacing
LEAD_MS = 900.0            # settle time before the first press
TAIL_MS = 300.0            # trailing quiet time
CAL_SEGMENT_MS = 200.0
CAL_GAP_MS = 50.0


def flex_code(cfg: GlobalConfig, bend_deg: float) -> int:
    r = flex_resistance(bend_deg, cfg.flex)
    return adc_quantize(divider_voltage(r, cfg.divider), cfg.divider)


def accel_codes(cfg: GlobalConfig, pitch_deg: float, dyn_g: float) -> tuple[int, int]:
    v_y, v_z = accel_output(pitch_deg, dyn_g, cfg.accel)
    return adc_quantize(v_y, cfg.divider), adc_quantize(v_z, cfg.divider)


def counts_per_degree(cfg: GlobalConfig) -> float:
    return counts_per_output_rev(cfg.axis) / 360.0


def horizontal_counts_for_x(cfg: GlobalConfig, x: float) -> int:
    """Encoder counts steering the hovering tip over key-line position x."""
    theta = theta_for_key(x, cfg.mount, cfg.geometry)
    return round_half_away((theta - cfg.mount.heading) * counts_per_degree(cfg))


def anchors_from_config(cfg: GlobalConfig) -> dict:
    """Encoder anchors for the reference poses of the calibration routine.

    The drive is enabled at the hover pose, so the vertical hover anchor is
    zero by construction. The pressed anchor descends the hover clearance
    plus one full key travel, plus a small overtravel so presses land firmly.
    """
    hover_clearance = cfg.mount.base_z - press_drop(0.0, cfg.geometry)
    if hover_clearance < 0:
        raise InputError("mount base_z puts the hovering tip below the keys")
    pressed_theta = (press_angle(hover_clearance + cfg.layout.key_travel,
                                 cfg.geometry)
                     + cfg.press_overtravel_deg)
    near = horizontal_counts_for_x(cfg, cfg.reach_near_x)
    far = horizontal_counts_for_x(cfg, cfg.reach_far_x)
    # calibrate one count past each extreme note so both stay inside the
    # sweep whichever way the exact pose rounded
    outward = 1 if near >= far else -1
    return {
        "enc_h_min": near + outward,
        "enc_h_max": far - outward,
        "enc_hover": 0,
        "enc_pressed": round_half_away(pressed_theta * counts_per_degree(cfg)),
    }


def flex_code_for_key(cfg: GlobalConfig, key: Key, anchors: dict) -> int:
    """Flex code that steers the map calibrated on ``anchors`` onto a key center."""
    target = horizontal_counts_for_x(cfg, key.center_x)
    lo, hi = sorted((anchors["enc_h_min"], anchors["enc_h_max"]))
    if not lo <= target <= hi:
        raise InputError(
            f"key {key.index} at x={key.center_x} mm lies outside the "
            f"calibrated sweep [{lo}, {hi}] counts")
    flex_min = flex_code(cfg, 0.0)
    flex_max = flex_code(cfg, cfg.flex.angle_range)
    # invert the calibrated map: which flex code lands on the target counts
    value = linear_map(target, anchors["enc_h_min"], anchors["enc_h_max"],
                       flex_min, flex_max)
    return round_half_away(value)


def _build_trace(cfg: GlobalConfig, rows) -> SensorTrace:
    period = cfg.simulation.timestep
    samples = tuple(SensorSample(t=i * period, flex_adc=f, acc_y_adc=y,
                                 acc_z_adc=z, label=label)
                    for i, (f, y, z, label) in enumerate(rows))
    return SensorTrace(samples=samples, sample_period=period)


def calibration_trace(cfg: GlobalConfig) -> SensorTrace:
    """Labeled segments covering every calibration anchor, one per pose."""
    flex_straight = flex_code(cfg, 0.0)
    flex_bent = flex_code(cfg, cfg.flex.angle_range)
    y_down, z_rest = accel_codes(cfg, 0.0, 0.0)
    y_up, _ = accel_codes(cfg, FOOT_UP_PITCH_DEG, 0.0)
    _, z_active = accel_codes(cfg, 0.0, CAL_LIFT_DYN_G)

    rest = (flex_straight, y_down, z_rest)
    segments = [
        ("flex_min", rest),
        ("flex_max", (flex_bent, y_down, z_rest)),
        ("foot_down", rest),
        ("foot_up", (flex_straight, y_up, z_rest)),
        ("z_rest", rest),
        ("z_active", (flex_straight, y_down, z_active)),
    ]
    period = cfg.simulation.timestep
    seg_n = int(round(CAL_SEGMENT_MS / period))
    gap_n = int(round(CAL_GAP_MS / period))
    rows = []
    for label, (f, y, z) in segments:
        rows.extend((f, y, z, label) for _ in range(seg_n))
        rows.extend((*rest, "") for _ in range(gap_n))
    return _build_trace(cfg, rows)


def _press_speed(speed) -> float:
    value = 1.0 if speed == "max" else float(speed)
    if not 0.0 < value <= 1.0:
        raise InputError("press speed must be in (0, 1] or 'max'")
    return value


def _pulse_ms(speed: float) -> float:
    # a slower lift accelerates more gently but for longer
    return min(Z_PULSE_MS / speed, PRESS_HOLD_MS)


def _press_rows(cfg: GlobalConfig, flex_target: int, speed: float,
                repeat: int, span_ms: float) -> list[tuple]:
    """``span_ms`` of rows: rest for LEAD_MS, ``repeat`` press cycles, then rest.

    Each cycle lifts the foot (Y steps up, Z pulses for the lift duration),
    holds, then drops it (Y steps down with a matching landing pulse) while
    the thumb holds ``flex_target``.
    """
    y_down, z_rest = accel_codes(cfg, 0.0, 0.0)
    y_up, _ = accel_codes(cfg, FOOT_UP_PITCH_DEG, 0.0)
    _, z_pulse = accel_codes(cfg, 0.0, speed * CAL_LIFT_DYN_G)
    period = cfg.simulation.timestep
    pulse = _pulse_ms(speed)
    rows = []
    for i in range(int(round(span_ms / period))):
        phase = i * period - LEAD_MS
        y, z = y_down, z_rest
        if 0 <= phase < repeat * PRESS_CYCLE_MS:
            in_cycle = phase % PRESS_CYCLE_MS
            if in_cycle < PRESS_HOLD_MS:
                y = y_up
            if in_cycle < pulse or PRESS_HOLD_MS <= in_cycle < PRESS_HOLD_MS + pulse:
                z = z_pulse
        rows.append((flex_target, y, z, ""))
    return rows


def press_trace(cfg: GlobalConfig, key_index: int, speed=0.5, repeat: int = 1,
                flex_noise: float = 0.0, seed: int = 0) -> SensorTrace:
    """Repeated presses of one key: thumb holds the target, the foot snaps.

    ``speed`` scales the lift acceleration and with it the press dynamics.
    """
    if not 0 <= key_index < cfg.layout.n_keys:
        raise InputError(f"key index {key_index} outside the keyboard")
    if repeat < 1:
        raise InputError("repeat must be >= 1")
    s = _press_speed(speed)
    flex_target = flex_code_for_key(cfg, cfg.layout.keys[key_index],
                                    anchors_from_config(cfg))
    rows = _press_rows(cfg, flex_target, s, repeat,
                       LEAD_MS + repeat * PRESS_CYCLE_MS + TAIL_MS)

    if flex_noise > 0:
        rng = np.random.default_rng(seed)
        # np.rint rounds half to even, as round() did on each scalar draw
        jitter = np.rint(rng.normal(0.0, flex_noise, len(rows)))
        flex = np.clip(flex_target + jitter, 0, cfg.divider.full_scale)
        rows = [(f, y, z, label)
                for f, (_, y, z, label) in zip(flex.astype(int).tolist(), rows)]
    return _build_trace(cfg, rows)


def scale_trace(cfg: GlobalConfig, key_indices, speed=0.5) -> SensorTrace:
    """One press per key in sequence, with settle time between retargets."""
    if not key_indices:
        raise InputError("scale needs at least one key")
    s = _press_speed(speed)
    anchors = anchors_from_config(cfg)
    rows = []
    for key_index in key_indices:
        if not 0 <= key_index < cfg.layout.n_keys:
            raise InputError(f"key index {key_index} outside the keyboard")
        flex_target = flex_code_for_key(cfg, cfg.layout.keys[key_index], anchors)
        rows += _press_rows(cfg, flex_target, s, 1, LEAD_MS + PRESS_CYCLE_MS)
    # no cycles: the thumb holds the last key through the quiet tail
    rows += _press_rows(cfg, rows[-1][0], s, 0, TAIL_MS)
    return _build_trace(cfg, rows)


def band_sweep_directions(samples: int, azimuth_span: float = 360.0,
                          elev_min: float = -60.0, elev_max: float = 60.0,
                          seed: int = 0) -> np.ndarray:
    """Uniform directions over a full-or-partial azimuth elevation band."""
    if samples < 1:
        raise InputError("samples must be >= 1")
    check_band_limits(azimuth_span, elev_min, elev_max)
    rng = np.random.default_rng(seed)
    z = rng.uniform(math.sin(math.radians(elev_min)),
                    math.sin(math.radians(elev_max)), samples)
    half = math.radians(azimuth_span) / 2.0
    phi = rng.uniform(-half, half, samples)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


def cap_directions(samples: int, half_angle: float = 54.9,
                   seed: int = 0) -> np.ndarray:
    """Uniform directions inside a spherical cap about +z."""
    if samples < 1:
        raise InputError("samples must be >= 1")
    check_cap_half_angle(half_angle)
    rng = np.random.default_rng(seed)
    z = rng.uniform(math.cos(math.radians(half_angle)), 1.0, samples)
    phi = rng.uniform(-math.pi, math.pi, samples)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))
