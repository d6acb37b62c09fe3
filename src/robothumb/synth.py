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
from .engine import MAX_STEPS
from .errors import InputError
from .kinematics import press_angle, press_drop, theta_for_key
from .piano import Key
from .plant import counts_per_output_rev, round_half_away
from .sensors import (SensorTrace, accel_output, adc_quantize, divider_voltage,
                      flex_resistance)

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


def _row_count(span_ms: float, period: float) -> int:
    """Rows of ``span_ms`` of trace at one row per ``period`` ms; a trace
    needing more rows than a run may take steps is rejected."""
    if not span_ms / period <= MAX_STEPS:
        raise InputError(f"{span_ms} ms of trace at a timestep of {period} ms "
                         f"needs more than {MAX_STEPS} rows")
    return int(round(span_ms / period))


def _build_trace(cfg: GlobalConfig, codes: np.ndarray, labels) -> SensorTrace:
    """A trace of (flex, y, z) code rows, one every timestep from t = 0."""
    period = cfg.simulation.timestep
    t = np.arange(len(codes)) * period  # the same floats as i * period
    return SensorTrace.from_columns(t, *codes.T, labels, period)


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
    _row_count(len(segments) * (CAL_SEGMENT_MS + CAL_GAP_MS), period)  # bound first
    seg_n = int(round(CAL_SEGMENT_MS / period))
    gap_n = int(round(CAL_GAP_MS / period))
    codes, labels = [], []
    for label, pose in segments:
        codes += [pose] * seg_n + [rest] * gap_n
        labels += [label] * seg_n + [""] * gap_n
    return _build_trace(cfg, np.array(codes, dtype=np.int64).reshape(-1, 3), labels)


def _press_speed(speed) -> float:
    value = 1.0 if speed == "max" else float(speed)
    if not 0.0 < value <= 1.0:
        raise InputError("press speed must be in (0, 1] or 'max'")
    return value


def _pulse_ms(speed: float) -> float:
    # a slower lift accelerates more gently but for longer
    return min(Z_PULSE_MS / speed, PRESS_HOLD_MS)


def _press_codes(cfg: GlobalConfig, flex_target: int, speed: float,
                 repeat: int, span_ms: float) -> np.ndarray:
    """``span_ms`` of (flex, y, z) code rows: rest for LEAD_MS, ``repeat``
    press cycles, then rest.

    Each cycle lifts the foot (Y steps up, Z pulses for the lift duration),
    holds, then drops it (Y steps down with a matching landing pulse) while
    the thumb holds ``flex_target``.
    """
    y_down, z_rest = accel_codes(cfg, 0.0, 0.0)
    y_up, _ = accel_codes(cfg, FOOT_UP_PITCH_DEG, 0.0)
    _, z_pulse = accel_codes(cfg, 0.0, speed * CAL_LIFT_DYN_G)
    period = cfg.simulation.timestep
    pulse = _pulse_ms(speed)
    phase = np.arange(_row_count(span_ms, period)) * period - LEAD_MS
    in_cycle = np.where((phase >= 0) & (phase < repeat * PRESS_CYCLE_MS),
                        phase % PRESS_CYCLE_MS, np.inf)  # inf: outside every cycle
    lifted = (in_cycle < pulse) | ((PRESS_HOLD_MS <= in_cycle)
                                   & (in_cycle < PRESS_HOLD_MS + pulse))
    rows = np.empty((len(phase), 3), dtype=np.int64)
    rows[:, 0] = flex_target
    rows[:, 1] = np.where(in_cycle < PRESS_HOLD_MS, y_up, y_down)
    rows[:, 2] = np.where(lifted, z_pulse, z_rest)
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
    rows = _press_codes(cfg, flex_target, s, repeat,
                        LEAD_MS + repeat * PRESS_CYCLE_MS + TAIL_MS)

    if flex_noise > 0:
        rng = np.random.default_rng(seed)
        # np.rint rounds half to even, as round() did on each scalar draw
        jitter = np.rint(rng.normal(0.0, flex_noise, len(rows)))
        rows[:, 0] = np.clip(flex_target + jitter, 0, cfg.divider.full_scale)
    return _build_trace(cfg, rows, ("",) * len(rows))


def scale_trace(cfg: GlobalConfig, key_indices, speed=0.5) -> SensorTrace:
    """One press per key in sequence, with settle time between retargets."""
    if not key_indices:
        raise InputError("scale needs at least one key")
    s = _press_speed(speed)
    anchors = anchors_from_config(cfg)
    _row_count(len(key_indices) * (LEAD_MS + PRESS_CYCLE_MS) + TAIL_MS,
               cfg.simulation.timestep)  # bound the whole scale first
    blocks = []
    for key_index in key_indices:
        if not 0 <= key_index < cfg.layout.n_keys:
            raise InputError(f"key index {key_index} outside the keyboard")
        flex_target = flex_code_for_key(cfg, cfg.layout.keys[key_index], anchors)
        blocks.append(_press_codes(cfg, flex_target, s, 1, LEAD_MS + PRESS_CYCLE_MS))
    # no cycles: the thumb holds the last key through the quiet tail
    blocks.append(_press_codes(cfg, flex_target, s, 0, TAIL_MS))
    rows = np.concatenate(blocks)
    return _build_trace(cfg, rows, ("",) * len(rows))


def _directions(samples: int, z_low: float, z_high: float, phi_half: float,
                seed: int) -> np.ndarray:
    """Rows ``(r cos phi, r sin phi, z)``, ``r = sqrt(max(0, 1 - z*z))``, in
    one array, from uniform ``z`` then ``phi`` draws. cos and sin go into
    the draws' buffers, contiguous as in a fresh array."""
    if samples < 1:
        raise InputError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.uniform(z_low, z_high, samples)
    phi = rng.uniform(-phi_half, phi_half, samples)
    dirs = np.empty((samples, 3))
    r = np.multiply(z, z)
    np.sqrt(np.maximum(0.0, np.subtract(1.0, r, out=r), out=r), out=r)
    dirs[:, 2] = z
    np.multiply(r, np.cos(phi, out=z), out=dirs[:, 0])
    np.multiply(r, np.sin(phi, out=phi), out=dirs[:, 1])
    return dirs


def band_sweep_directions(samples: int, azimuth_span: float = 360.0,
                          elev_min: float = -60.0, elev_max: float = 60.0,
                          seed: int = 0) -> np.ndarray:
    """Uniform directions over a full-or-partial azimuth elevation band."""
    check_band_limits(azimuth_span, elev_min, elev_max)
    return _directions(samples, math.sin(math.radians(elev_min)),
                       math.sin(math.radians(elev_max)),
                       math.radians(azimuth_span) / 2.0, seed)


def cap_directions(samples: int, half_angle: float = 54.9,
                   seed: int = 0) -> np.ndarray:
    """Uniform directions inside a spherical cap about +z."""
    check_cap_half_angle(half_angle)
    return _directions(samples, math.cos(math.radians(half_angle)), 1.0,
                       math.pi, seed)
