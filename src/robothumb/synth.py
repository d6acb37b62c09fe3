"""Synthetic gesture and fixture generation.

Scenarios produce the sensor traces a wearer would generate: a labeled
calibration sweep, single or repeated key presses (an idealized foot
snap: the Y direction channel steps while Z carries an acceleration pulse
for the duration of the lift), a scale run across several keys, and
direction-set sweeps for workspace analysis. Everything derives from the
configuration so the synthesized codes and the calibration produced from
them agree by construction. The horizontal anchors and every press are
aimed by ``control.aimed_counts``; the pressed anchor is
``plant.encoder_counts`` of its angle, the one count rule. Press and scale
traces, like direction sweeps, are drawn one ``BLOCK_ROWS`` block at a time
(``press_blocks``, ``scale_blocks``), so that writing one never holds it
whole; ``press_trace`` and ``scale_trace`` join those blocks into one trace.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import MAX_DIRECTIONS, check_band_limits, check_cap_half_angle
from .config import GlobalConfig
from .control import aimed_counts, linear_map, validate_anchor_ranges
from .engine import MAX_STEPS
from .errors import InputError
from .kinematics import press_angle, press_drop
from .piano import Key
from .plant import encoder_counts, round_half_away
from .sensors import (BLOCK_ROWS, SensorTrace, accel_output, adc_quantize,
                      divider_voltage, flex_resistance)

FOOT_UP_PITCH_DEG = 25.0   # held dorsiflexion while a key is down
CAL_LIFT_DYN_G = 1.0       # reference lift acceleration saved as the Z maximum
Z_PULSE_MS = 80.0          # acceleration pulse of a full-speed lift/drop
PRESS_HOLD_MS = 200.0      # foot-up time per press
Z_GAP_MS = 40.0            # least Z rest between a lift pulse and its landing pulse
PRESS_CYCLE_MS = 400.0     # lift-to-lift spacing
LEAD_MS = 900.0            # settle time before the first press
TAIL_MS = 300.0            # trailing quiet time
CAL_SEGMENT_MS = 200.0
CAL_GAP_MS = 50.0


def flex_code(cfg: GlobalConfig, bend_deg: float) -> int:
    r = flex_resistance(bend_deg, cfg.sensors)
    return adc_quantize(divider_voltage(r, cfg.sensors), cfg.sensors)


def accel_codes(cfg: GlobalConfig, pitch_deg: float, dyn_g: float) -> tuple[int, int]:
    v_y, v_z = accel_output(pitch_deg, dyn_g, cfg.sensors)
    return adc_quantize(v_y, cfg.sensors), adc_quantize(v_z, cfg.sensors)


def anchors_from_config(cfg: GlobalConfig) -> dict:
    """Encoder anchors for the reference poses of the calibration routine.

    The drive is enabled at the hover pose, so the vertical hover anchor is
    zero by construction. The pressed anchor descends the hover clearance
    plus one full key travel, plus a small overtravel so presses land firmly.
    Each anchor must lie inside its joint range, as ``engine.run`` requires.
    """
    hover_clearance = cfg.mount.base_z - press_drop(0.0, cfg.geometry)
    if hover_clearance < 0:
        raise InputError("mount base_z puts the hovering tip below the keys")
    pressed_theta = (press_angle(hover_clearance + cfg.layout.key_travel,
                                 cfg.geometry)
                     + cfg.mount.press_overtravel_deg)
    near = aimed_counts(cfg, cfg.mount.reach_near_x)
    far = aimed_counts(cfg, cfg.mount.reach_far_x)
    # calibrate one count past each extreme note so both stay inside the
    # sweep whichever way the exact pose rounded
    outward = 1 if near >= far else -1
    anchors = {
        "enc_h_min": near + outward,
        "enc_h_max": far - outward,
        "enc_hover": 0,
        "enc_pressed": encoder_counts(pressed_theta, cfg.axis),
    }
    validate_anchor_ranges(anchors, cfg.geometry, cfg.axis)
    return anchors


def flex_code_for_key(cfg: GlobalConfig, key: Key, anchors: dict) -> int:
    """Flex code that steers the map calibrated on ``anchors`` onto a key center."""
    target = aimed_counts(cfg, key.center_x)
    lo, hi = sorted((anchors["enc_h_min"], anchors["enc_h_max"]))
    if not lo <= target <= hi:
        raise InputError(
            f"key {key.index} at x={key.center_x} mm lies outside the "
            f"calibrated sweep [{lo}, {hi}] counts")
    flex_min = flex_code(cfg, 0.0)
    flex_max = flex_code(cfg, cfg.sensors.flex_angle_range)
    # invert the calibrated map: which flex code lands on the target counts
    value = linear_map(target, anchors["enc_h_min"], anchors["enc_h_max"],
                       flex_min, flex_max)
    return round_half_away(value)


def _row_count(span_ms: float, period: float, least: int = 2) -> int:
    """Rows of ``span_ms`` of trace at one row per ``period`` ms. A span
    needing more rows than a run may take steps is rejected, and so is a
    span left fewer than ``least`` rows: a trace is read back only from two
    rows on, and a calibration segment needs one."""
    if not span_ms / period <= MAX_STEPS:
        raise InputError(f"{span_ms} ms of trace at a timestep of {period} ms "
                         f"needs more than {MAX_STEPS} rows")
    rows = int(round(span_ms / period))
    if rows < least:
        raise InputError(f"{span_ms} ms of trace at a timestep of {period} ms "
                         f"makes {rows} row(s), fewer than {least}")
    return rows


def calibration_trace(cfg: GlobalConfig) -> SensorTrace:
    """Labeled segments covering every calibration anchor, one per pose."""
    flex_straight = flex_code(cfg, 0.0)
    flex_bent = flex_code(cfg, cfg.sensors.flex_angle_range)
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
    seg_n = _row_count(CAL_SEGMENT_MS, period, 1)
    gap_n = int(round(CAL_GAP_MS / period))
    codes, labels = [], []
    for label, pose in segments:
        codes += [pose] * seg_n + [rest] * gap_n
        labels += [label] * seg_n + [""] * gap_n
    codes = np.array(codes, dtype=np.int64).reshape(-1, 3)
    t = np.arange(len(codes)) * period  # the same floats as i * timestep
    return SensorTrace.from_columns(t, *codes.T, labels)


def _press_speed(speed) -> float:
    try:
        value = 1.0 if speed == "max" else float(speed)
    except ValueError:
        value = math.nan
    if not 0.0 < value <= 1.0:
        raise InputError(f"press speed {speed!r} must be in (0, 1] or 'max'")
    return value


def _pulse_ms(speed: float) -> float:
    # a slower lift accelerates more gently but for longer; Z falls back to
    # rest before the landing pulse, so every lift is a fresh crossing
    return min(Z_PULSE_MS / speed, PRESS_HOLD_MS - Z_GAP_MS)


def _code_blocks(cfg: GlobalConfig, segments, speed: float, flex_noise: float = 0.0,
                 seed: int = 0):
    """The trace of ``segments`` one ``BLOCK_ROWS`` block at a time, each a
    ``SensorTrace``; row ``i`` of the whole lies at ``i * timestep``.

    Segment ``(flex_target, repeat, rows)`` is ``rows`` rows: rest for
    LEAD_MS, ``repeat`` press cycles, then rest, while the thumb holds
    ``flex_target``. Each cycle lifts the foot (Y steps up, Z pulses for the
    lift duration), holds, then drops it (Y steps down with a matching
    landing pulse). ``flex_noise`` jitters each flex code by a normal draw of
    one generator seeded with ``seed``, drawn block after block in row order,
    which is the stream of one draw of every row.
    """
    y_down, z_rest = accel_codes(cfg, 0.0, 0.0)
    y_up, _ = accel_codes(cfg, FOOT_UP_PITCH_DEG, 0.0)
    _, z_pulse = accel_codes(cfg, 0.0, speed * CAL_LIFT_DYN_G)
    period = cfg.simulation.timestep
    pulse = _pulse_ms(speed)
    targets, repeats, counts = (np.array(c, np.int64) for c in zip(*segments))
    firsts = np.cumsum(counts) - counts  # each segment's first row
    total = int(counts.sum())
    # a noise-free trace makes no generator: the first one imports numpy.random
    rng = np.random.default_rng(seed) if flex_noise > 0 else None
    for start in range(0, total, BLOCK_ROWS):
        i = np.arange(start, min(start + BLOCK_ROWS, total))
        segment = np.searchsorted(firsts, i, "right") - 1  # past empty segments
        phase = (i - firsts[segment]) * period - LEAD_MS
        in_cycle = np.where((phase >= 0) & (phase < repeats[segment] * PRESS_CYCLE_MS),
                            phase % PRESS_CYCLE_MS, np.inf)  # inf: outside every cycle
        lifted = (in_cycle < pulse) | ((PRESS_HOLD_MS <= in_cycle)
                                       & (in_cycle < PRESS_HOLD_MS + pulse))
        flex = targets[segment]
        if rng is not None:
            # np.rint rounds half to even, as round() did on each scalar draw
            jitter = np.rint(rng.normal(0.0, flex_noise, len(i)))
            flex = np.clip(flex + jitter, 0, cfg.sensors.full_scale)
        yield SensorTrace.from_columns(i * period, flex,
                                       np.where(in_cycle < PRESS_HOLD_MS, y_up, y_down),
                                       np.where(lifted, z_pulse, z_rest), ())


def _joined(traces) -> SensorTrace:
    """One unlabelled trace of the rows of ``traces``, in order."""
    return SensorTrace(np.concatenate([trace.samples for trace in traces]), ())


def press_blocks(cfg: GlobalConfig, key_index: int, speed=0.5, repeat: int = 1,
                 flex_noise: float = 0.0, seed: int = 0):
    """Repeated presses of one key: thumb holds the target, the foot snaps.

    ``speed`` scales the lift acceleration and with it the press dynamics.
    Every argument is checked here; the iterator returned draws the trace
    one ``BLOCK_ROWS`` block at a time, for ``sensors.save_trace``.
    """
    if not 0 <= key_index < cfg.layout.n_keys:
        raise InputError(f"key index {key_index} outside the keyboard")
    if repeat < 1:
        raise InputError("repeat must be >= 1")
    if not 0.0 <= flex_noise < math.inf:  # also False for NaN
        raise InputError(f"flex noise sigma {flex_noise} must be finite and >= 0")
    if not seed >= 0:  # numpy's generators take no negative seed
        raise InputError("seed must be non-negative")
    s = _press_speed(speed)
    flex_target = flex_code_for_key(cfg, cfg.layout.keys[key_index],
                                    anchors_from_config(cfg))
    rows = _row_count(LEAD_MS + repeat * PRESS_CYCLE_MS + TAIL_MS, cfg.simulation.timestep)
    return _code_blocks(cfg, [(flex_target, repeat, rows)], s, flex_noise, seed)


def press_trace(*args, **kwargs) -> SensorTrace:
    """``press_blocks``' rows in one trace."""
    return _joined(press_blocks(*args, **kwargs))


def scale_blocks(cfg: GlobalConfig, key_indices, speed=0.5):
    """One press per key in sequence, with settle time between retargets.
    Every argument is checked here; the iterator returned draws the trace
    one ``BLOCK_ROWS`` block at a time, for ``sensors.save_trace``."""
    if not key_indices:
        raise InputError("scale needs at least one key")
    s = _press_speed(speed)
    anchors = anchors_from_config(cfg)
    period = cfg.simulation.timestep
    _row_count(len(key_indices) * (LEAD_MS + PRESS_CYCLE_MS) + TAIL_MS,
               period)  # bound the whole scale first
    segments = []
    for key_index in key_indices:
        if not 0 <= key_index < cfg.layout.n_keys:
            raise InputError(f"key index {key_index} outside the keyboard")
        flex_target = flex_code_for_key(cfg, cfg.layout.keys[key_index], anchors)
        segments.append((flex_target, 1, _row_count(LEAD_MS + PRESS_CYCLE_MS, period)))
    # no cycles: the thumb holds the last key through the quiet tail
    segments.append((flex_target, 0, _row_count(TAIL_MS, period, 0)))
    return _code_blocks(cfg, segments, s)


def scale_trace(*args, **kwargs) -> SensorTrace:
    """``scale_blocks``' rows in one trace."""
    return _joined(scale_blocks(*args, **kwargs))


class DirectionSweep:
    """``samples`` uniform directions, rows ``(r cos phi, r sin phi, z)`` with
    ``r = sqrt(max(0, 1 - z*z))``, from uniform ``z`` in ``[z_low, z_high)``
    and ``phi`` in ``[-phi_half, phi_half)``. ``len`` is the row count;
    iterating draws the rows one ``BLOCK_ROWS`` block at a time.

    The draws are those of one generator seeded with ``seed``: every ``z``,
    then every ``phi``. A second generator from the same seed, advanced past
    the ``z`` draws (one 64-bit output per double), gives each block its
    ``phi`` draws, so no block waits for the whole set."""

    def __init__(self, samples: int, z_low: float, z_high: float, phi_half: float,
                 seed: int):
        if not 1 <= samples <= MAX_DIRECTIONS:
            raise InputError(f"samples must be in [1, {MAX_DIRECTIONS}]")
        if not seed >= 0:
            raise InputError("seed must be non-negative")
        self.samples = samples
        self.z_low, self.z_high, self.phi_half = z_low, z_high, phi_half
        self.seed = seed

    def __len__(self) -> int:
        return self.samples

    def __iter__(self):
        z_rng = np.random.default_rng(self.seed)
        phi_rng = np.random.default_rng(self.seed)
        phi_rng.bit_generator.advance(self.samples)
        for start in range(0, self.samples, BLOCK_ROWS):
            rows = min(BLOCK_ROWS, self.samples - start)
            z = z_rng.uniform(self.z_low, self.z_high, rows)
            phi = phi_rng.uniform(-self.phi_half, self.phi_half, rows)
            block = np.empty((rows, 3))
            r = np.multiply(z, z)
            np.sqrt(np.maximum(0.0, np.subtract(1.0, r, out=r), out=r), out=r)
            block[:, 2] = z
            np.multiply(r, np.cos(phi, out=z), out=block[:, 0])
            np.multiply(r, np.sin(phi, out=phi), out=block[:, 1])
            yield block


def band_sweep(samples: int, azimuth_span: float = 360.0, elev_min: float = -60.0,
               elev_max: float = 60.0, seed: int = 0) -> DirectionSweep:
    """Uniform directions over a full-or-partial azimuth elevation band."""
    check_band_limits(azimuth_span, elev_min, elev_max)
    return DirectionSweep(samples, math.sin(math.radians(elev_min)),
                          math.sin(math.radians(elev_max)),
                          math.radians(azimuth_span) / 2.0, seed)


def cap_sweep(samples: int, half_angle: float = 54.9, seed: int = 0) -> DirectionSweep:
    """Uniform directions inside a spherical cap about +z."""
    check_cap_half_angle(half_angle)
    return DirectionSweep(samples, math.cos(math.radians(half_angle)), 1.0, math.pi, seed)


def band_sweep_directions(*args, **kwargs) -> np.ndarray:
    """``band_sweep``'s rows in one (samples, 3) array."""
    return np.concatenate(list(band_sweep(*args, **kwargs)))


def cap_directions(*args, **kwargs) -> np.ndarray:
    """``cap_sweep``'s rows in one (samples, 3) array."""
    return np.concatenate(list(cap_sweep(*args, **kwargs)))
