"""Physical models of the thumb flex sensor and foot accelerometer.

The flex sensor is a variable resistor read through a voltage divider
(flex element in the upper leg, fixed resistor in the lower leg, output
buffered) and digitised by the motor controller's analog input. The foot
sensor is a three-axis analog accelerometer of which two axes are used:
Y picks up the gravity projection along the foot (direction of motion),
Z picks up gravity plus dynamic acceleration (speed of motion).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .errors import ConfigurationError, InputError, TraceFormatError

TRACE_HEADER = ("t_ms", "flex_adc", "acc_y_adc", "acc_z_adc", "label")


def round_half_up(x: float) -> int:
    """Round with ties away from zero toward +inf; for non-negative inputs."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class FlexSensorModel:
    r_flat: float = 13.0       # kOhm at 0 degrees
    r_bent: float = 26.0       # kOhm at full pinch bend
    angle_range: float = 180.0  # degrees spanned between the two endpoints

    def __post_init__(self):
        if not (self.r_bent > self.r_flat > 0):
            raise ConfigurationError("flex sensor requires r_bent > r_flat > 0")
        if self.angle_range <= 0:
            raise ConfigurationError("angle_range must be positive")


@dataclass(frozen=True)
class DividerConfig:
    vcc: float = 5.0          # V supply
    r_fixed: float = 20.0     # kOhm lower leg
    adc_bits: int = 12
    v_ref: float = 5.0        # V full scale of the ADC

    def __post_init__(self):
        if self.vcc <= 0:
            raise ConfigurationError("vcc must be positive")
        if self.r_fixed <= 0:
            raise ConfigurationError("r_fixed must be positive")
        if not 8 <= self.adc_bits <= 16:
            raise ConfigurationError("adc_bits must be in [8, 16]")

    @property
    def full_scale(self) -> int:
        return (1 << self.adc_bits) - 1


@dataclass(frozen=True)
class AccelerometerModel:
    sensitivity: float = 0.3   # V/g
    zero_g_bias: float = 1.5   # V at 0 g

    def __post_init__(self):
        if self.sensitivity <= 0:
            raise ConfigurationError("sensitivity must be positive")


@dataclass(frozen=True)
class SensorSample:
    t: float            # ms
    flex_adc: int
    acc_y_adc: int
    acc_z_adc: int
    label: str = ""     # calibration segment tag, empty outside calibration


@dataclass(frozen=True)
class SensorTrace:
    """Time-ordered, uniformly sampled sensor readings."""

    samples: tuple[SensorSample, ...]
    sample_period: float  # ms

    def __post_init__(self):
        if self.sample_period <= 0:
            raise TraceFormatError("sample_period must be positive")
        prev = None
        for s in self.samples:
            if not math.isfinite(s.t):
                raise TraceFormatError(f"sample timestamp {s.t} is not finite")
            if s.t < 0:
                raise TraceFormatError("sample timestamps must be non-negative")
            if prev is not None:
                dt = s.t - prev
                if dt <= 0:
                    raise TraceFormatError("sample timestamps must be strictly increasing")
                if abs(dt - self.sample_period) > 0.01 * self.sample_period:
                    raise TraceFormatError(
                        f"sample spacing {dt} ms deviates more than 1% from "
                        f"period {self.sample_period} ms"
                    )
            prev = s.t
        # after the timestamps, which name the fault in a period derived from them
        if not math.isfinite(self.sample_period):
            raise TraceFormatError(f"sample_period {self.sample_period} is not finite")


def flex_resistance(bend_angle: float, model: FlexSensorModel) -> float:
    """Flex resistance (kOhm), linear between the two measured endpoints."""
    if not 0 <= bend_angle <= model.angle_range:
        raise InputError(f"bend_angle {bend_angle} outside [0, {model.angle_range}]")
    frac = bend_angle / model.angle_range
    return model.r_flat + frac * (model.r_bent - model.r_flat)


def divider_voltage(r_flex: float, cfg: DividerConfig) -> float:
    """Buffered divider output (V); strictly decreasing in r_flex."""
    if r_flex <= 0:
        raise InputError("r_flex must be positive")
    return cfg.vcc * cfg.r_fixed / (r_flex + cfg.r_fixed)


def adc_quantize(v: float, cfg: DividerConfig) -> int:
    """Quantize a voltage to an ADC code; clamps to [0, v_ref], rounds half up."""
    clamped = min(max(v, 0.0), cfg.v_ref)
    return round_half_up(clamped / cfg.v_ref * cfg.full_scale)


def accel_output(foot_pitch: float, dyn_accel: float,
                 model: AccelerometerModel) -> tuple[float, float]:
    """Accelerometer Y/Z output voltages for a foot pitch (deg) and dynamic accel (g).

    Y reads the gravity projection on the foot's long axis, Z reads the
    vertical gravity component plus any dynamic acceleration.
    """
    if abs(foot_pitch) > 90:
        raise InputError(f"foot_pitch {foot_pitch} outside [-90, 90]")
    pitch = math.radians(foot_pitch)
    v_y = model.zero_g_bias + model.sensitivity * math.sin(pitch)
    v_z = model.zero_g_bias + model.sensitivity * (math.cos(pitch) + dyn_accel)
    return v_y, v_z


def save_trace(trace: SensorTrace, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRACE_HEADER)
        for s in trace.samples:
            writer.writerow([f"{s.t:g}", s.flex_adc, s.acc_y_adc, s.acc_z_adc, s.label])


def load_trace(path) -> SensorTrace:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or tuple(header) != TRACE_HEADER:
            raise TraceFormatError(f"expected header {','.join(TRACE_HEADER)}")
        samples = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise TraceFormatError(f"line {lineno}: expected 5 columns")
            try:
                samples.append(SensorSample(
                    t=float(row[0]),
                    flex_adc=int(row[1]),
                    acc_y_adc=int(row[2]),
                    acc_z_adc=int(row[3]),
                    label=row[4],
                ))
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: {exc}") from exc
    if len(samples) < 2:
        raise TraceFormatError("trace needs at least two samples")
    period = samples[1].t - samples[0].t
    return SensorTrace(samples=tuple(samples), sample_period=period)
