"""Fixed-timestep simulation of the complete sensing-to-actuation pipeline.

One run consumes a sensor trace and plays it through the full chain:

    trace sample --(sensor_sample + adc_transport)--> control update
    control update --(compute + command_transport + controller_process)--> axis command
    axis command --> profile motion --> fingertip --> key events

The five data-path latencies are pure transport delays: a sample taken at
time t yields a command that takes effect at exactly t + sensor path +
command path. The ``mech_motion`` entry of the latency budget is realized
by the simulated axis transit itself (the sweep from hover down to the
press threshold), not by an additional queue, so the measured
intention-to-action delay is the data-path delay plus the actual
mechanical motion time.

Key events come from the fingertip height: crossing below the full-press
height (one key travel below the undepressed surface) while over a key
emits a key-on whose MIDI velocity encodes the press-axis speed at the
crossing; rising back above it emits the key-off. Intentions are upward
crossings of the Z-accelerometer threshold in the raw trace timeline; each
key-on is charged to the latest intention since the previous press, so a
foot bump that presses nothing is never charged to a later key.

The two axes are separate pipelines that meet only at the fingertip: the
flex sensor steers the horizontal axis, the foot accelerometer drives the
vertical axis. The control laws map the trace's ADC code columns once;
each axis loop steps a plain ``(angle, velocity, encoder_count)`` tuple,
adding only the horizontal feedback on its encoder count. Both execution
modes produce byte-identical logs: they run the two axis loops, inline or
on two workers, then combine the axis states step by step into fingertip
positions and key events.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from . import control, kinematics, plant
from .control import CalibrationSet, ControlParams
from .errors import ConfigurationError, InputError
from .piano import Key, KeyEvent, MIDI_A0, key_at, note_name
from .sensors import SensorTrace, round_half_up

if TYPE_CHECKING:  # avoids a circular import; config builds on this module
    from .config import GlobalConfig


@dataclass(frozen=True)
class LatencyConfig:
    """Per-stage delays of the pipeline, in milliseconds."""

    sensor_sample: float = 5.0
    adc_transport: float = 10.0
    compute: float = 5.0
    command_transport: float = 10.0
    controller_process: float = 5.0
    mech_motion: float = 50.0  # budgeted allowance for the mechanical sweep

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigurationError(f"{f.name} must be non-negative")

    @property
    def sensor_path(self) -> float:
        return self.sensor_sample + self.adc_transport

    @property
    def command_path(self) -> float:
        return self.compute + self.command_transport + self.controller_process

    @property
    def data_path(self) -> float:
        """Sum of the transport-delay stages (everything but the sweep)."""
        return self.sensor_path + self.command_path

    @property
    def total(self) -> float:
        return self.data_path + self.mech_motion


@dataclass(frozen=True)
class SimulationConfig:
    timestep: float = 1.0        # ms
    seed: int = 0
    mode: str = "deterministic"  # "deterministic" | "concurrent"
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    settle_tail_ms: float = 200.0  # extra time simulated past the last sample

    def __post_init__(self):
        if self.timestep <= 0:
            raise ConfigurationError("timestep must be positive")
        if self.mode not in ("deterministic", "concurrent"):
            raise ConfigurationError("mode must be deterministic or concurrent")
        if self.settle_tail_ms < 0:
            raise ConfigurationError("settle_tail_ms must be non-negative")


@dataclass(frozen=True)
class LatencyRecord:
    intention_t: float  # ms, Z threshold crossing in the trace timeline
    action_t: float     # ms, key-on emission

    def __post_init__(self):
        if self.action_t < self.intention_t:
            raise InputError("action_t must not precede intention_t")

    @property
    def delay(self) -> float:
        return self.action_t - self.intention_t


@dataclass
class EventLog:
    events: list[KeyEvent] = field(default_factory=list)
    latencies: list[LatencyRecord] = field(default_factory=list)
    # one (t, theta_h_counts, theta_v_counts, tip_x, tip_z) tuple per step
    steps: list[tuple[float, int, int, float, float]] = field(default_factory=list)
    intentions: list[float] = field(default_factory=list)
    air_presses: list[float] = field(default_factory=list)


def midi_velocity(angular_speed: float, v_cap: float) -> int:
    """Map a press-axis speed (deg/s) to MIDI velocity 1..127."""
    if angular_speed < 0:
        raise InputError("angular_speed must be non-negative")
    return min(max(round_half_up(127.0 * angular_speed / v_cap), 1), 127)


def intention_detect(trace: SensorTrace, calib: CalibrationSet,
                     params: ControlParams) -> list[float]:
    """Timestamps of upward Z-threshold crossings in the raw trace.

    A refractory window after each detection swallows the landing spike of
    the same press cycle, so one press cycle yields one intention.
    """
    t = trace.samples["t"]
    above = trace.samples["acc_z_adc"] >= calib.z_min + params.z_threshold
    # upward crossings; the trace starts below the threshold
    rising = np.flatnonzero(above & np.concatenate(([True], ~above[:-1])))
    out: list[float] = []
    refractory_until = -math.inf
    for t_up in t[rising].tolist():
        if t_up >= refractory_until:
            out.append(t_up)
            refractory_until = t_up + params.z_refractory_ms
    return out


def _run_axis(law, feedback: tuple[float, float] | None, times: np.ndarray,
              n_steps: int, dt: float, lat: LatencyConfig,
              axis: plant.MotorAxis) -> list[tuple]:
    """One axis pipeline over ``n_steps`` steps; returns its state after each.

    ``law()`` maps the samples taken at ``times`` to the axis's setpoints,
    and to their profile velocities when ``feedback`` is None. With
    ``feedback = (kp, v_cap)`` each velocity is set when its sample arrives,
    ``min(kp * |setpoint - encoder_count|, v_cap)``.
    """
    if feedback is None:
        setpoints, limits = law()
    else:
        setpoints, (kp, v_cap) = law(), feedback
    feed_t = (times + lat.sensor_path).tolist() + [math.inf]  # inf: none left to feed
    apply_t = (times + lat.data_path).tolist()
    state = (0.0, 0.0, 0)  # (angle, velocity, encoder_count) at drive enable
    setpoint, limit = 0, 0.0
    pending: deque[tuple[float, int, float]] = deque()  # (apply_t, setpoint, limit)
    states = []
    si = 0
    for k in range(1, n_steps + 1):
        t = k * dt

        # feed every sample whose sensor path completes within this step
        while feed_t[si] <= t:
            sp = setpoints[si]
            v = limits[si] if feedback is None else min(kp * abs(sp - state[2]), v_cap)
            pending.append((apply_t[si], sp, v))
            si += 1

        # commands take effect no later than their effective instant:
        # one falling in (t - dt, t] acts over that whole step
        while pending and pending[0][0] <= t:
            _, setpoint, limit = pending.popleft()

        state = plant.axis_step(state, setpoint, limit, dt, axis)
        states.append(state)
    return states


def run(trace: SensorTrace, calibration: CalibrationSet,
        config: "GlobalConfig") -> EventLog:
    """Simulate a full trace; returns the event log.

    Deterministic for fixed inputs: identical trace, calibration and
    configuration produce identical logs in either execution mode.
    """
    control.validate_calibration_ranges(calibration, config.geometry, config.axis)
    full_scale = config.divider.full_scale
    samples = trace.samples
    times = samples["t"]
    codes = [samples[name] for name in ("flex_adc", "acc_y_adc", "acc_z_adc")]
    in_range = np.logical_and.reduce([(c >= 0) & (c <= full_scale) for c in codes])
    if not in_range.all():
        s = samples[int(np.argmin(in_range))].tolist()
        raise InputError(f"sample at t={s[0]} ms carries ADC codes {s[1]}, "
                         f"{s[2]}, {s[3]}, not all in [0, {full_scale}]")
    # the control laws map float columns
    flex, acc_y, acc_z = (c.astype(float) for c in codes)

    sim = config.simulation
    lat = sim.latency
    params = config.control
    geometry = config.geometry
    mount = config.mount
    layout = config.layout
    dt = sim.timestep

    log = EventLog(intentions=intention_detect(trace, calibration, params))
    if not len(samples):
        return log

    laws = (functools.partial(control.horizontal_update, flex, calibration),
            functools.partial(control.vertical_update, acc_y, acc_z, calibration, params))
    feedbacks = ((params.kp_h, params.v_cap), None)  # horizontal, vertical

    end_t = float(times[-1]) + lat.data_path + sim.settle_tail_ms
    n_steps = int(math.ceil(end_t / dt))
    axis_run = functools.partial(_run_axis, times=times, n_steps=n_steps, dt=dt,
                                 lat=lat, axis=config.axis)
    if sim.mode == "concurrent":
        with ThreadPoolExecutor(max_workers=2) as pool:
            states_h, states_v = pool.map(axis_run, laws, feedbacks)
    else:
        states_h, states_v = map(axis_run, laws, feedbacks)

    press_height = -layout.key_travel  # tip z of a fully pressed key
    pressed: Key | None = None
    ii = 0  # intentions before this index are used up
    prev_tip_z = mount.base_z - kinematics.press_drop(0.0, geometry)  # drive enable
    for k, (state_h, state_v) in enumerate(zip(states_h, states_v), start=1):
        t = k * dt
        tip_x, tip_z = kinematics.keyline_position(mount.heading + state_h[0], state_v[0],
                                                   geometry, mount)
        log.steps.append((t, state_h[2], state_v[2], tip_x, tip_z))

        if pressed is None and prev_tip_z > press_height >= tip_z:
            # a press, on a key or in the air, uses up every intention so
            # far; a key-on is charged to the latest one not yet used
            upto = bisect.bisect_right(log.intentions, t)
            key = key_at(tip_x, mount.depth, layout)
            if key is None:
                log.air_presses.append(t)
            else:
                velocity = midi_velocity(abs(state_v[1]), params.v_cap)
                log.events.append(KeyEvent(t, "on", key.index, velocity))
                pressed = key
                if upto > ii:
                    log.latencies.append(LatencyRecord(log.intentions[upto - 1], t))
            ii = upto
        elif pressed is not None and tip_z > press_height >= prev_tip_z:
            log.events.append(KeyEvent(t, "off", pressed.index))
            pressed = None

        prev_tip_z = tip_z

    if pressed is not None:
        # trace ended mid-press: release so on/off stay balanced
        log.events.append(KeyEvent(n_steps * dt, "off", pressed.index))
    return log


def write_event_csv(log: EventLog, path) -> None:
    with open(path, "w", newline="") as f:
        f.write("t_ms,kind,key_index,note_name,velocity\n")
        for e in log.events:
            name = note_name(MIDI_A0 + e.key_index)
            velocity = "" if e.velocity is None else str(e.velocity)
            f.write(f"{e.t:.3f},{e.kind},{e.key_index},{name},{velocity}\n")


def write_step_csv(log: EventLog, path) -> None:
    with open(path, "w", newline="") as f:
        f.write("t_ms,theta_h_counts,theta_v_counts,tip_x,tip_z\n")
        for step in log.steps:
            f.write("%.3f,%d,%d,%.6f,%.6f\n" % step)


def write_latency_csv(log: EventLog, path) -> None:
    with open(path, "w", newline="") as f:
        f.write("intention_ms,action_ms,delay_ms\n")
        for r in log.latencies:
            f.write(f"{r.intention_t:.3f},{r.action_t:.3f},{r.delay:.3f}\n")


def read_latency_csv(path) -> list[LatencyRecord]:
    records = []
    with open(path) as f:
        header = f.readline().strip()
        if header != "intention_ms,action_ms,delay_ms":
            raise InputError(f"{path}: not a latency log")
        for line in f:
            line = line.strip()
            if not line:
                continue
            intention, action, _ = line.split(",")
            records.append(LatencyRecord(float(intention), float(action)))
    return records
