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
vertical axis. A run works on columns, one entry per step:

1. The control laws map the trace's ADC code columns once, and numpy turns
   the sample times into each axis's command schedule: the sample applied
   over each step and the runs of steps under one setpoint, as ``array``s.
2. ``plant.run_axis`` steps each axis through its schedule in one scalar
   loop, writing angles and velocities into buffers allocated beforehand;
   the horizontal loop adds the feedback on its own encoder count.
3. Encoder counts and fingertip positions follow from the angle columns,
   and the key-on and key-off crossings from the fingertip height column.
   Only those crossings are visited one by one, to look up the key, the
   velocity and the intention they are charged to.

The step log keeps the columns as one structured array. Both execution
modes produce byte-identical logs: they differ only in step 2, which runs
inline or as two whole-axis tasks on two threads.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
from array import array
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from . import control, kinematics, plant
from .control import CalibrationSet, ControlParams
from .errors import ConfigurationError, InputError, require
from .piano import Key, KeyEvent, MIDI_A0, key_at, note_name
from .sensors import SAMPLE_DTYPE, SensorTrace, blocks, check_adc_codes, fixed_point_rows

MODES = ("deterministic", "concurrent")  # execution modes; see the module docstring
# a run, or a synthesized trace, of more steps is rejected before any
# per-step column is allocated
MAX_STEPS = 10_000_000
STEP_DTYPE = np.dtype([("t", float), ("theta_h_counts", np.int64),
                       ("theta_v_counts", np.int64), ("tip_x", float),
                       ("tip_z", float)])

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
        require(self, "non-negative", *(f.name for f in fields(self)))

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
    mode: str = "deterministic"  # one of MODES
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    settle_tail_ms: float = 200.0  # extra time simulated past the last sample

    def __post_init__(self):
        require(self, "positive", "timestep")
        require(self, "non-negative", "seed")
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be {' or '.join(MODES)}")
        require(self, "non-negative", "settle_tail_ms")


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


@dataclass(eq=False)
class EventLog:
    """What a run produced. ``steps`` holds one ``STEP_DTYPE`` record per
    step; compare logs field by field and the steps column by column:
    ``==`` on arrays is element-wise."""

    events: list[KeyEvent] = field(default_factory=list)
    latencies: list[LatencyRecord] = field(default_factory=list)
    steps: np.ndarray = field(default_factory=lambda: np.empty(0, STEP_DTYPE))
    intentions: list[float] = field(default_factory=list)
    air_presses: list[float] = field(default_factory=list)


def midi_velocity(angular_speed: float, v_cap: float) -> int:
    """Map a press-axis speed (deg/s) to MIDI velocity 1..127."""
    if not angular_speed >= 0:
        raise InputError("angular_speed must be non-negative")
    return min(max(plant.round_half_away(127.0 * angular_speed / v_cap), 1), 127)


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


def _axis_buffers(n_steps: int) -> tuple[array, array]:
    """Zeroed angle and velocity buffers: the drive-enable state, then one
    entry per step."""
    zeros = array("d", [0.0]) * (n_steps + 1)
    return zeros, array("d", zeros)


def _runs(step_setpoints: np.ndarray):
    """``(first, stop, setpoint)`` of each run of steps under one setpoint from
    three ``array('q')``; ``step_setpoints[k - 1]`` is the setpoint over step k."""
    first = np.flatnonzero(np.diff(step_setpoints, prepend=step_setpoints[:1] + 1)) + 1
    stop = np.append(first[1:], len(step_setpoints) + 1)
    return zip(*(array("q", c.tobytes()) for c in (first, stop, step_setpoints[first - 1])))


def run(trace: SensorTrace, calibration: CalibrationSet,
        config: "GlobalConfig") -> EventLog:
    """Simulate a full trace; returns the event log.

    Deterministic for fixed inputs: identical trace, calibration and
    configuration produce identical logs in either execution mode.
    """
    control.validate_calibration_ranges(calibration, config)
    check_adc_codes(trace, config.sensors)
    samples = trace.samples
    times = samples["t"]

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
    end_t = float(times[-1]) + lat.data_path + sim.settle_tail_ms
    if not end_t / dt <= MAX_STEPS:
        raise InputError(
            f"simulating to t={end_t} ms in steps of {dt} ms needs more than "
            f"{MAX_STEPS} steps")
    n_steps = int(math.ceil(end_t / dt))

    # the command schedule, one entry per step: the last sample whose
    # command is due by the step's end time acts over the whole step; -1 (no
    # sample yet) reads the sentinel appended to each per-sample column
    step_t = np.arange(1, n_steps + 1) * dt
    applied = np.searchsorted(times + lat.data_path, step_t, "right") - 1
    # buffer index of the state a sample's command is sent from: the state
    # before the step its sensor path completes in
    sent_from = np.searchsorted(step_t, times + lat.sensor_path)
    # the control laws map float columns to stdlib arrays, here viewed by numpy
    flex, acc_y, acc_z = (samples[name].astype(float) for name in SAMPLE_DTYPE.names[1:])
    setpoints_h, setpoints_v, limits_v = (
        np.append(np.frombuffer(c, c.typecode), 0) for c in (
            control.horizontal_update(flex, calibration),
            *control.vertical_update(acc_y, acc_z, calibration, params)))

    angles_h, velocities_h = _axis_buffers(n_steps)
    angles_v, velocities_v = _axis_buffers(n_steps)
    tasks = (
        functools.partial(plant.run_axis, angles_h, velocities_h,
                          _runs(setpoints_h[applied]),
                          array("q", np.append(sent_from, 0)[applied].tobytes()), dt,
                          config.axis, (params.kp_h, params.v_cap)),
        functools.partial(plant.run_axis, angles_v, velocities_v, _runs(setpoints_v[applied]),
                          array("d", limits_v[applied].tobytes()), dt, config.axis))
    if sim.mode == "concurrent":
        errors = []  # what the workers raised; the first is raised again here

        def work(task):
            try:
                task()
            except Exception as exc:
                errors.append(exc)

        workers = [threading.Thread(target=work, args=(task,)) for task in tasks]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        if errors:
            raise errors[0]
    else:
        for task in tasks:
            task()
    # the per-sample columns and the schedules go before the step log is built
    del flex, acc_y, acc_z, setpoints_h, setpoints_v, limits_v, applied, sent_from, tasks

    theta_h = np.frombuffer(angles_h)[1:]
    theta_v = np.frombuffer(angles_v)[1:]
    tip_x, tip_z = kinematics.keyline_position(mount.heading + theta_h, theta_v,
                                               geometry, mount, np)
    log.steps = np.empty(n_steps, STEP_DTYPE)
    log.steps["t"] = step_t
    log.steps["theta_h_counts"] = plant.encoder_count_column(theta_h, config.axis)
    log.steps["theta_v_counts"] = plant.encoder_count_column(theta_v, config.axis)
    log.steps["tip_x"] = tip_x
    log.steps["tip_z"] = tip_z

    # key-on and key-off crossings of the full-press height
    press_height = -layout.key_travel  # tip z of a fully pressed key
    hover_z = mount.base_z - kinematics.press_drop(0.0, geometry)  # drive enable
    prev_tip_z = np.concatenate(([hover_z], tip_z[:-1]))
    down = (prev_tip_z > press_height) & (press_height >= tip_z)
    up = (tip_z > press_height) & (press_height >= prev_tip_z)
    at = np.flatnonzero(down | up)
    pressed: Key | None = None
    ii = 0  # intentions before this index are used up
    for t, is_down, x, speed in zip(step_t[at].tolist(), down[at].tolist(),
                                    tip_x[at].tolist(),
                                    np.abs(np.frombuffer(velocities_v)[at + 1]).tolist()):
        if pressed is None and is_down:
            # a press, on a key or in the air, uses up every intention so
            # far; a key-on is charged to the latest one not yet used
            upto = bisect.bisect_right(log.intentions, t)
            key = key_at(x, mount.depth, layout)
            if key is None:
                log.air_presses.append(t)
            else:
                velocity = midi_velocity(speed, params.v_cap)
                log.events.append(KeyEvent(t, "on", key.index, velocity))
                pressed = key
                if upto > ii:
                    log.latencies.append(LatencyRecord(log.intentions[upto - 1], t))
            ii = upto
        elif pressed is not None and not is_down:
            log.events.append(KeyEvent(t, "off", pressed.index))
            pressed = None

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
    """One ``%.3f,%d,%d,%.6f,%.6f`` row per step, each block of rows spelled
    by ``fixed_point_rows``."""
    scratch = {}
    with open(path, "wb") as f:
        f.write(b"t_ms,theta_h_counts,theta_v_counts,tip_x,tip_z\n")
        for block in blocks(log.steps):
            f.write(fixed_point_rows([block[name] for name in STEP_DTYPE.names],
                                     (3, 0, 0, 6, 6), (b",", b",", b",", b",", b"\n"),
                                     scratch))


def write_latency_csv(log: EventLog, path) -> None:
    with open(path, "w", newline="") as f:
        f.write("intention_ms,action_ms,delay_ms\n")
        for r in log.latencies:
            f.write(f"{r.intention_t:.3f},{r.action_t:.3f},{r.delay:.3f}\n")


def read_latency_csv(path) -> list[LatencyRecord]:
    """Read a log written by ``write_latency_csv``. Each non-blank row must
    hold three finite numbers, the action not before the intention; any
    other row raises an ``InputError`` that names the file and line."""
    records = []
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip()
            if header != "intention_ms,action_ms,delay_ms":
                raise InputError("not a latency log")
            for lineno, line in enumerate(f, start=2):
                row = line.strip()
                if not row:
                    continue
                try:
                    values = [float(v) for v in row.split(",")]
                    if len(values) != 3:
                        raise ValueError(f"expected 3 columns, found {len(values)}")
                    if not all(map(math.isfinite, values)):
                        raise ValueError(f"{row!r} holds a non-finite value")
                    records.append(LatencyRecord(values[0], values[1]))
                except (ValueError, InputError) as exc:
                    raise InputError(f"line {lineno}: {exc}") from None
    except (UnicodeDecodeError, InputError) as exc:
        raise InputError(f"{path}: {exc}") from None
    return records
