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
vertical axis. A run works on columns, one entry per step, one block of
``sensors.BLOCK_ROWS`` steps at a time:

1. The control laws map the ADC codes of the samples the block applies, and
   numpy turns their times into each axis's command schedule over the
   block, as numpy columns with one entry per step: the setpoint of the
   sample applied over the step, with the vertical profile velocity, or
   for the horizontal axis the buffer index of the state the command was
   sent from.
2. ``plant.run_axis`` resumes each axis from its state after the previous
   block and steps it through the block's schedule in one scalar loop over
   steps, which reads a run's setpoint and target at its first step and
   skips the steps the axis holds still. It writes angles, and the vertical
   velocities, into buffers allocated for the block: the vertical ones
   hold the block's steps, the horizontal one holds the states commands
   are sent from before them too, for the feedback on its own encoder
   count.
3. Encoder counts and fingertip positions follow from the angle columns
   into the block's rows of the step log, and the key-on and key-off
   crossings from the fingertip height column. Only those crossings are
   visited one by one, to look up the key, the velocity and the intention
   they are charged to.

A block hands the next one only: how many samples are due, each axis's
angle and velocity, the horizontal angles of the states later commands are
sent from (a window of about the command path plus one sample period, or
the settle tail after the last sample), the last tip height, the key held
down and the intentions used up. Each block is stepped by a function of
its own, so its columns are freed before the next block makes its own. So
beyond the trace, the step log (one structured array) and the events, a run
holds one block's columns. The two execution modes, chosen by ``run``'s
``concurrent`` argument, produce byte-identical logs: they differ only in
step 2. The calling thread steps the horizontal axis in both; the vertical
axis steps after it, or at the same time on one thread started for the
block.
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
from .errors import InputError, require
from .piano import Key, KeyEvent, MIDI_A0, key_at, note_name
from .sensors import (BLOCK_ROWS, SensorTrace, blocks, check_adc_codes,
                      fixed_point_rows)

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
    timestep: float = 1.0  # ms
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    settle_tail_ms: float = 200.0  # extra time simulated past the last sample

    def __post_init__(self):
        require(self, "positive", "timestep")
        require(self, "non-negative", "settle_tail_ms")


@dataclass(frozen=True)
class LatencyRecord:
    intention_t: float  # ms, Z threshold crossing in the trace timeline
    action_t: float     # ms, key-on emission

    def __post_init__(self):
        if not self.action_t >= self.intention_t:  # NaN fails too
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


class _Worker(threading.Thread):
    """Calls ``task`` on a thread of its own, started here; ``result`` waits
    for it, then returns what the task returned or raises again what it
    raised."""

    def __init__(self, task):
        super().__init__()
        self.task, self.error = task, None
        self.start()

    def run(self):
        try:
            self.value = self.task()
        except Exception as exc:
            self.error = exc

    def result(self):
        self.join()
        if self.error is not None:
            raise self.error
        return self.value


def run(trace: SensorTrace, calibration: CalibrationSet, config: "GlobalConfig",
        concurrent: bool = False) -> EventLog:
    """Simulate a full trace; returns the event log.

    ``concurrent`` steps each block's vertical axis on a thread of its own
    while the calling thread steps the horizontal one; what that thread
    raises, the run raises. Deterministic for fixed inputs: identical trace,
    calibration and configuration produce identical logs in either
    execution mode.
    """
    control.validate_calibration_ranges(calibration, config)
    check_adc_codes(trace, config.sensors)
    samples = trace.samples
    times = samples["t"]

    sim = config.simulation
    lat = sim.latency
    params = config.control
    mount = config.mount
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
    log.steps = np.empty(n_steps, STEP_DTYPE)

    press_height = -config.layout.key_travel  # tip z of a fully pressed key
    # what one block hands the next: the samples due by its last step, the
    # horizontal angles of states ``window_at`` .. ``start`` (the states later
    # commands are sent from), each axis's state, the last tip height, the
    # key held down and the intentions used up
    due = 0
    window_at, window = 0, array("d", [0.0])
    state_h = state_v = (0.0, 0.0)  # drive enable
    prev_tip_z = mount.base_z - kinematics.press_drop(0.0, config.geometry)
    pressed: Key | None = None
    ii = 0  # intentions before this index are used up

    # a block's columns are locals of this function, so they are freed
    # before the next block allocates its own
    def step_block(start: int, stop: int) -> None:
        nonlocal due, window_at, window, state_h, state_v, prev_tip_z, pressed, ii
        # the end time of each step from the window's first state on; how many
        # lie below a time is the window index of the state before its step
        ends = np.arange(window_at + 1, stop + 1) * dt
        step_t = ends[start - window_at:]
        # samples lo .. hi - 1 hold every sample applied over the block: the
        # last one due before it and those falling due in it, and perhaps a
        # few more that a rounded search lets in
        lo = max(due - 1, 0)
        hi = int(np.searchsorted(times, step_t[-1] - lat.data_path, "right"))
        while hi < len(times) and times[hi] + lat.data_path <= step_t[-1]:
            hi += 1
        block = samples[lo:hi]
        # the command schedule: the last sample whose command is due by the
        # step's end time acts over the whole step; -1 (no sample yet) reads
        # the sentinel appended to each per-sample column
        applied = np.searchsorted(block["t"] + lat.data_path, step_t, "right") - 1
        due = lo + int(applied[-1]) + 1
        # the state a sample's command is sent from: the state before the
        # step its sensor path completes in. A step with no sample yet reads
        # the window's first state; like every state before the first
        # command, it is the drive-enable state.
        sent = np.append(np.searchsorted(ends, block["t"] + lat.sensor_path), 0)[applied]
        # the control laws map float columns to stdlib arrays, here viewed by numpy
        setpoints_h, setpoints_v, limits_v = (
            np.append(np.frombuffer(c, c.typecode), 0)[applied] for c in (
                control.horizontal_update(block["flex_adc"].astype(float), calibration),
                *control.vertical_update(block["acc_y_adc"].astype(float),
                                         block["acc_z_adc"].astype(float),
                                         calibration, params)))

        zeros = array("d", [0.0]) * (stop - start)  # one entry per step of the block
        angles_h, angles_v, velocities_v = window + zeros, zeros, array("d", zeros)
        step_v = functools.partial(plant.run_axis, angles_v, velocities_v, setpoints_v,
                                   limits_v, dt, config.axis, state=state_v)
        vertical = _Worker(step_v) if concurrent else None
        state_h = plant.run_axis(angles_h, None, setpoints_h, None, dt, config.axis,
                                 (params.kp_h, params.v_cap, sent), state_h)
        state_v = vertical.result() if concurrent else step_v()
        # keep the states the next block's commands can be sent from: none
        # before this block's last send, and before the first command none
        keep = window_at + int(sent[-1]) if applied[-1] >= 0 else stop
        window = angles_h[keep - window_at:]
        window_at = keep

        theta_h = np.frombuffer(angles_h)[start - stop:]  # the block's steps
        theta_v = np.frombuffer(angles_v)
        tip_x, tip_z = kinematics.keyline_position(mount.heading + theta_h, theta_v,
                                                   config.geometry, mount, np)
        rows = log.steps[start:stop]
        rows["t"] = step_t
        rows["theta_h_counts"] = plant.encoder_count_column(theta_h, config.axis)
        rows["theta_v_counts"] = plant.encoder_count_column(theta_v, config.axis)
        rows["tip_x"] = tip_x
        rows["tip_z"] = tip_z

        # key-on and key-off crossings of the full-press height
        before = np.concatenate(([prev_tip_z], tip_z[:-1]))
        down = (before > press_height) & (press_height >= tip_z)
        up = (tip_z > press_height) & (press_height >= before)
        prev_tip_z = tip_z[-1]
        at = np.flatnonzero(down | up)
        for t, is_down, x, speed in zip(step_t[at].tolist(), down[at].tolist(),
                                        tip_x[at].tolist(),
                                        np.abs(np.frombuffer(velocities_v)[at]).tolist()):
            if pressed is None and is_down:
                # a press, on a key or in the air, uses up every intention so
                # far; a key-on is charged to the latest one not yet used
                upto = bisect.bisect_right(log.intentions, t)
                key = key_at(x, mount.depth, config.layout)
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

    for start in range(0, n_steps, BLOCK_ROWS):
        step_block(start, min(start + BLOCK_ROWS, n_steps))
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
    hold three finite numbers, the action not before the intention and the
    delay the action minus the intention, to within the writer's three
    ``%.3f`` roundings (0.0005 ms each) and float error; any other row raises
    an ``InputError`` that names the file and line."""
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
                    intention, action, delay = values
                    slack = 0.0015 + 4 * math.ulp(max(map(abs, values)))
                    if not abs(delay - (action - intention)) <= slack:
                        raise ValueError(f"delay {delay!r} is not action minus "
                                         f"intention, {action - intention!r}")
                    records.append(LatencyRecord(intention, action))
                except (ValueError, InputError) as exc:
                    raise InputError(f"line {lineno}: {exc}") from None
    except (UnicodeDecodeError, InputError) as exc:
        raise InputError(f"{path}: {exc}") from None
    return records
