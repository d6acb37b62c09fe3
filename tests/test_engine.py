import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robothumb import engine, synth
from robothumb.control import calibrate_from_trace
from robothumb.engine import (MAX_STEPS, STEP_DTYPE, EventLog, LatencyConfig,
                              LatencyRecord, SimulationConfig, intention_detect,
                              midi_velocity, run)
from robothumb.errors import ConfigurationError, InputError
from robothumb.plant import MotorAxis
from robothumb.sensors import SensorTrace


def make_trace(rows, period=1.0):
    flex, acc_y, acc_z = zip(*rows)
    return SensorTrace.from_columns([i * period for i in range(len(rows))],
                                    flex, acc_y, acc_z, [""] * len(rows), period)


def press_fixture(cfg, key_index=46, speed=0.5, repeat=1):
    return synth.press_trace(cfg, key_index, speed=speed, repeat=repeat)


def assert_logs_equal(log_a, log_b):
    """Every field of two logs equal, the step log column by column."""
    for f in dataclasses.fields(EventLog):
        a, b = getattr(log_a, f.name), getattr(log_b, f.name)
        if f.name == "steps":
            assert a.dtype == b.dtype == STEP_DTYPE
            for column in STEP_DTYPE.names:
                assert a[column].tolist() == b[column].tolist(), column
        else:
            assert a == b, f.name


def test_midi_velocity_map():
    assert midi_velocity(400.0, 400.0) == 127
    assert midi_velocity(0.0, 400.0) == 1
    assert midi_velocity(200.0, 400.0) == 64  # 63.5 rounds half up
    with pytest.raises(InputError):
        midi_velocity(-1.0, 400.0)


def test_latency_config_totals():
    lat = LatencyConfig()
    assert lat.sensor_path == 15.0
    assert lat.command_path == 20.0
    assert lat.data_path == 35.0
    assert lat.total == 85.0
    with pytest.raises(ConfigurationError):
        LatencyConfig(compute=-1.0)


def test_intention_detect_quiet_stream(cfg, calib):
    rows = [(2000, 1229, calib.z_min)] * 100
    assert intention_detect(make_trace(rows), calib, cfg.control) == []


def test_intention_detect_single_pulse(cfg, calib):
    rows = [(2000, 1229, calib.z_min)] * 50
    rows += [(2000, 1229, calib.z_max)] * 10
    rows += [(2000, 1229, calib.z_min)] * 50
    assert intention_detect(make_trace(rows), calib, cfg.control) == [50.0]


def test_intention_detect_refractory_and_rearm(cfg, calib):
    params = cfg.control
    quiet = (2000, 1229, calib.z_min)
    lift = (2000, 1229, calib.z_max)
    # second pulse inside the refractory window is swallowed
    rows = [quiet] * 10 + [lift] * 5 + [quiet] * 100 + [lift] * 5 + [quiet] * 10
    assert intention_detect(make_trace(rows), calib, params) == [10.0]
    # beyond the refractory window both count
    gap = int(params.z_refractory_ms) + 10
    rows = [quiet] * 10 + [lift] * 5 + [quiet] * gap + [lift] * 5 + [quiet] * 10
    out = intention_detect(make_trace(rows), calib, params)
    assert out == [10.0, 10.0 + 5 + gap]


def test_empty_trace_empty_log(cfg, calib):
    log = run(SensorTrace.from_columns([], [], [], [], [], 1.0), calib, cfg)
    assert log.events == [] and log.latencies == []
    assert len(log.steps) == 0 and log.steps.dtype == STEP_DTYPE


def test_out_of_range_adc_codes_rejected(cfg, calib):
    rows = [(5000, 1229, 1474)] * 3  # 5000 exceeds 12-bit full scale
    with pytest.raises(InputError, match="ADC code"):
        run(make_trace(rows), calib, cfg)
    rows = [(2000, 1229, 1474), (2000, 10**400, 1474)]  # beyond any float
    with pytest.raises(InputError, match="ADC code"):
        run(make_trace(rows), calib, cfg)


def test_single_press_walkthrough(cfg, calib):
    """Hand-walked pipeline: one press cycle over one key.

    The foot snap at t=900 is the intention; its command becomes effective
    35 ms later (the five transport stages); the press axis then sweeps
    from hover, crossing the full-press height after its profile motion,
    which lands inside the 50 ms mechanical allowance.
    """
    trace = press_fixture(cfg, key_index=46, speed=0.5, repeat=1)
    log = run(trace, calib, cfg)
    assert [e.kind for e in log.events] == ["on", "off"]
    on, off = log.events
    assert on.key_index == 46 and off.key_index == 46
    assert log.intentions == [synth.LEAD_MS]
    assert len(log.latencies) == 1
    # data path 35 ms + mechanical sweep inside (45, 55] ms
    assert on.t == log.latencies[0].action_t
    assert 80.0 <= log.latencies[0].delay <= 90.0
    # commanded press speed 221 deg/s out of the 400 cap
    assert on.velocity == 70
    assert off.t > on.t
    assert log.air_presses == []


def test_key_on_charged_to_latest_intention(cfg, calib):
    """A foot bump at t=50 ms that presses nothing (Z pulses, Y stays down)
    must not be charged to the real press that follows."""
    press = press_fixture(cfg, key_index=46, repeat=1)
    _, z_bump = synth.accel_codes(cfg, 0.0, 0.5)
    samples = press.samples.copy()
    samples["acc_z_adc"][(50.0 <= samples["t"]) & (samples["t"] < 130.0)] = z_bump
    log = run(SensorTrace(samples, press.labels, 1.0), calib, cfg)
    assert log.intentions == [50.0, synth.LEAD_MS]
    assert log.air_presses == []
    [record] = log.latencies
    assert record.intention_t == synth.LEAD_MS
    assert record == run(press, calib, cfg).latencies[0]
    assert 80.0 <= record.delay <= 90.0


@pytest.fixture(scope="module")
def scale_run(cfg, calib):
    trace = synth.scale_trace(cfg, [44, 46, 48])
    return trace, run(trace, calib, cfg)


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_press_free_z_bumps_keep_latency_records(cfg, calib, scale_run, data):
    """Z bumps with the foot down, outside each press cycle and the
    refractory window before it, never change an existing latency record."""
    trace, log = scale_run
    t = trace.samples["t"]
    assert len(log.latencies) == 3
    edges = [0.0]
    for t_up in log.intentions:
        edges += [t_up - cfg.control.z_refractory_ms, t_up + synth.PRESS_CYCLE_MS]
    edges.append(float(t[-1]) + trace.sample_period)
    quiet = list(zip(edges[0::2], edges[1::2]))  # [lo, hi) spans in ms
    samples = trace.samples.copy()
    for _ in range(data.draw(st.integers(1, 4))):
        lo, hi = data.draw(st.sampled_from(quiet))
        start = data.draw(st.integers(int(lo), int(hi) - 1))
        end = data.draw(st.integers(start + 1, int(hi)))
        z = data.draw(st.integers(0, cfg.divider.full_scale))
        samples["acc_z_adc"][(t >= start) & (t < end)] = z
    bumped = run(SensorTrace(samples, trace.labels, trace.sample_period), calib, cfg)
    assert bumped.latencies == log.latencies
    assert bumped.air_presses == []


def test_press_velocity_scales_with_foot_speed(cfg, calib):
    velocities = []
    for speed in (0.3, 0.6, "max"):
        log = run(press_fixture(cfg, speed=speed), calib, cfg)
        velocities.append(log.events[0].velocity)
    assert velocities == sorted(velocities)
    assert velocities[-1] == 127


def test_causality_and_no_lost_events(cfg, calib):
    trace = press_fixture(cfg, repeat=5)
    log = run(trace, calib, cfg)
    ons = [e for e in log.events if e.kind == "on"]
    offs = [e for e in log.events if e.kind == "off"]
    assert len(ons) == 5 and len(offs) == 5
    data_path = cfg.simulation.latency.data_path
    for record in log.latencies:
        assert record.action_t >= record.intention_t + data_path
    # alternation per key in time order
    kinds = [e.kind for e in sorted(log.events, key=lambda e: e.t)]
    assert kinds == ["on", "off"] * 5


def test_latency_composition_instantaneous_plant(cfg, calib):
    """With zero mechanical allowance and an instantaneous plant the
    measured delay is exactly the sum of the transport stages."""
    inst = dataclasses.replace(
        cfg,
        axis=MotorAxis(v_max=math.inf, a_max=math.inf),
        control=dataclasses.replace(cfg.control, v_cap=math.inf, kv_z=math.inf),
        simulation=dataclasses.replace(
            cfg.simulation,
            latency=dataclasses.replace(cfg.simulation.latency, mech_motion=0.0)))
    log = run(press_fixture(cfg, repeat=3), calib, inst)
    assert [r.delay for r in log.latencies] == [35.0, 35.0, 35.0]


def test_determinism_and_mode_equivalence(cfg, calib):
    # the rear-zone scale retargets across white and black keys, so the
    # horizontal law's feedback on its own encoder count matters
    rear = dataclasses.replace(cfg, mount=dataclasses.replace(cfg.mount, depth=60.0))
    rear_calib = calibrate_from_trace(synth.calibration_trace(rear),
                                      synth.anchors_from_config(rear))
    cases = [(cfg, calib, press_fixture(cfg, repeat=2)),
             (rear, rear_calib, synth.scale_trace(rear, list(range(43, 49))))]
    for run_cfg, run_calib, trace in cases:
        concurrent = dataclasses.replace(
            run_cfg, simulation=dataclasses.replace(run_cfg.simulation,
                                                    mode="concurrent"))
        log_a = run(trace, run_calib, run_cfg)
        log_b = run(trace, run_calib, run_cfg)
        log_c = run(trace, run_calib, concurrent)
        log_d = run(trace, run_calib, concurrent)
        for log in (log_b, log_c, log_d):
            assert_logs_equal(log, log_a)
    on_keys = {e.key_index for e in log_a.events if e.kind == "on"}
    assert {45, 47} <= on_keys  # both black keys of the walk were pressed


def test_air_press_logged_not_emitted(cfg):
    """A press beyond the last key logs an air press and no event."""
    mount = dataclasses.replace(cfg.mount, base_x=1250.0)
    air_cfg = dataclasses.replace(cfg, mount=mount,
                                  reach_near_x=1200.0, reach_far_x=1240.0)
    anchors = synth.anchors_from_config(air_cfg)
    calib = calibrate_from_trace(synth.calibration_trace(air_cfg), anchors)
    flex_target = synth.flex_code_for_key(
        air_cfg, air_cfg.layout.keys[87], anchors)  # C8 center 1210.25 mm, on keyboard
    # retune the flex code to aim past the keyboard edge (x = 1240)
    target_counts = synth.horizontal_counts_for_x(air_cfg, 1240.0)
    from robothumb.control import linear_map
    from robothumb.plant import round_half_away
    flex_air = round_half_away(linear_map(
        target_counts, calib.enc_h_min, calib.enc_h_max,
        calib.flex_min, calib.flex_max))
    y_down, z_rest = synth.accel_codes(air_cfg, 0.0, 0.0)
    y_up, _ = synth.accel_codes(air_cfg, synth.FOOT_UP_PITCH_DEG, 0.0)
    _, z_pulse = synth.accel_codes(air_cfg, 0.0, 0.5)
    rows = [(flex_air, y_down, z_rest)] * 900
    rows += [(flex_air, y_up, z_pulse)] * 160
    rows += [(flex_air, y_up, z_rest)] * 40
    rows += [(flex_air, y_down, z_pulse)] * 160
    rows += [(flex_air, y_down, z_rest)] * 200
    log = run(make_trace(rows), calib, air_cfg)
    assert log.events == []
    assert len(log.air_presses) == 1
    assert flex_target != flex_air  # sanity: the on-keyboard aim differs


def test_forced_release_at_end_of_trace(cfg, calib):
    full = press_fixture(cfg, repeat=1)
    # truncate right after the press lands, before the foot drops
    cut = int(synth.LEAD_MS + 150)
    truncated = SensorTrace(full.samples[:cut], full.labels[:cut], 1.0)
    log = run(truncated, calib, cfg)
    kinds = [e.kind for e in log.events]
    assert kinds == ["on", "off"]
    assert log.events[1].t == log.steps["t"][-1]  # released at simulation end


def test_step_log_matches_timestep(cfg, calib):
    trace = press_fixture(cfg)
    log = run(trace, calib, cfg)
    times = log.steps["t"].tolist()
    assert times[0] == cfg.simulation.timestep
    dts = {round(b - a, 9) for a, b in zip(times, times[1:])}
    assert dts == {cfg.simulation.timestep}


def test_sparse_trace_runs_every_step_of_its_span(cfg, calib):
    """Two samples 100 s apart: the run still spans the whole gap, one
    step per timestep, to the last sample plus data path and settle tail."""
    trace = SensorTrace.from_columns([0.0, 100000.0], [2000] * 2, [1229] * 2,
                                     [calib.z_min] * 2, ["", ""], 100000.0)
    log = run(trace, calib, cfg)
    assert len(log.steps) == 100235
    assert log.steps["t"][-1] == 100235.0


def test_span_beyond_step_limit_rejected(cfg, calib, monkeypatch):
    """One sample at t = 1e12 ms would need 10**12 steps; it is rejected
    before any per-step column is allocated."""
    far = SensorTrace.from_columns([1e12], [2000], [1229], [calib.z_min], [""], 1.0)
    with pytest.raises(InputError, match=f"more than {MAX_STEPS} steps"):
        run(far, calib, cfg)
    # at a small limit, a span of exactly the limit runs and one step more fails
    monkeypatch.setattr(engine, "MAX_STEPS", 1000)
    tail = cfg.simulation.latency.data_path + cfg.simulation.settle_tail_ms
    for t_last, steps in ((1000.0 - tail, 1000), (1001.0 - tail, None)):
        trace = SensorTrace.from_columns([t_last], [2000], [1229], [calib.z_min],
                                         [""], 1.0)
        if steps is None:
            with pytest.raises(InputError, match="more than 1000 steps"):
                run(trace, calib, cfg)
        else:
            assert len(run(trace, calib, cfg).steps) == steps


def test_csv_writers_round_trip(tmp_path, cfg, calib):
    log = run(press_fixture(cfg), calib, cfg)
    events = tmp_path / "events.csv"
    steps = tmp_path / "steps.csv"
    latency = tmp_path / "latency.csv"
    engine.write_event_csv(log, events)
    engine.write_step_csv(log, steps)
    engine.write_latency_csv(log, latency)
    assert events.read_text().splitlines()[0] == "t_ms,kind,key_index,note_name,velocity"
    assert steps.read_text().splitlines()[0] == "t_ms,theta_h_counts,theta_v_counts,tip_x,tip_z"
    records = engine.read_latency_csv(latency)
    assert [r.delay for r in records] == [r.delay for r in log.latencies]


STEP_HEADER = "t_ms,theta_h_counts,theta_v_counts,tip_x,tip_z\n"


def per_row_step_text(steps) -> str:
    """The step CSV formatted one ``%`` per row: the writer's reference."""
    return STEP_HEADER + "".join("%.3f,%d,%d,%.6f,%.6f\n" % row
                                 for row in steps.tolist())


def near_rounding_ties():
    """Floats within 2 ulps of a tie of ``%.6f`` rounding, either sign."""
    out = []
    for tie in (0.5e-6, 2.5e-6, 0.0000125, 1.2345675, 123.4565, -7.0000005):
        x = np.float64(tie)
        for _ in range(2):
            x = np.nextafter(x, -np.inf)
        for _ in range(5):
            out.append(float(x))
            x = np.nextafter(x, np.inf)
    return out


STEP_FLOATS = ([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0,
                -1.5, 1e300, -1e-300, 5e-324, 0.1, 664.3249999] + near_rounding_ties())
STEP_INTS = [0, -1, 1, 16_384, -(2**63), 2**63 - 1, 2**62 + 1, -(2**62) - 1]
SIGNED_PAIRS = [[0.0, -0.0], [math.nan, -math.nan], [math.inf, -math.inf]]


def step_log(t, counts_h, counts_v, tip_x, tip_z) -> EventLog:
    steps = np.empty(len(t), STEP_DTYPE)
    for name, column in zip(STEP_DTYPE.names, (t, counts_h, counts_v, tip_x, tip_z)):
        steps[name] = column
    return EventLog(steps=steps)


@st.composite
def step_columns(draw):
    """Five step columns drawn from small pools, so values repeat."""
    n = draw(st.integers(0, 40))
    columns = []
    for pool in (STEP_FLOATS, STEP_INTS, STEP_INTS, STEP_FLOATS, STEP_FLOATS):
        values = st.lists(st.sampled_from(pool), min_size=1, max_size=4)
        if pool is STEP_FLOATS:
            values |= st.sampled_from(SIGNED_PAIRS)
        values = draw(values)
        columns.append(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    return columns


@settings(deadline=None)
@given(step_columns())
def test_step_csv_matches_per_row_format(tmp_path_factory, columns):
    log = step_log(*columns)
    path = tmp_path_factory.getbasetemp() / "steps_property.csv"
    engine.write_step_csv(log, path)
    assert path.read_text() == per_row_step_text(log.steps)


def assert_same_text(text, expected):
    """``text == expected``, a mismatch reported at its first differing line
    rather than as a diff of the whole file."""
    lines, expected_lines = text.splitlines(True), expected.splitlines(True)
    for lineno, (line, expected_line) in enumerate(zip(lines, expected_lines), 1):
        assert line == expected_line, f"line {lineno}"
    assert len(lines) == len(expected_lines)


@pytest.mark.parametrize("n", [65_535, 65_536, 65_537])
def test_step_csv_matches_per_row_format_at_block_edges(n, tmp_path):
    """Columns of repeated values across the edges of a 65,536-row block."""
    rng = np.random.default_rng(n)
    log = step_log(np.arange(n) * 0.5 - 3.0,
                   rng.choice(STEP_INTS, n), rng.integers(-140, 140, n),
                   rng.choice(STEP_FLOATS, n), rng.integers(-3, 4, n) * 0.25)
    engine.write_step_csv(log, tmp_path / "steps.csv")
    assert_same_text((tmp_path / "steps.csv").read_text(), per_row_step_text(log.steps))


def test_latency_record_invariant():
    with pytest.raises(InputError):
        LatencyRecord(intention_t=100.0, action_t=90.0)
    assert LatencyRecord(10.0, 95.0).delay == 85.0


def test_simulation_config_validation():
    with pytest.raises(ConfigurationError):
        SimulationConfig(timestep=0.0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(mode="parallel")
    with pytest.raises(ConfigurationError, match="seed must be non-negative"):
        SimulationConfig(seed=-1)
    assert SimulationConfig(seed=0).seed == 0
