"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass.
"""

import dataclasses
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from smf_oracle import parse_smf

from robothumb import analysis, default_config, engine, synth
from robothumb.cli import main as cli
from robothumb.control import (CalibrationSet, calibrate_from_trace,
                               linear_map, read_kv_file)
from robothumb.errors import DegenerateCalibrationError
from robothumb.kinematics import required_torque
from robothumb.plant import (MotorAxis, counts_per_output_rev, encoder_counts,
                             round_half_away, torque_margin)

BAND_SR = 2.0 * math.pi * 2.0 * math.sin(math.radians(60.0))       # 10.8828
CAP_SR = 2.0 * math.pi * (1.0 - math.cos(math.radians(54.9)))      # 2.6703


def run_cli(*argv):
    return cli([str(a) for a in argv])


def report(number, text):
    print(f"\n[PASS] criterion {number}: {text}")


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace dir holding the default-config calibration artifacts."""
    root = tmp_path_factory.mktemp("acceptance")
    assert run_cli("synth", "calibration", "--out", root) == 0
    assert run_cli("calibrate", "--trace", root / "calibration_trace.csv",
                   "--anchors", root / "anchors.txt", "--out", root) == 0
    return root


def test_criterion_1_latency_reproduction(ws):
    start = time.perf_counter()
    assert run_cli("synth", "press", "--key", 46, "--repeat", 100,
                   "--out", ws / "c1") == 0
    assert run_cli("simulate", "--trace", ws / "c1/press_trace.csv",
                   "--calibration", ws / "calibration.txt", "--out", ws / "c1") == 0
    records = engine.read_latency_csv(ws / "c1/latency.csv")
    assert len(records) == 100
    mean = sum(r.delay for r in records) / len(records)
    assert abs(mean - 85.0) <= 2.0
    assert run_cli("analyze", "budget", "--latency", ws / "c1/latency.csv",
                   "--out", ws / "c1") == 0
    budget = read_kv_file(ws / "c1/budget_report.txt")
    assert budget["latency_pass"] == 0  # 80 ms budget flagged as exceeded
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"100 presses, mean delay {mean:.2f} ms (85 +/- 2), "
              f"80 ms budget flagged, {elapsed:.2f} s")


def test_criterion_2_workspace_ratio(ws):
    start = time.perf_counter()
    assert run_cli("synth", "sweep", "--shape", "band", "--seed", 11,
                   "--out", ws / "c2") == 0
    assert run_cli("synth", "sweep", "--shape", "cap", "--seed", 12,
                   "--out", ws / "c2") == 0
    assert run_cli("analyze", "workspace", "--dirs", ws / "c2/band_directions.csv",
                   "--ref-dirs", ws / "c2/cap_directions.csv",
                   "--bins", 100_000, "--out", ws / "c2") == 0
    values = read_kv_file(ws / "c2/workspace_report.txt")
    band, cap, ratio = (values["solid_angle_sr"], values["ref_solid_angle_sr"],
                        values["ratio"])
    assert abs(band - BAND_SR) / BAND_SR < 0.02
    assert abs(cap - CAP_SR) / CAP_SR < 0.02

    # independent Monte Carlo membership oracle over uniform sphere samples
    rng = np.random.default_rng(99)
    z = rng.uniform(-1.0, 1.0, 1_000_000)
    sin60 = math.sin(math.radians(60.0))
    cos549 = math.cos(math.radians(54.9))
    mc_band = float(np.mean(np.abs(z) <= sin60)) * 4.0 * math.pi
    mc_cap = float(np.mean(z >= cos549)) * 4.0 * math.pi
    assert abs(band - mc_band) / mc_band < 0.02
    assert abs(cap - mc_cap) / mc_cap < 0.02
    assert abs(ratio - 4.0) <= 0.2
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"band {band:.3f} sr, cap {cap:.3f} sr (both within 2% of "
              f"analytic and Monte Carlo), ratio {ratio:.2f}, {elapsed:.2f} s")


def test_criterion_3_range_increase(ws, capsys):
    assert run_cli("analyze", "range", "--calibration", ws / "calibration.txt",
                   "--out", ws) == 0
    values = read_kv_file(ws / "range_report.txt")
    assert values["whole_notes_beyond_pinkie"] == 4
    capsys.readouterr()
    report(3, "default fixture reaches exactly 4 whole notes beyond the pinkie")


def test_criterion_4_torque_budget():
    cfg = default_config()
    required = required_torque(cfg.layout.press_force, 0.0, cfg.geometry)
    assert abs(required * 1000.0 - 41.1) <= 0.1  # mN*m at contact
    margin = torque_margin(required, cfg.axis)
    assert abs(margin - 3.89) <= 0.01
    assert margin >= 1.0
    report(4, f"required torque {required * 1000:.2f} mN*m, margin {margin:.3f}")


def test_criterion_5_encoder_arithmetic():
    axis = MotorAxis()
    assert counts_per_output_rev(axis) == 16384  # 256 imp x 4 x 16:1
    assert encoder_counts(360.0, axis) == 16384

    def oracle(angle):
        x = Fraction(angle) * 16384 / 360
        q, r = divmod(abs(x.numerator), x.denominator)
        v = q + (1 if 2 * r >= x.denominator else 0)
        return v if x >= 0 else -v

    rng = random.Random(1234)
    for _ in range(1000):
        angle = rng.uniform(-720.0, 720.0)
        assert encoder_counts(angle, axis) == oracle(angle)
    report(5, "360 deg = 16384 counts; 1000 random angles match the exact "
              "rational rounding oracle")


def test_criterion_6_calibration_exactness():
    rng = random.Random(20)
    checked = 0
    while checked < 1000:
        s_min, s_max = rng.randint(0, 4095), rng.randint(0, 4095)
        p_min, p_max = rng.randint(-16384, 16384), rng.randint(-16384, 16384)
        if s_min == s_max or p_min == p_max:
            continue
        assert abs(round_half_away(linear_map(s_min, s_min, s_max, p_min, p_max))
                   - p_min) <= 1
        assert abs(round_half_away(linear_map(s_max, s_min, s_max, p_min, p_max))
                   - p_max) <= 1
        mid = linear_map((s_min + s_max) / 2.0, s_min, s_max, p_min, p_max)
        assert abs(mid - (p_min + p_max) / 2.0) <= 1.0
        checked += 1
    with pytest.raises(DegenerateCalibrationError, match="flex_min"):
        CalibrationSet(flex_min=7, flex_max=7, enc_h_min=0, enc_h_max=1,
                       y_min=0, y_max=1, z_min=0, z_max=1,
                       enc_hover=0, enc_pressed=1)
    with pytest.raises(DegenerateCalibrationError):
        linear_map(1, 3, 3, 0, 1)
    report(6, "1000 random calibrations hit both endpoints and the midpoint "
              "within 1 count; degenerate sets rejected by name")


def test_criterion_7_key_targeting_accuracy(ws):
    cfg = default_config()
    calib = calibrate_from_trace(synth.calibration_trace(cfg),
                                 synth.anchors_from_config(cfg))
    targets = analysis.reachable_keys(cfg, calib.enc_h_min, calib.enc_h_max)
    whites = [k for k in targets if k.color == "white"]
    blacks = [k for k in targets if k.color == "black"]
    assert whites and blacks
    rear = dataclasses.replace(
        cfg, mount=dataclasses.replace(cfg.mount, depth=60.0))

    hits = 0
    for key in targets:
        run_cfg = cfg if key.color == "white" else rear
        for rep in range(10):
            trace = synth.press_trace(run_cfg, key.index, speed=0.5,
                                      flex_noise=2.0, seed=rep)
            log = engine.run(trace, calib, run_cfg)
            ons = [e for e in log.events if e.kind == "on"]
            assert len(ons) == 1
            assert ons[0].key_index == key.index
            hits += 1
    assert hits == 10 * len(targets)
    report(7, f"{len(whites)} white and {len(blacks)} black reachable keys, "
              f"10 noisy presses each (sigma = 2 codes): {hits}/{hits} on target")


def test_criterion_8_determinism(ws):
    outputs = {}
    for mode in ("deterministic", "concurrent"):
        for rep in ("a", "b"):
            out = ws / f"c8-{mode}-{rep}"
            assert run_cli("simulate", "--trace", ws / "c1/press_trace.csv",
                           "--calibration", ws / "calibration.txt",
                           "--mode", mode, "--out", out,
                           "--midi") == 0
            outputs[(mode, rep)] = {
                name: (out / name).read_bytes()
                for name in ("events.csv", "steps.csv", "latency.csv",
                             "output.mid")}
    baseline = outputs[("deterministic", "a")]
    for key, files in outputs.items():
        assert files == baseline, key
    report(8, "event CSV, step log and MIDI byte-identical across repeated "
              "runs in both execution modes")


def test_criterion_9_midi_well_formedness(ws):
    data = (ws / "c8-deterministic-a/output.mid").read_bytes()
    assert data[:14] == bytes.fromhex("4d546864000000060000000101e0")
    fmt, ntrks, division, events = parse_smf(data)
    assert (fmt, ntrks, division) == (0, 1, 480)
    open_notes = set()
    pairs = 0
    for event in events:
        if event[1] == "on":
            assert event[2] not in open_notes
            assert 1 <= event[3] <= 127
            open_notes.add(event[2])
        elif event[1] == "off":
            assert event[2] in open_notes
            open_notes.remove(event[2])
            pairs += 1
    assert not open_notes and pairs > 0
    assert events[-1][1] == "meta" and events[-1][2] == 0x2F
    report(9, f"exact 14-byte header and {pairs} balanced note pairs")
