"""The benchmark's workloads: the CLI flow each one runs, and its checks.

Every workload is closed-loop: one caller runs each CLI step after the
previous one returns. Inputs derive from the seed alone.

- ``press_session``: the paper's latency reproduction, 100 presses of key 46
  with a noisy flex channel, then the latency, budget and range analyses.
- ``retarget_concurrent``: a seeded walk over keys 43-48 (white and black)
  with the hand in the rear zone, simulated in concurrent mode; large
  horizontal moves between presses.
- ``workspace_sweep``: the band-vs-cap workspace ratio (criterion 2); it never
  calls the engine, so an engine change should not move it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("press_session", "retarget_concurrent", "workspace_sweep")

# "full" is what the benchmark measures; "tiny" is for the benchmark's tests
SIZES = {
    "full": {"presses": 100, "walk_blocks": 2, "samples": 600_000, "bins": 100_000},
    "tiny": {"presses": 3, "walk_blocks": 1, "samples": 60_000, "bins": 10_000},
}

PRESS_KEY = 46
REAR_KEYS = (43, 44, 45, 46, 47, 48)  # E4 F4 F#4 G4 G#4 A4, all reachable
REAR_CONFIG = "[mount]\ndepth = 60\n"

# paper figures, checked as correctness conditions
LATENCY_MS, LATENCY_TOL_MS = 85.0, 2.0
WHOLE_NOTES = 4
BAND_SR = 2.0 * math.pi * 2.0 * math.sin(math.radians(60.0))
CAP_SR = 2.0 * math.pi * (1.0 - math.cos(math.radians(54.9)))
AREA_TOL = 0.02
RATIO, RATIO_TOL = 4.0, 0.2

ENGINE_OUTPUTS = ("calibration_trace.csv", "anchors.txt", "calibration.txt",
                  "events.csv", "steps.csv", "latency.csv", "output.mid",
                  "latency_report.txt")


@dataclass(frozen=True)
class Flow:
    steps: tuple[tuple[str, ...], ...]  # argv of each CLI call, in order
    outputs: tuple[str, ...]            # every file the steps write
    inputs: dict                        # files written before the flow
    targets: tuple[int, ...] = ()       # intended key of each press


def retarget_walk(seed: int, blocks: int) -> list[int]:
    """Each block visits every rear key once; no key repeats back to back."""
    rng = random.Random(seed)
    walk: list[int] = []
    for _ in range(blocks):
        block = list(REAR_KEYS)
        rng.shuffle(block)
        if walk and block[0] == walk[-1]:
            block[0], block[-1] = block[-1], block[0]
        walk.extend(block)
    return walk


def _calibration_steps(out: str, *config: str) -> list[tuple[str, ...]]:
    return [("synth", "calibration", *config, "--out", out),
            ("calibrate", "--trace", f"{out}/calibration_trace.csv",
             "--anchors", f"{out}/anchors.txt", "--out", out)]


def build_flow(workload: str, seed: int, size: str, workdir: Path) -> Flow:
    p = SIZES[size]
    out = str(workdir)
    if workload == "press_session":
        n = p["presses"]
        latency = f"{out}/latency.csv"
        steps = _calibration_steps(out) + [
            ("synth", "press", "--key", str(PRESS_KEY), "--repeat", str(n),
             "--flex-noise", "2", "--seed", str(seed), "--out", out),
            ("simulate", "--trace", f"{out}/press_trace.csv",
             "--calibration", f"{out}/calibration.txt", "--midi", "--out", out),
            ("analyze", "latency", "--latency", latency, "--out", out),
            ("analyze", "budget", "--latency", latency, "--out", out),
            ("analyze", "range", "--calibration", f"{out}/calibration.txt",
             "--out", out),
        ]
        outputs = ENGINE_OUTPUTS + ("press_trace.csv", "budget_report.txt",
                                    "range_report.txt")
        return Flow(tuple(steps), outputs, {}, (PRESS_KEY,) * n)
    if workload == "retarget_concurrent":
        walk = retarget_walk(seed, p["walk_blocks"])
        cfg = ("--config", f"{out}/rear.ini")
        steps = _calibration_steps(out, *cfg) + [
            ("synth", "scale", *cfg, "--keys", ",".join(map(str, walk)),
             "--out", out),
            ("simulate", *cfg, "--trace", f"{out}/scale_trace.csv",
             "--calibration", f"{out}/calibration.txt", "--mode", "concurrent",
             "--midi", "--out", out),
            ("analyze", "latency", *cfg, "--latency", f"{out}/latency.csv",
             "--out", out),
        ]
        return Flow(tuple(steps), ENGINE_OUTPUTS + ("scale_trace.csv",),
                    {"rear.ini": REAR_CONFIG}, tuple(walk))
    if workload == "workspace_sweep":
        n = str(p["samples"])
        steps = [
            ("synth", "sweep", "--shape", "band", "--samples", n,
             "--seed", str(seed), "--out", out),
            ("synth", "sweep", "--shape", "cap", "--samples", n,
             "--seed", str(seed + 1), "--out", out),
            ("analyze", "workspace", "--dirs", f"{out}/band_directions.csv",
             "--ref-dirs", f"{out}/cap_directions.csv",
             "--bins", str(p["bins"]), "--out", out),
        ]
        return Flow(tuple(steps), ("band_directions.csv", "cap_directions.csv",
                                   "workspace_report.txt"), {})
    raise ValueError(f"unknown workload {workload!r}")


def read_kv(path: Path) -> dict:
    values = {}
    for line in path.read_text().splitlines():
        name, _, raw = line.partition("=")
        values[name.strip()] = float(raw)
    return values


def key_ons(workdir: Path) -> list[int]:
    rows = (workdir / "events.csv").read_text().splitlines()[1:]
    return [int(r.split(",")[2]) for r in rows if r.split(",")[1] == "on"]


def check_figures(workload: str, size: str, workdir: Path, flow: Flow) -> dict:
    """Paper-figure conditions on the outputs: name -> held."""
    checks = {}

    def check(name, condition):
        try:
            checks[name] = bool(condition())
        except (OSError, ValueError, KeyError, IndexError):
            checks[name] = False

    if workload in ("press_session", "retarget_concurrent"):
        report = workdir / "latency_report.txt"
        check("latency_mean_85ms", lambda: abs(
            read_kv(report)["mean_ms"] - LATENCY_MS) <= LATENCY_TOL_MS)
        check("latency_budget_flagged",
              lambda: read_kv(report)["over_budget"] == 1)
        check("every_press_registered",
              lambda: len(key_ons(workdir)) == len(flow.targets)
              and read_kv(report)["count"] == len(flow.targets))
    if workload == "press_session":
        check("budget_report_flags_latency", lambda: read_kv(
            workdir / "budget_report.txt")["latency_pass"] == 0)
        check("whole_notes_4", lambda: read_kv(
            workdir / "range_report.txt")["whole_notes_beyond_pinkie"] == WHOLE_NOTES)
    if workload == "workspace_sweep" and size == "full":
        # the binning resolves 2 % only with the full sample and bin counts
        report = workdir / "workspace_report.txt"
        check("band_within_2pct", lambda: abs(
            read_kv(report)["solid_angle_sr"] - BAND_SR) / BAND_SR < AREA_TOL)
        check("cap_within_2pct", lambda: abs(
            read_kv(report)["ref_solid_angle_sr"] - CAP_SR) / CAP_SR < AREA_TOL)
        check("ratio_4", lambda: abs(read_kv(report)["ratio"] - RATIO) <= RATIO_TOL)
    return checks


def simulated_stats(workdir: Path, flow: Flow) -> dict:
    """Simulated time and model figures of the flow's ``simulate`` step."""
    last = (workdir / "steps.csv").read_text().rstrip("\n").rsplit("\n", 1)[-1]
    ons = key_ons(workdir)
    hits = sum(1 for got, want in zip(ons, flow.targets) if got == want)
    return {
        "simulated_s": float(last.split(",")[0]) / 1000.0,
        "latency_mean_ms": read_kv(workdir / "latency_report.txt")["mean_ms"],
        "on_target_ratio": hits / len(flow.targets),
    }
