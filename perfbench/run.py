"""Benchmark of robothumb's CLI flows; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/robothumb``. Each pass
runs the workload's whole CLI flow in a fresh interpreter (passrun.py), one
pass after another, until ``--seconds`` is used up. Every pass's outputs are
checked: each CLI step must exit 0, each output file must match its golden
SHA-256 digest (or, for a seed without goldens, the first pass's digest), and
the paper's figures must hold. The last line of standard output is the
result as JSON.

``--trace 0`` reports the end-to-end metrics as medians over the passes.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, plus the tracing overhead in ``session_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
GOLDENS = BENCH / "goldens.json"

RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
GATE_C1_S = 5.0      # acceptance criterion 1 wall-clock gate
GATE_C2_S = 10.0     # acceptance criterion 2 wall-clock gate
C1_STEPS = ("synth press", "simulate", "analyze budget")
C2_STEPS = ("synth sweep", "analyze workspace")

END_TO_END = {"session_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Host times in the result are scaled to the host speed at which the speed
# probe (passrun.speed_probe) takes this long: its median on the 2-vCPU host
# of the first baseline. Raw host times are printed beside them.
PROBE_REF_S = 0.024


class BenchmarkError(Exception):
    """The benchmark cannot run: the program is missing or a pass crashed."""


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def run_one_pass(workload, seed, size, traced, pass_id, timeout) -> dict:
    workdir = WORK / workload / "pass"
    shutil.rmtree(workdir, ignore_errors=True)
    spec = {"workload": workload, "seed": seed, "size": size,
            "workdir": str(workdir), "traced": traced, "pass_id": pass_id}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "passrun.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"pass {pass_id} ran past {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"pass {pass_id} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_passes(workload, seed, size, seconds, trace) -> list[dict]:
    """Closed loop of passes; trace mode alternates untraced and traced."""
    kinds = (False, True) if trace else (False,)
    records = []
    last_wall = {}
    start = time.perf_counter()
    while True:
        traced = kinds[len(records) % len(kinds)]
        elapsed = time.perf_counter() - start
        first_of_kind = traced not in last_wall
        if not first_of_kind and elapsed + last_wall[traced] > seconds:
            break
        timeout = RUN_LIMIT_S - elapsed
        if timeout <= 0:
            break
        t0 = time.perf_counter()
        records.append(run_one_pass(workload, seed, size, traced,
                                    len(records), timeout))
        last_wall[traced] = time.perf_counter() - t0
    return records


def evaluate(records: list[dict], golden: dict | None) -> tuple[int, int, list[str]]:
    """Count operations attempted and failed over all passes."""
    reference = golden if golden is not None else records[0]["digests"]
    attempted = failed = 0
    failures = []
    for i, record in enumerate(records):
        for name, ok in record["checks"].items():
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"pass {i}: {name}")
        for name, digest in record["digests"].items():
            attempted += 1
            if digest is None or digest != reference.get(name):
                failed += 1
                failures.append(f"pass {i}: {name} digest")
    return attempted, failed, failures


def load_golden(size: str, workload: str, seed: int) -> dict | None:
    goldens = json.loads(GOLDENS.read_text())
    return goldens.get(size, {}).get(workload, {}).get(str(seed))


def session_at_reference_speed(record: dict) -> float:
    return sum(s["s"] * PROBE_REF_S / s["probe_s"] for s in record["steps"])


def setup_at_reference_speed(record: dict) -> float:
    return record["setup_s"] * PROBE_REF_S / record["probe_s"]


def _median(values):
    return statistics.median(values) if values else 0.0


def _step_total(record: dict, prefixes) -> float:
    return sum(s["s"] for s in record["steps"] if s["command"].startswith(prefixes))


def summary_lines(workload: str, size: str, plain: list[dict]) -> list[str]:
    """Human-readable metrics that are not part of the JSON result."""
    lines = []
    sims = [r for r in plain if "sim" in r]
    if sims:
        rates = [r["sim"]["simulated_s"] / _step_total(r, ("simulate",))
                 for r in sims]
        lines += [
            f"sim_rate_x: {_median(rates):.4f} simulated s / host s",
            f"sim.latency_mean_ms: {sims[0]['sim']['latency_mean_ms']} ms (simulated)",
            f"sim.on_target_ratio: {sims[0]['sim']['on_target_ratio']:.4f} (simulated)",
        ]
    if workload == "press_session":
        c1 = _median([_step_total(r, C1_STEPS) for r in plain])
        lines.append(f"gate.c1_headroom_s: {GATE_C1_S - c1:.4f} s "
                     f"(criterion 1 gate {GATE_C1_S:.0f} s, size {size})")
    if workload == "workspace_sweep":
        c2 = _median([_step_total(r, C2_STEPS) for r in plain])
        lines.append(f"gate.c2_headroom_s: {GATE_C2_S - c2:.4f} s "
                     f"(criterion 2 gate {GATE_C2_S:.0f} s, size {size})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # exit through SystemExit so that subprocess.run kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "robothumb" / "__init__.py").is_file():
        print(f"error: no robothumb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env_start = environment()
    try:
        records = run_passes(args.workload, args.seed, args.size,
                             args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env_end = environment()

    attempted, failed, failures = evaluate(
        records, load_golden(args.size, args.workload, args.seed))
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    end_to_end = {
        "session_s": _median([session_at_reference_speed(r) for r in plain]),
        "setup_s": _median([setup_at_reference_speed(r) for r in plain]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }

    print(f"workload {args.workload}, seed {args.seed}, size {args.size}: "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    for name, unit in END_TO_END.items():
        print(f"{name}: {end_to_end[name]:.4f} {unit} (median of {len(plain)})")
    raw_session = _median([r["session_s"] for r in plain])
    print(f"raw host time: session_s {raw_session:.4f} s, "
          f"setup_s {_median([r['setup_s'] for r in plain]):.4f} s, speed probe "
          f"{_median([r['probe_s'] for r in plain]):.4f} s "
          f"(reference {PROBE_REF_S} s)")
    for line in summary_lines(args.workload, args.size, plain):
        print(line)
    print(f"failed_ops_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print("env: " + json.dumps({**env_start, "numpy": records[0]["numpy"],
                                "loadavg_end": env_end["loadavg"]}))

    if args.trace:
        layers = {m: _median([r["layers"][m] for r in traced])
                  for m in tracer.LAYER_METRICS if m != "trace.overhead_s"}
        layers["trace.overhead_s"] = (_median([r["session_s"] for r in traced])
                                      - raw_session)
        for name in tracer.LAYER_METRICS:
            print(f"  {name}: {layers[name]} {tracer.unit(name)}")
        metrics = {m: {"value": layers[m], "unit": tracer.unit(m)}
                   for m in tracer.LAYER_METRICS}
    else:
        metrics = {m: {"value": end_to_end[m], "unit": u}
                   for m, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
