"""One pass of one workload, run in a fresh interpreter.

Usage (run.py starts it; PYTHONPATH must reach ``src``):

    python3 perfbench/passrun.py '{"workload": ..., "seed": ..., "size": ...,
                                   "workdir": ..., "traced": ..., "pass_id": ...}'

The last line of standard output is the pass record as JSON. Set-up time
(importing ``robothumb`` and ``robothumb.cli`` and building the default
configuration) is measured first, then the workload's CLI steps are timed
one by one through ``robothumb.cli.main``, with the speed probe timed before
and after each step. Checks run after the timed steps.
"""

from __future__ import annotations

# Nothing robothumb imports is loaded before set-up is timed, so that set-up
# pays for everything robothumb pulls in; the rest is imported in run_pass.
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def speed_probe() -> float:
    """Host seconds for a fixed piece of pure-Python work.

    The host's speed drifts by 20 % and more within seconds as other load
    comes and goes. The probe takes the same code path on every commit, so
    timing it before and after each CLI step gives the speed the step ran at.
    """
    import math

    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        acc = 0.0
        items = []
        for i in range(75_000):
            x = (i % 97) * 0.5
            acc += math.sqrt(x + 1.0) * 1.000001
            items.append((i, x))
            if len(items) > 64:
                items.clear()
        best = min(best, time.perf_counter() - start)
    return best


def run_pass(workload: str, seed: int, size: str, workdir, traced: bool = False,
             pass_id: int = 0) -> dict:
    start = time.perf_counter()
    import robothumb
    import robothumb.cli
    robothumb.default_config()
    setup_s = time.perf_counter() - start

    import contextlib
    import hashlib
    import resource
    from pathlib import Path

    import numpy
    import workloads
    from tracer import Tracer

    def digest(path: Path) -> str | None:
        try:
            return hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError:
            return None

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    flow = workloads.build_flow(workload, seed, size, workdir)
    for name, text in flow.inputs.items():
        (workdir / name).write_text(text)

    probes = [speed_probe()]
    tracer = Tracer(pass_id) if traced else None
    steps = []
    with open(workdir / "cli_output.txt", "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        if tracer is not None:
            tracer.install()
        try:
            for argv in flow.steps:
                span = (tracer.span(f"cli.{argv[0]}") if tracer is not None
                        else contextlib.nullcontext())
                t0 = time.perf_counter()
                with span:
                    rc = robothumb.cli.main(list(argv))
                elapsed = time.perf_counter() - t0
                probes.append(speed_probe())
                steps.append({"command": " ".join(argv[:2]), "s": elapsed,
                              "probe_s": (probes[-2] + probes[-1]) / 2, "rc": rc})
        finally:
            if tracer is not None:
                tracer.uninstall()

    record = {
        "probe_s": probes[0],
        "setup_s": setup_s,
        "session_s": sum(s["s"] for s in steps),
        "steps": steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": {name: digest(workdir / name) for name in flow.outputs},
        "checks": workloads.check_figures(workload, size, workdir, flow),
        "numpy": numpy.__version__,
        "traced": traced,
    }
    for i, step in enumerate(steps):
        record["checks"][f"step{i}_exit_0"] = step["rc"] == 0
    if flow.targets:
        try:
            record["sim"] = workloads.simulated_stats(workdir, flow)
        except (OSError, ValueError, KeyError, IndexError):
            record["checks"]["simulated_stats_readable"] = False
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        tracer.write(workdir.parent / f"spans_{pass_id}.npz")
    return record


def main(argv: list[str]) -> int:
    import json

    # Concurrent mode hands every sample to a worker thread. Across two
    # virtual CPUs each hand-off waits on a cross-CPU wake-up whose latency
    # moves 3-5x with the host's other load; on one CPU it is a plain
    # context switch, so passes are pinned to keep the timings reproducible.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = json.loads(argv[0])
    record = run_pass(spec["workload"], spec["seed"], spec["size"],
                      spec["workdir"], spec["traced"], spec["pass_id"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
