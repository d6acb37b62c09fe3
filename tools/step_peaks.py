"""Print the memory each CLI step of a benchmark workload's flow takes.

Runs the steps that ``perfbench/workloads.build_flow`` gives for a workload,
seed and size, in order, through ``robothumb.cli.main`` in this process,
twice: untraced, reading ``ru_maxrss`` (the process's peak resident set so
far) after each step and the minor page faults the step took (its
``ru_minflt`` delta), then under ``tracemalloc``, reading each step's own
peak of memory allocated through Python. The first shows which step sets a
flow's ``peak_rss_mb`` and which one keeps asking the kernel for fresh
pages; the second shows what each step holds at once, which a process-wide
peak hides. The tracing pass runs second because tracing adds to the
resident set. Standard library and robothumb only;
``perfbench`` is imported, not changed.

    python tools/step_peaks.py press_session [--seed 0] [--size full|tiny]
        [--repeat N] [--workdir DIR]

``--repeat N`` plays ``N`` presses in ``press_session`` in place of the
size's count, to see how each step's memory grows with session length.

Outputs and the CLI's own messages go to ``--workdir`` (default: a
temporary directory, removed afterwards).
"""

from __future__ import annotations

import argparse
import contextlib
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import robothumb.cli  # noqa: E402
import workloads  # noqa: E402


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_flow(flow, workdir: Path, traced: bool) -> list:
    """Run the flow's steps in ``workdir``; after each, ``ru_maxrss`` in MiB
    and the step's minor page faults or, when ``traced``, the step's
    ``tracemalloc`` peak in MiB."""
    for name, text in flow.inputs.items():
        (workdir / name).write_text(text)
    readings = []
    with open(workdir / "cli_output.txt", "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for argv in flow.steps:
            faults = minor_faults()
            if traced:
                tracemalloc.start()
            try:
                rc = robothumb.cli.main(list(argv))
                if traced:
                    readings.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                if traced:
                    tracemalloc.stop()
            if rc != 0:
                raise SystemExit(f"{' '.join(argv[:2])} exited {rc}; "
                                 f"see {workdir / 'cli_output.txt'}")
            if not traced:
                readings.append((maxrss_mib(), minor_faults() - faults))
    return readings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--repeat", type=int, help="presses of press_session")
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args(argv)
    if args.repeat is not None and args.workload != "press_session":
        parser.error("--repeat applies to press_session only")
    sizes = workloads.SIZES  # the flow reads its press count here; restored below
    if args.repeat is not None:
        workloads.SIZES = {**sizes, args.size: {**sizes[args.size], "presses": args.repeat}}
    with contextlib.ExitStack() as stack:
        workdir = args.workdir or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            flow = workloads.build_flow(args.workload, args.seed, args.size, workdir)
        finally:
            workloads.SIZES = sizes
        start = maxrss_mib()
        untraced = run_flow(flow, workdir, traced=False)
        peaks = run_flow(flow, workdir, traced=True)
    count = f", {args.repeat} presses" if args.repeat is not None else ""
    print(f"{args.workload}, seed {args.seed}, size {args.size}{count}; "
          f"ru_maxrss before the first step {start:.1f} MiB")
    print(f"{'step':<20} {'ru_maxrss_mib':>13} {'minor_faults':>12} {'tracemalloc_peak_mib':>20}")
    for argv, (after, faults), peak in zip(flow.steps, untraced, peaks):
        print(f"{' '.join(argv[:2]):<20} {after:>13.1f} {faults:>12} {peak:>20.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
