"""Print, per axis, how long one ``engine.run`` spends stepping it.

Runs the CLI steps that ``perfbench/workloads.build_flow`` gives for an
engine workload, seed and size, through ``robothumb.cli.main`` in this
process, up to its ``simulate`` step, and records each ``plant.run_axis``
call that ``simulate`` makes: a copy of the buffers and columns it is given
and of the angles and velocities it writes. It then replays each axis's
calls on fresh copies of those buffers, checks that the replay writes the
same angles and velocities bit for bit, and prints per axis the calls, the
steps stepped, the setpoint runs (counted from the setpoint column), the
moving steps (steps whose angle differs from the angle before them) and the
best time of ``--repeat`` replays. The engine's own timing hides ``run_axis``
inside ``engine.run``; this splits it out by axis. Standard library, numpy
and robothumb only; ``perfbench`` is imported, not changed.

    python tools/axis_times.py press_session [--seed 0] [--size full|tiny]
        [--repeat 15] [--workdir DIR]

The CLI's own messages go to ``cli_output.txt`` in ``--workdir`` (default: a
temporary directory, removed afterwards).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
import time
from array import array
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import robothumb.cli  # noqa: E402
from robothumb import plant  # noqa: E402
import workloads  # noqa: E402

ENGINE_WORKLOADS = ("press_session", "retarget_concurrent")


def copy(buffer):
    """A copy of an ``array('d')`` buffer, or None."""
    return None if buffer is None else array("d", buffer)


def buffer_bytes(buffers) -> tuple:
    """The bytes of each buffer of an ``(angles, velocities)`` pair."""
    return tuple(None if b is None else b.tobytes() for b in buffers)


def record_calls(flow, workdir: Path) -> list[dict]:
    """Run the flow through its ``simulate`` step; each ``run_axis`` call that
    step made, in call order."""
    for name, text in flow.inputs.items():
        (workdir / name).write_text(text)
    steps = list(flow.steps)
    steps = steps[:[argv[0] for argv in steps].index("simulate") + 1]
    calls, real = [], plant.run_axis

    def recorder(angles, velocities, setpoints, limits, dt, axis, feedback=None,
                 state=(0.0, 0.0)):
        if feedback is not None:
            feedback = (*feedback[:2], np.array(feedback[2]))
        call = {"angles": copy(angles), "velocities": copy(velocities),
                "args": (np.array(setpoints), None if limits is None else np.array(limits),
                         dt, axis, feedback, state)}
        end = real(angles, velocities, *call["args"])
        call["written"] = (copy(angles), copy(velocities))
        calls.append(call)  # one list append, safe from the axis threads
        return end

    with open(workdir / "cli_output.txt", "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for argv in steps:
            plant.run_axis = recorder if argv[0] == "simulate" else real
            try:
                rc = robothumb.cli.main(list(argv))
            finally:
                plant.run_axis = real
            if rc != 0:
                raise SystemExit(f"{' '.join(argv[:2])} exited {rc}; "
                                 f"see {workdir / 'cli_output.txt'}")
    return calls


def replay(calls: list[dict], repeat: int) -> float:
    """Best time in seconds of ``repeat`` replays of ``calls``, each on fresh
    copies of the recorded buffers; every replay must write the recorded
    angles and velocities."""
    best = float("inf")
    for _ in range(repeat):
        buffers = [(copy(c["angles"]), copy(c["velocities"])) for c in calls]
        start = time.perf_counter()
        for c, (angles, velocities) in zip(calls, buffers):
            plant.run_axis(angles, velocities, *c["args"])
        best = min(best, time.perf_counter() - start)
        for c, written in zip(calls, buffers):
            if buffer_bytes(written) != buffer_bytes(c["written"]):
                raise SystemExit("a replayed run_axis call wrote other angles or velocities")
    return best


def axis_row(name: str, calls: list[dict], repeat: int) -> str:
    steps = runs = moving = 0
    for c in calls:
        setpoints, state = c["args"][0], c["args"][5]
        steps += len(setpoints)
        runs += np.count_nonzero(np.diff(setpoints)) + 1
        # the block's steps are the last entries of the angle buffer
        angles = np.frombuffer(c["written"][0])[len(c["written"][0]) - len(setpoints):]
        moving += np.count_nonzero(np.diff(angles, prepend=state[0]))
    best_ms = replay(calls, repeat) * 1000.0
    return f"{name:<12} {len(calls):>6} {steps:>8} {runs:>8} {moving:>13} {best_ms:>9.2f}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=ENGINE_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--repeat", type=int, default=15, help="replays; the best is printed")
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    with contextlib.ExitStack() as stack:
        workdir = args.workdir or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        workdir.mkdir(parents=True, exist_ok=True)
        flow = workloads.build_flow(args.workload, args.seed, args.size, workdir)
        calls = record_calls(flow, workdir)
    print(f"{args.workload}, seed {args.seed}, size {args.size}; "
          f"best of {args.repeat} replays of one engine.run's run_axis calls")
    print(f"{'axis':<12} {'calls':>6} {'steps':>8} {'runs':>8} {'moving_steps':>13} "
          f"{'best_ms':>9}")
    # the horizontal axis is the one stepped with feedback
    for name, feedback in (("horizontal", True), ("vertical", False)):
        print(axis_row(name, [c for c in calls if (c["args"][4] is not None) == feedback],
                       args.repeat))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
