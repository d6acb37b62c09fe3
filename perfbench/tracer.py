"""Span tracing for the traced benchmark passes.

Each public function the benchmark measures is wrapped at the attribute its
caller looks up (``robothumb.engine.key_at``, not ``robothumb.piano.key_at``,
because the engine imported the name). A wrapper returns the callee's result
unchanged and records one span: id, parent id, name, start, end, the thread
it ran on and a per-layer flag (command changed, axis step idle). Spans stay
in memory until the pass ends; ``write`` then saves them and ``layer_metrics``
reduces them to the per-layer figures.

A call made off the main thread (a control update submitted to the engine's
worker pool) takes the main thread's innermost open span as its parent, so
the time the engine spends waiting on its workers is charged to the workers'
spans and only the hand-off cost stays in ``engine.run.self_s``.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

# (module, attribute the caller looks up, span name)
TARGETS = (
    ("engine", "run", "engine.run"),
    ("engine", "intention_detect", "engine.intention_detect"),
    ("engine", "key_at", "piano.key_at"),
    ("engine", "write_step_csv", "engine.write_step_csv"),
    ("engine", "write_event_csv", "engine.write_event_csv"),
    ("engine", "write_latency_csv", "engine.write_latency_csv"),
    ("control", "horizontal_update", "control.horizontal_update"),
    ("control", "vertical_update", "control.vertical_update"),
    ("plant", "axis_step", "plant.axis_step"),
    ("kinematics", "keyline_position", "kinematics.keyline_position"),
    ("midi", "write_midi", "midi.write_midi"),
    ("cli", "load_trace", "sensors.load_trace"),
    ("cli", "save_trace", "sensors.save_trace"),
    ("cli", "calibrate_from_trace", "control.calibrate_from_trace"),
    ("cli", "load_calibration", "control.load_calibration"),
    ("cli", "load_config", "config.load_config"),
    ("synth", "calibration_trace", "synth.calibration_trace"),
    ("synth", "press_trace", "synth.press_trace"),
    ("synth", "scale_trace", "synth.scale_trace"),
    ("synth", "band_sweep_directions", "synth.sweep"),
    ("synth", "cap_directions", "synth.sweep"),
    ("analysis", "save_directions", "analysis.save_directions"),
    ("analysis", "load_directions", "analysis.load_directions"),
    ("analysis", "solid_angle", "analysis.solid_angle"),
    ("analysis", "latency_stats", "analysis.reports"),
    ("analysis", "budget_check", "analysis.reports"),
    ("analysis", "range_increase", "analysis.reports"),
)

CLI_COMMANDS = ("synth", "calibrate", "simulate", "analyze")
_CONTROL = ("control.horizontal_update", "control.vertical_update")

# every per-layer metric, in the order BENCHMARK.json lists them
LAYER_METRICS = (
    "engine.run.self_s", "engine.steps", "engine.samples_fed",
    "engine.offthread_calls",
    "control.horizontal_update.calls", "control.horizontal_update.self_s",
    "control.horizontal_update.changed_ratio",
    "control.vertical_update.calls", "control.vertical_update.self_s",
    "control.vertical_update.changed_ratio",
    "plant.axis_step.calls", "plant.axis_step.self_s", "plant.axis_step.idle_ratio",
    "kinematics.keyline_position.calls", "kinematics.keyline_position.self_s",
    "piano.key_at.calls", "piano.key_at.self_s",
    "engine.intention_detect.s", "engine.write_step_csv.s",
    "engine.write_event_csv.s", "engine.write_latency_csv.s", "engine.csv_bytes",
    "midi.write_midi.s",
    "sensors.save_trace.s", "sensors.load_trace.s", "sensors.trace_samples",
    "synth.calibration_trace.s", "synth.press_trace.s", "synth.scale_trace.s",
    "synth.sweep.s",
    "control.calibrate_from_trace.s", "control.load_calibration.s",
    "config.load_config.s", "analysis.reports.s",
    "analysis.save_directions.s", "analysis.load_directions.s",
    "analysis.solid_angle.s", "analysis.directions", "analysis.csv_bytes",
    *(f"cli.{c}.s" for c in CLI_COMMANDS), "cli.self_s",
    "trace.overhead_s",
)


class Tracer:
    """Records spans for one pass; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        # (span id, parent id, name, start, end, thread ident, flag)
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._stacks: dict[int, list[int]] = {self._main: []}
        self._last: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _open(self):
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks[self._main]
            parent = main[-1] if main else 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, tid, stack

    @contextlib.contextmanager
    def span(self, name: str):
        sid, parent, tid, stack = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, tid, False))

    def _wrap(self, fn, name: str, flag_of, after):
        opened = self._open
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid, parent, tid, stack = opened()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            flag = flag_of(args, result) if flag_of is not None else False
            spans.append((sid, parent, name, start, end, tid, flag))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _flaggers(self) -> dict:
        last = self._last

        def changed(name):
            def flag(args, result):
                differs = last.get(name) != result
                last[name] = result
                return differs
            return flag

        return {
            "control.horizontal_update": changed("control.horizontal_update"),
            "control.vertical_update": changed("control.vertical_update"),
            "plant.axis_step": lambda args, result: result == args[0],
        }

    def _observers(self) -> dict:
        counts = self.counts

        def engine_run(args, log):
            counts["engine.samples_fed"] += len(args[0].samples)
            counts["engine.steps"] += len(log.steps)

        def csv_written(args, result):
            counts["engine.csv_bytes"] += os.path.getsize(args[1])

        def directions_saved(args, result):
            counts["analysis.directions"] += len(args[0])
            counts["analysis.csv_bytes"] += os.path.getsize(args[1])

        def trace_loaded(args, trace):
            counts["sensors.trace_samples"] += len(trace.samples)

        return {
            "engine.run": engine_run,
            "engine.write_step_csv": csv_written,
            "engine.write_event_csv": csv_written,
            "engine.write_latency_csv": csv_written,
            "analysis.save_directions": directions_saved,
            "sensors.load_trace": trace_loaded,
        }

    def install(self) -> None:
        flaggers, observers = self._flaggers(), self._observers()
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"robothumb.{module_name}")
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, flaggers.get(name),
                                             observers.get(name)))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Save the spans of this pass as arrays in an ``.npz`` file."""
        import numpy as np

        names = sorted({s[2] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        np.savez(path, pass_id=np.full(len(self.spans), self.pass_id),
                 span_id=np.array(cols[0], dtype=np.int64),
                 parent_id=np.array(cols[1], dtype=np.int64),
                 name=np.array([code[n] for n in cols[2]], dtype=np.int32),
                 start=np.array(cols[3], dtype=float),
                 end=np.array(cols[4], dtype=float),
                 off_main_thread=np.array([t != self._main for t in cols[5]]),
                 flag=np.array(cols[6], dtype=bool),
                 names=np.array(names))

    def layer_metrics(self) -> dict:
        """Per-layer totals for this pass (``trace.overhead_s`` excluded)."""
        children = defaultdict(list)
        for sid, parent, _, start, end, _, _ in self.spans:
            if parent:
                children[parent].append((start, end))
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        flagged = defaultdict(int)
        offthread = 0
        for sid, _, name, start, end, tid, flag in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - _covered(children.get(sid, ()))
            flagged[name] += flag
            if tid != self._main and name in _CONTROL:
                offthread += 1

        def ratio(name):
            return flagged[name] / calls[name] if calls[name] else 0.0

        out = {
            "engine.run.self_s": own["engine.run"],
            "engine.steps": self.counts["engine.steps"],
            "engine.samples_fed": self.counts["engine.samples_fed"],
            "engine.offthread_calls": offthread,
        }
        for name in _CONTROL:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = own[name]
            out[f"{name}.changed_ratio"] = ratio(name)
        out["plant.axis_step.calls"] = calls["plant.axis_step"]
        out["plant.axis_step.self_s"] = own["plant.axis_step"]
        out["plant.axis_step.idle_ratio"] = ratio("plant.axis_step")
        for name in ("kinematics.keyline_position", "piano.key_at"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = own[name]
        for metric in LAYER_METRICS:
            if metric.endswith(".s"):
                out.setdefault(metric, total[metric[:-2]])
        for metric in ("engine.csv_bytes", "sensors.trace_samples",
                       "analysis.directions", "analysis.csv_bytes"):
            out[metric] = self.counts[metric]
        out["cli.self_s"] = sum(own[f"cli.{c}"] for c in CLI_COMMANDS)
        return out


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"
