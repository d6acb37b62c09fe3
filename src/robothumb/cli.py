"""Command-line entry point: synth, calibrate, simulate, analyze.

Every synth scenario and analyze subject has a parser of its own.

Exit codes: 0 success, 1 usage error, 2 validation error (bad config,
trace or calibration), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from . import analysis, engine, midi, synth
from .config import GlobalConfig, default_config, load_config
from .control import (ANCHOR_NAMES, calibrate_from_trace, load_calibration, read_kv_file,
                      save_calibration, validate_calibration_ranges, write_kv_file)
from .errors import InputError, RobothumbError
from .piano import MIDI_A0, note_name
from .sensors import check_adc_codes, load_trace, save_trace

USAGE_EXIT = 1
VALIDATION_EXIT = 2
RUNTIME_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """A parser whose leaf commands report their own usage errors, so that
    the usage printed is that of the command given.

    ``check`` takes a leaf's parsed namespace and returns the message of a
    usage error that argparse cannot express, or None.
    """

    def __init__(self, *args, check=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.check = check

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if self._subparsers is None:  # a leaf command
            if extras:
                self.error(f"unrecognized arguments: {' '.join(extras)}")
            if self.check and (message := self.check(namespace)):
                self.error(message)
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


# the flags that only one shape of ``synth sweep`` reads: (flag, keyword of
# that shape's synth function, help); unset, the function's default holds
SWEEP_SHAPE_FLAGS = {
    "band": (("--azimuth", "azimuth_span", "azimuth span in degrees (360)"),
             ("--elev-min", "elev_min", "lowest elevation in degrees (-60)"),
             ("--elev-max", "elev_max", "highest elevation in degrees (60)")),
    "cap": (("--half-angle", "half_angle", "cap half-angle in degrees (54.9)"),),
}


def _load_config(args) -> GlobalConfig:
    return load_config(args.config) if args.config else default_config()


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _key_indices(text: str) -> list[int]:
    """The key indices of a comma-separated ``--keys`` value."""
    keys = []
    for token in text.split(","):
        try:
            keys.append(int(token))
        except ValueError:
            raise InputError(f"--keys: {token!r} is not a key index") from None
    return keys


def _synth_calibration(args, cfg: GlobalConfig) -> None:
    out = _out_dir(args)
    trace_path = out / "calibration_trace.csv"
    anchors_path = out / "anchors.txt"
    anchors = synth.anchors_from_config(cfg)  # a refused mount writes no file
    save_trace(synth.calibration_trace(cfg), trace_path)
    write_kv_file(anchors, anchors_path)
    print(f"wrote {trace_path}")
    print(f"wrote {anchors_path}")


def _synth_press(args, cfg: GlobalConfig) -> None:
    out = _out_dir(args)
    blocks = synth.press_blocks(cfg, args.key, speed=args.speed,
                                repeat=args.repeat, flex_noise=args.flex_noise,
                                seed=args.seed)
    path = out / "press_trace.csv"
    save_trace(blocks, path)  # drawn block by block as it is written
    print(f"wrote {path}")


def _synth_scale(args, cfg: GlobalConfig) -> None:
    out = _out_dir(args)
    if args.keys is not None:
        keys = _key_indices(args.keys)
    else:
        anchors = synth.anchors_from_config(cfg)
        reachable = analysis.reachable_keys(cfg, anchors["enc_h_min"], anchors["enc_h_max"])
        keys = [k.index for k in reachable if k.color == "white"]
    path = out / "scale_trace.csv"
    save_trace(synth.scale_blocks(cfg, keys, speed=args.speed), path)
    print(f"wrote {path}")


def _sweep_flag_error(args) -> str | None:
    """The usage error of a flag that the chosen ``--shape`` does not read."""
    for shape, flags in SWEEP_SHAPE_FLAGS.items():
        for flag, dest, _ in flags:
            if shape != args.shape and hasattr(args, dest):
                return f"{flag} applies to --shape {shape} only"
    return None


def _synth_sweep(args, cfg: GlobalConfig) -> None:
    out = _out_dir(args)
    make = synth.band_sweep if args.shape == "band" else synth.cap_sweep
    given = {dest: getattr(args, dest) for _, dest, _ in SWEEP_SHAPE_FLAGS[args.shape]
             if hasattr(args, dest)}
    sweep = make(args.samples, seed=args.seed, **given)
    path = out / f"{args.shape}_directions.csv"
    analysis.save_directions(sweep, path)  # drawn block by block as it is written
    print(f"wrote {path}")


def _calibrate(args, cfg: GlobalConfig) -> None:
    trace = load_trace(args.trace)
    calib = calibrate_from_trace(trace, read_kv_file(args.anchors, ANCHOR_NAMES))
    validate_calibration_ranges(calib, cfg)
    check_adc_codes(trace, cfg.sensors)
    out = _out_dir(args)
    path = out / "calibration.txt"
    save_calibration(calib, path)
    for name, value in dataclasses.asdict(calib).items():
        print(f"{name} = {value}")
    print(f"wrote {path}")


def _simulate(args, cfg: GlobalConfig) -> None:
    trace = load_trace(args.trace)
    calib = load_calibration(args.calibration)
    log = engine.run(trace, calib, cfg, concurrent=args.mode == "concurrent")
    del trace  # the writers read the log only
    out = _out_dir(args)
    paths = [out / "events.csv", out / "steps.csv", out / "latency.csv"]
    engine.write_event_csv(log, paths[0])
    engine.write_step_csv(log, paths[1])
    engine.write_latency_csv(log, paths[2])
    print(f"events: {len(log.events)}  latency records: {len(log.latencies)}  "
          f"air presses: {len(log.air_presses)}")
    if args.verbose:
        for e in log.events:
            velocity = "" if e.velocity is None else f" velocity {e.velocity}"
            print(f"  {e.t:9.1f} ms  {e.kind:<3} key {e.key_index} "
                  f"({note_name(MIDI_A0 + e.key_index)}){velocity}")
    if args.midi:
        paths.append(out / "output.mid")
        midi.write_midi(log.events, paths[3])
    for path in paths:
        print(f"wrote {path}")


def _latency_stats(path) -> analysis.LatencyStats:
    """Statistics of the delays in a latency CSV written by ``simulate``."""
    return analysis.latency_stats([r.delay for r in engine.read_latency_csv(path)])


def _analyze_workspace(args, cfg: GlobalConfig) -> None:
    out = _out_dir(args)
    estimate, count = analysis.file_solid_angle(args.dirs, args.bins)
    # both sets are read before a result is printed, so a refused one prints none
    ref = analysis.file_solid_angle(args.ref_dirs, args.bins)[0] if args.ref_dirs else None
    report = {"solid_angle_sr": round(estimate, 4), "n_bins": args.bins,
              "n_directions": count}
    print(f"solid angle: {estimate:.4f} sr over {count} directions "
          f"({args.bins} bins)")
    if ref is not None:
        report["ref_solid_angle_sr"] = round(ref, 4)
        report["ratio"] = round(estimate / ref, 4)
        print(f"reference:   {ref:.4f} sr; ratio {estimate / ref:.3f}")
    write_kv_file(report, out / "workspace_report.txt")


def _analyze_latency(args, cfg: GlobalConfig) -> None:
    out = _out_dir(args)
    stats = _latency_stats(args.latency)
    flag = "EXCEEDED" if stats.over_budget else "within budget"
    print(f"latency over {stats.count} presses: mean {stats.mean:.2f} ms, "
          f"stddev {stats.stddev:.2f} ms, max {stats.max:.2f} ms "
          f"({analysis.LATENCY_BUDGET_MS:.0f} ms budget {flag})")
    write_kv_file({"mean_ms": round(stats.mean, 3), "stddev_ms": round(stats.stddev, 3),
                   "max_ms": round(stats.max, 3), "count": stats.count,
                   "over_budget": int(stats.over_budget)}, out / "latency_report.txt")


def _analyze_range(args, cfg: GlobalConfig) -> None:
    out = _out_dir(args)
    calib = load_calibration(args.calibration)
    validate_calibration_ranges(calib, cfg)
    notes = analysis.range_increase(cfg, calib.enc_h_min, calib.enc_h_max)
    print(f"whole notes beyond the pinkie: {notes}")
    write_kv_file({"whole_notes_beyond_pinkie": notes}, out / "range_report.txt")


def _analyze_budget(args, cfg: GlobalConfig) -> None:
    out = _out_dir(args)
    measured = _latency_stats(args.latency).mean if args.latency else None
    report = analysis.budget_check(cfg, measured)
    print(*report.lines(), sep="\n")
    write_kv_file(report.kv(), out / "budget_report.txt")


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command; built once, since parsing leaves it unchanged."""
    parser = _Parser(prog="robothumb", description="Robotic thumb piano pipeline simulator")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="configuration file (defaults built in)")
    common.add_argument("--out", default=".", help="output directory")

    def command(group, name, func, text, check=None):
        p = group.add_parser(name, parents=[common], help=text, check=check)
        p.set_defaults(func=func)
        return p

    sub = parser.add_subparsers(dest="command", required=True)
    p_synth = sub.add_parser("synth", help="generate gesture traces and sweep fixtures")
    scenarios = p_synth.add_subparsers(dest="scenario", required=True)
    command(scenarios, "calibration", _synth_calibration, "labeled trace and anchors")
    p_press = command(scenarios, "press", _synth_press, "repeated presses of one key")
    p_press.add_argument("--key", type=int, required=True, help="key index")
    p_press.add_argument("--repeat", type=int, default=1)
    p_press.add_argument("--flex-noise", type=float, default=0.0,
                         help="flex channel noise sigma in ADC codes")
    p_scale = command(scenarios, "scale", _synth_scale, "one press per key in turn")
    p_scale.add_argument("--keys", help="comma-separated key indices "
                         "(default: the reachable white keys)")
    for p in (p_press, p_scale):
        p.add_argument("--speed", default="0.5", help="press speed in (0, 1] or 'max'")
    p_sweep = command(scenarios, "sweep", _synth_sweep, "uniform direction set",
                      check=_sweep_flag_error)
    for p in (p_press, p_sweep):
        p.add_argument("--seed", type=int, default=0, help="random seed (0)")
    p_sweep.add_argument("--shape", choices=sorted(SWEEP_SHAPE_FLAGS), default="band")
    p_sweep.add_argument("--samples", type=int, default=600_000)
    for shape, flags in SWEEP_SHAPE_FLAGS.items():
        for flag, dest, text in flags:
            p_sweep.add_argument(flag, dest=dest, type=float, metavar="DEG",
                                 default=argparse.SUPPRESS, help=f"{shape} only: {text}")

    p_cal = command(sub, "calibrate", _calibrate, "calibration file from a labeled trace")
    p_cal.add_argument("--trace", required=True)
    p_cal.add_argument("--anchors", required=True,
                       help="encoder anchor file from the calibration poses")

    p_sim = command(sub, "simulate", _simulate, "run a trace through the full pipeline")
    p_sim.add_argument("--trace", required=True)
    p_sim.add_argument("--calibration", required=True)
    p_sim.add_argument("--mode", choices=engine.MODES, default="deterministic",
                       help="execution mode (deterministic)")
    p_sim.add_argument("--midi", action="store_true", help="also write a MIDI file")
    p_sim.add_argument("--verbose", action="store_true",
                       help="also print one line per key event")

    p_analyze = sub.add_parser("analyze", help="workspace | latency | range | budget")
    subjects = p_analyze.add_subparsers(dest="what", required=True)
    p_ws = command(subjects, "workspace", _analyze_workspace, "direction-set solid angle")
    p_ws.add_argument("--dirs", required=True, help="direction-set CSV")
    p_ws.add_argument("--ref-dirs", help="reference direction-set CSV for the ratio")
    p_ws.add_argument("--bins", type=int, default=100_000)
    command(subjects, "latency", _analyze_latency, "latency statistics and budget"
            ).add_argument("--latency", required=True, help="latency CSV from simulate")
    command(subjects, "range", _analyze_range, "whole notes reached beyond the pinkie"
            ).add_argument("--calibration", required=True, help="calibration file")
    command(subjects, "budget", _analyze_budget, "latency, mass and torque budgets"
            ).add_argument("--latency", help="latency CSV from simulate")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        args.func(args, _load_config(args))
    except (RobothumbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT if isinstance(exc, RobothumbError) else RUNTIME_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
