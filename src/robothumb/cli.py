"""Command-line entry point: synth, calibrate, simulate, analyze.

Exit codes: 0 success, 1 usage error, 2 validation error (bad config,
trace or calibration), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import analysis, engine, midi, synth
from .config import GlobalConfig, default_config, load_config
from .control import (calibrate_from_trace, load_calibration, read_kv_file,
                      save_calibration, write_kv_file)
from .errors import InputError, RobothumbError
from .piano import MIDI_A0, note_name
from .sensors import load_trace, save_trace

USAGE_EXIT = 1
VALIDATION_EXIT = 2
RUNTIME_EXIT = 3


class UsageError(Exception):
    """A required option is missing for the chosen subcommand."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _load_config(args) -> GlobalConfig:
    cfg = load_config(args.config) if args.config else default_config()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "mode", None):
        overrides["mode"] = args.mode
    if overrides:
        cfg = dataclasses.replace(
            cfg, simulation=dataclasses.replace(cfg.simulation, **overrides))
    return cfg


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


def _cmd_synth(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    if args.scenario == "calibration":
        trace = synth.calibration_trace(cfg)
        trace_path = out / "calibration_trace.csv"
        anchors_path = out / "anchors.txt"
        save_trace(trace, trace_path)
        write_kv_file(synth.anchors_from_config(cfg), anchors_path)
        print(f"wrote {trace_path}")
        print(f"wrote {anchors_path}")
    elif args.scenario == "press":
        if args.key is None:
            raise UsageError("synth press requires --key")
        trace = synth.press_trace(cfg, args.key, speed=args.speed,
                                  repeat=args.repeat, flex_noise=args.flex_noise,
                                  seed=cfg.simulation.seed)
        path = out / "press_trace.csv"
        save_trace(trace, path)
        print(f"wrote {path}")
    elif args.scenario == "scale":
        keys = _key_indices(args.keys) if args.keys else None
        if keys is None:
            calib = calibrate_from_trace(synth.calibration_trace(cfg),
                                         synth.anchors_from_config(cfg))
            reachable = analysis.reachable_keys(cfg.layout, cfg.geometry,
                                                cfg.mount, calib, cfg.axis)
            keys = [k.index for k in reachable if k.color == "white"]
        trace = synth.scale_trace(cfg, keys, speed=args.speed)
        path = out / "scale_trace.csv"
        save_trace(trace, path)
        print(f"wrote {path}")
    else:  # sweep
        if args.shape == "band":
            dirs = synth.band_sweep_directions(
                args.samples, azimuth_span=args.azimuth,
                elev_min=args.elev_min, elev_max=args.elev_max,
                seed=cfg.simulation.seed)
            path = out / "band_directions.csv"
        else:
            dirs = synth.cap_directions(args.samples, half_angle=args.half_angle,
                                        seed=cfg.simulation.seed)
            path = out / "cap_directions.csv"
        analysis.save_directions(dirs, path)
        print(f"wrote {path}")
    return 0


def _cmd_calibrate(args) -> int:
    trace = load_trace(args.trace)
    calib = calibrate_from_trace(trace, read_kv_file(args.anchors))
    out = _out_dir(args)
    path = out / "calibration.txt"
    save_calibration(calib, path)
    for name, value in dataclasses.asdict(calib).items():
        print(f"{name} = {value}")
    print(f"wrote {path}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    trace = load_trace(args.trace)
    calib = load_calibration(args.calibration)
    log = engine.run(trace, calib, cfg)
    out = _out_dir(args)
    events_path = out / "events.csv"
    steps_path = out / "steps.csv"
    latency_path = out / "latency.csv"
    engine.write_event_csv(log, events_path)
    engine.write_step_csv(log, steps_path)
    engine.write_latency_csv(log, latency_path)
    print(f"events: {len(log.events)}  latency records: {len(log.latencies)}  "
          f"air presses: {len(log.air_presses)}")
    if args.verbose:
        for e in log.events:
            velocity = "" if e.velocity is None else f" velocity {e.velocity}"
            print(f"  {e.t:9.1f} ms  {e.kind:<3} key {e.key_index} "
                  f"({note_name(MIDI_A0 + e.key_index)}){velocity}")
    print(f"wrote {events_path}")
    print(f"wrote {steps_path}")
    print(f"wrote {latency_path}")
    if args.midi:
        midi_path = out / "output.mid"
        midi.write_midi(log.events, midi_path)
        print(f"wrote {midi_path}")
    return 0


def _solid_angle(path, n_bins: int) -> tuple[float, int]:
    """Solid angle of a direction CSV and its direction count; errors name the file."""
    dirs = analysis.load_directions(path)
    try:
        return analysis.solid_angle(dirs, n_bins), len(dirs)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _cmd_analyze(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    if args.what == "workspace":
        if not args.dirs:
            raise UsageError("analyze workspace requires --dirs")
        estimate, count = _solid_angle(args.dirs, args.bins)
        report = {"solid_angle_sr": round(estimate, 4), "n_bins": args.bins,
                  "n_directions": count}
        print(f"solid angle: {estimate:.4f} sr over {count} directions "
              f"({args.bins} bins)")
        if args.ref_dirs:
            ref, _ = _solid_angle(args.ref_dirs, args.bins)
            report["ref_solid_angle_sr"] = round(ref, 4)
            report["ratio"] = round(estimate / ref, 4)
            print(f"reference:   {ref:.4f} sr; ratio {estimate / ref:.3f}")
        write_kv_file(report, out / "workspace_report.txt")
    elif args.what == "latency":
        if not args.latency:
            raise UsageError("analyze latency requires --latency")
        records = engine.read_latency_csv(args.latency)
        stats = analysis.latency_stats([r.delay for r in records])
        flag = "EXCEEDED" if stats.over_budget else "within budget"
        print(f"latency over {stats.count} presses: mean {stats.mean:.2f} ms, "
              f"stddev {stats.stddev:.2f} ms, max {stats.max:.2f} ms "
              f"({analysis.LATENCY_BUDGET_MS:.0f} ms budget {flag})")
        write_kv_file({"mean_ms": round(stats.mean, 3),
                       "stddev_ms": round(stats.stddev, 3),
                       "max_ms": round(stats.max, 3),
                       "count": stats.count,
                       "over_budget": int(stats.over_budget)},
                      out / "latency_report.txt")
    elif args.what == "range":
        if not args.calibration:
            raise UsageError("analyze range requires --calibration")
        calib = load_calibration(args.calibration)
        notes = analysis.range_increase(cfg.mount, cfg.geometry, calib,
                                        cfg.layout, cfg.axis, cfg.pinkie_reach_x)
        print(f"whole notes beyond the pinkie: {notes}")
        write_kv_file({"whole_notes_beyond_pinkie": notes},
                      out / "range_report.txt")
    else:  # budget
        measured = None
        if args.latency:
            records = engine.read_latency_csv(args.latency)
            measured = analysis.latency_stats([r.delay for r in records]).mean
        report = analysis.budget_check(cfg, measured)
        for line in report.lines():
            print(line)
        write_kv_file(report.kv(), out / "budget_report.txt")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="robothumb",
                     description="Robotic thumb piano pipeline simulator")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="configuration file (defaults built in)")
    common.add_argument("--seed", type=int, help="override the configured seed")
    common.add_argument("--out", default=".", help="output directory")

    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", parents=[common],
                             help="generate gesture traces and sweep fixtures")
    p_synth.add_argument("scenario", choices=["calibration", "press", "scale", "sweep"])
    p_synth.add_argument("--key", type=int, help="key index for press")
    p_synth.add_argument("--speed", default="0.5",
                         help="press speed in (0, 1] or 'max'")
    p_synth.add_argument("--repeat", type=int, default=1)
    p_synth.add_argument("--flex-noise", type=float, default=0.0,
                         help="flex channel noise sigma in ADC codes")
    p_synth.add_argument("--keys", help="comma-separated key indices for scale")
    p_synth.add_argument("--shape", choices=["band", "cap"], default="band")
    p_synth.add_argument("--samples", type=int, default=600_000)
    p_synth.add_argument("--azimuth", type=float, default=360.0)
    p_synth.add_argument("--elev-min", type=float, default=-60.0)
    p_synth.add_argument("--elev-max", type=float, default=60.0)
    p_synth.add_argument("--half-angle", type=float, default=54.9)
    p_synth.set_defaults(func=_cmd_synth)

    p_cal = sub.add_parser("calibrate", parents=[common],
                           help="compute calibration anchors from a labeled trace")
    p_cal.add_argument("--trace", required=True)
    p_cal.add_argument("--anchors", required=True,
                       help="encoder anchor file from the calibration poses")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run a trace through the full pipeline")
    p_sim.add_argument("--trace", required=True)
    p_sim.add_argument("--calibration", required=True)
    p_sim.add_argument("--mode", choices=["deterministic", "concurrent"],
                       help="override the configured execution mode")
    p_sim.add_argument("--midi", action="store_true", help="also write a MIDI file")
    p_sim.add_argument("--verbose", action="store_true",
                       help="also print one line per key event")
    p_sim.set_defaults(func=_cmd_simulate)

    p_an = sub.add_parser("analyze", parents=[common],
                          help="workspace | latency | range | budget")
    p_an.add_argument("what", choices=["workspace", "latency", "range", "budget"])
    p_an.add_argument("--dirs", help="direction-set CSV for workspace")
    p_an.add_argument("--ref-dirs", help="reference direction-set CSV for the ratio")
    p_an.add_argument("--bins", type=int, default=100_000)
    p_an.add_argument("--latency", help="latency CSV from a simulate run")
    p_an.add_argument("--calibration", help="calibration file for range")
    p_an.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except RobothumbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
