import hashlib
import importlib
import runpy
from pathlib import Path

import pytest

from robothumb import cli, synth
from robothumb.analysis import save_directions
from robothumb.cli import main
from robothumb.config import default_config
from robothumb.errors import InputError
from robothumb.sensors import BLOCK_ROWS

# the benchmark's flows and tracer, each run from its file without importing
# the rest of the benchmark
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))
BENCH_TRACER = runpy.run_path(str(PERFBENCH / "tracer.py"))


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """synth calibration + calibrate once for the whole module."""
    root = tmp_path_factory.mktemp("cli")
    assert run("synth", "calibration", "--out", root) == 0
    assert run("calibrate", "--trace", root / "calibration_trace.csv",
               "--anchors", root / "anchors.txt", "--out", root) == 0
    return root


def test_round_trip_from_default_config(workdir, capsys):
    assert run("synth", "press", "--key", 46, "--repeat", 2,
               "--out", workdir) == 0
    assert run("simulate", "--trace", workdir / "press_trace.csv",
               "--calibration", workdir / "calibration.txt",
               "--out", workdir / "run", "--midi") == 0
    assert run("analyze", "latency", "--latency", workdir / "run/latency.csv",
               "--out", workdir) == 0
    assert run("analyze", "range", "--calibration", workdir / "calibration.txt",
               "--out", workdir) == 0
    assert run("analyze", "budget", "--latency", workdir / "run/latency.csv",
               "--out", workdir) == 0
    out = capsys.readouterr().out
    assert "whole notes beyond the pinkie: 4" in out
    assert "EXCEEDED" in out
    assert (workdir / "run/events.csv").exists()
    assert (workdir / "run/output.mid").exists()
    report = (workdir / "budget_report.txt").read_text()
    assert "latency_pass = 0" in report
    assert "torque_pass = 1" in report


def test_outputs_byte_stable(workdir):
    for out in ("rep1", "rep2"):
        assert run("simulate", "--trace", workdir / "press_trace.csv",
                   "--calibration", workdir / "calibration.txt",
                   "--out", workdir / out, "--midi") == 0
    for name in ("events.csv", "steps.csv", "latency.csv", "output.mid"):
        a = (workdir / "rep1" / name).read_bytes()
        b = (workdir / "rep2" / name).read_bytes()
        assert a == b, name


def test_max_speed_press_hits_velocity_cap(workdir):
    assert run("synth", "press", "--key", 46, "--speed", "max",
               "--out", workdir / "fast") == 0
    assert run("simulate", "--trace", workdir / "fast/press_trace.csv",
               "--calibration", workdir / "calibration.txt",
               "--out", workdir / "fast") == 0
    rows = (workdir / "fast/events.csv").read_text().splitlines()[1:]
    ons = [r for r in rows if ",on," in r]
    assert ons and all(r.endswith(",127") for r in ons)


@pytest.mark.parametrize("speed", ["0.33", "0.35", "0.4", "0.45", "0.5", "0.6", "0.8", "1"])
def test_every_press_is_detected_at_each_speed(speed, workdir, tmp_path, capsys):
    """From speed 0.4 down the lift and landing Z pulses abutted, so Z never
    fell back to rest and 10 presses gave one latency record."""
    assert run("synth", "press", "--key", 46, "--repeat", 10, "--speed", speed,
               "--out", tmp_path) == 0
    capsys.readouterr()
    assert run("simulate", "--trace", tmp_path / "press_trace.csv",
               "--calibration", workdir / "calibration.txt", "--out", tmp_path) == 0
    assert "events: 20  latency records: 10  air presses: 0" in capsys.readouterr().out


def test_black_key_press_with_rear_depth_fixture(workdir, tmp_path):
    """A black key (index 40, C#4) needs a sweep that reaches it and the
    hand shifted into the rear zone; one press yields one on/off pair."""
    fixture = tmp_path / "rear.cfg"
    fixture.write_text(
        "[mount]\nreach_near_x = 552.25\nreach_far_x = 669.75\ndepth = 60.0\n")
    out = tmp_path / "out"
    assert run("synth", "calibration", "--config", fixture, "--out", out) == 0
    assert run("calibrate", "--trace", out / "calibration_trace.csv",
               "--anchors", out / "anchors.txt", "--out", out) == 0
    assert run("synth", "press", "--key", 40, "--config", fixture,
               "--out", out) == 0
    assert run("simulate", "--trace", out / "press_trace.csv",
               "--calibration", out / "calibration.txt",
               "--config", fixture, "--out", out) == 0
    rows = (out / "events.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1:3] for r in rows] == [["on", "40"], ["off", "40"]]


def test_scale_scenario_presses_each_key(workdir):
    assert run("synth", "scale", "--keys", "43,44,46", "--out",
               workdir / "scale") == 0
    assert run("simulate", "--trace", workdir / "scale/scale_trace.csv",
               "--calibration", workdir / "calibration.txt",
               "--out", workdir / "scale") == 0
    rows = (workdir / "scale/events.csv").read_text().splitlines()[1:]
    on_keys = [int(r.split(",")[2]) for r in rows if ",on," in r]
    assert on_keys == [43, 44, 46]


def test_scale_without_keys_walks_reachable_white_keys(tmp_path):
    assert run("synth", "scale", "--out", tmp_path / "auto") == 0
    assert run("synth", "scale", "--keys", "43,44,46,48",
               "--out", tmp_path / "listed") == 0
    auto = (tmp_path / "auto/scale_trace.csv").read_bytes()
    assert auto == (tmp_path / "listed/scale_trace.csv").read_bytes()
    assert hashlib.sha256(auto).hexdigest() == (
        "9c108f0d7d92e36b1e77282cc4aae3babaabe2551b613d56ea8b8bc2705063d9")


def test_scale_without_keys_walks_the_rear_mount_sweep(tmp_path):
    """With the near reach moved two white keys down, the default list
    gains keys 39 and 41."""
    config = tmp_path / "rear.ini"
    config.write_text("[mount]\ndepth = 60\nreach_near_x = 552.25\n")
    assert run("synth", "scale", "--config", config, "--out", tmp_path / "auto") == 0
    assert run("synth", "scale", "--config", config, "--keys", "39,41,43,44,46,48",
               "--out", tmp_path / "listed") == 0
    auto = (tmp_path / "auto/scale_trace.csv").read_bytes()
    assert auto == (tmp_path / "listed/scale_trace.csv").read_bytes()


def test_configured_seed_drives_synth_noise(tmp_path):
    """The seed is set by the --seed flag of the command that draws."""
    noisy = ("synth", "press", "--key", 46, "--flex-noise", 2)
    assert run(*noisy, "--seed", 7, "--out", tmp_path / "first") == 0
    assert run(*noisy, "--seed", 7, "--out", tmp_path / "again") == 0
    assert run(*noisy, "--out", tmp_path / "default") == 0
    seeded = (tmp_path / "first/press_trace.csv").read_bytes()
    assert seeded == (tmp_path / "again/press_trace.csv").read_bytes()
    assert seeded != (tmp_path / "default/press_trace.csv").read_bytes()


@pytest.mark.parametrize("key", ["seed = 7", "mode = concurrent"])
def test_simulation_key_of_a_flag_exits_2(key, tmp_path, capsys):
    """The seed and the execution mode are flags of the commands that read
    them, not config keys."""
    config = tmp_path / "sim.ini"
    config.write_text(f"[simulation]\n{key}\n")
    assert run("synth", "press", "--key", 46, "--config", config, "--out", tmp_path) == 2
    assert f"unknown config key simulation.{key.split()[0]}" in capsys.readouterr().err
    assert not (tmp_path / "press_trace.csv").exists()


def test_workspace_subcommand(workdir, capsys):
    assert run("synth", "sweep", "--shape", "band", "--samples", 50_000,
               "--seed", 1, "--out", workdir / "ws") == 0
    assert run("analyze", "workspace", "--dirs", workdir / "ws/band_directions.csv",
               "--bins", 2000, "--out", workdir / "ws") == 0
    out = capsys.readouterr().out
    assert "solid angle:" in out
    assert (workdir / "ws/workspace_report.txt").exists()


def test_usage_errors_exit_1(workdir, capsys):
    assert run("synth", "unknown-scenario") == 1
    assert run("synth", "press") == 1  # --key missing
    assert run("analyze", "workspace") == 1  # --dirs missing
    assert run("no-such-command") == 1
    capsys.readouterr()


def test_validation_errors_exit_2(tmp_path, workdir, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("[layout]\nwhite_width = -1\n")
    assert run("synth", "calibration", "--config", bad_cfg,
               "--out", tmp_path) == 2
    # calibration trace missing a label
    trace = (workdir / "calibration_trace.csv").read_text()
    stripped = trace.replace("foot_up", "")
    broken = tmp_path / "broken.csv"
    broken.write_text(stripped)
    assert run("calibrate", "--trace", broken,
               "--anchors", workdir / "anchors.txt", "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert "foot_up" in err


def test_runtime_errors_exit_3(tmp_path):
    assert run("simulate", "--trace", tmp_path / "absent.csv",
               "--calibration", tmp_path / "absent.txt",
               "--out", tmp_path) == 3


def test_non_finite_trace_timestamps_exit_2(workdir, tmp_path, capsys):
    trace = tmp_path / "nan.csv"
    trace.write_text("t_ms,flex_adc,acc_y_adc,acc_z_adc,label\n"
                     + "nan,2000,1229,1474,\n" * 3)
    assert run("simulate", "--trace", trace,
               "--calibration", workdir / "calibration.txt",
               "--out", tmp_path) == 2
    assert "not finite" in capsys.readouterr().err


def test_non_integer_anchor_exits_2(workdir, tmp_path, capsys):
    lines = (workdir / "anchors.txt").read_text().splitlines()
    lines = ["enc_h_min = nan" if line.startswith("enc_h_min") else line
             for line in lines]
    bad = tmp_path / "anchors.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert run("calibrate", "--trace", workdir / "calibration_trace.csv",
               "--anchors", bad, "--out", tmp_path) == 2
    assert "enc_h_min" in capsys.readouterr().err


def test_unparsable_anchor_names_key_and_line(workdir, tmp_path, capsys):
    lines = (workdir / "anchors.txt").read_text().splitlines()
    lines = ["enc_hover = zero" if line.startswith("enc_hover") else line
             for line in lines]
    bad = tmp_path / "anchors.txt"
    bad.write_text("\n".join(lines) + "\n")
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("enc_hover"))
    assert run("calibrate", "--trace", workdir / "calibration_trace.csv",
               "--anchors", bad, "--out", tmp_path) == 2
    assert f"anchors.txt:{lineno}: enc_hover: could not convert" in capsys.readouterr().err


def test_anchor_beyond_the_joint_range_exits_2(workdir, tmp_path, capsys):
    """calibrate wrote this calibration, and simulate then exited 2."""
    lines = (workdir / "anchors.txt").read_text().splitlines()
    lines = ["enc_pressed = 99999" if line.startswith("enc_pressed") else line
             for line in lines]
    bad = tmp_path / "anchors.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert run("calibrate", "--trace", workdir / "calibration_trace.csv",
               "--anchors", bad, "--out", tmp_path) == 2
    assert "enc_pressed outside the vertical joint range" in capsys.readouterr().err
    assert not (tmp_path / "calibration.txt").exists()


def test_sensor_anchor_beyond_the_adc_range_is_not_calibrated(workdir, tmp_path, capsys):
    """A flex_max segment at 99999 on a 12-bit ADC was written to the
    calibration file, exit 0."""
    rows = [line.split(",") for line in
            (workdir / "calibration_trace.csv").read_text().splitlines()]
    for row in rows:
        if row[4] == "flex_max":
            row[1] = "99999"
    bad = tmp_path / "calibration_trace.csv"
    bad.write_text("".join(",".join(row) + "\n" for row in rows))
    assert run("calibrate", "--trace", bad, "--anchors", workdir / "anchors.txt",
               "--out", tmp_path) == 2
    assert "flex_max = 99999 outside the ADC range [0, 4095]" in capsys.readouterr().err
    assert not (tmp_path / "calibration.txt").exists()


@pytest.mark.parametrize("name,value", [("flex_max", 99999), ("y_min", -1), ("z_max", 4096)])
def test_sensor_anchor_beyond_the_adc_range_is_not_simulated(name, value, workdir,
                                                              tmp_path, capsys):
    """An edited flex_max = 99999 steered a press of key 46 onto key 43, exit 0."""
    assert run("synth", "press", "--key", 46, "--out", tmp_path) == 0
    lines = (workdir / "calibration.txt").read_text().splitlines()
    lines = [f"{name} = {value}" if line.startswith(f"{name} ") else line for line in lines]
    bad = tmp_path / "calibration.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert run("simulate", "--trace", tmp_path / "press_trace.csv",
               "--calibration", bad, "--out", tmp_path) == 2
    assert f"{name} = {value} outside the ADC range" in capsys.readouterr().err
    assert not (tmp_path / "events.csv").exists()


def test_range_checks_the_calibration_it_reads(workdir, tmp_path, capsys):
    """analyze range printed 6 whole notes, exit 0, for an encoder anchor
    that simulate refused."""
    lines = (workdir / "calibration.txt").read_text().splitlines()
    lines = ["enc_h_max = -99999" if line.startswith("enc_h_max ") else line
             for line in lines]
    bad = tmp_path / "calibration.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert run("analyze", "range", "--calibration", bad, "--out", tmp_path) == 2
    captured = capsys.readouterr()
    assert "enc_h_max outside the horizontal joint range" in captured.err
    assert "whole notes" not in captured.out
    assert not (tmp_path / "range_report.txt").exists()


@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_adc_v_ref_exits_2(value, tmp_path, capsys):
    """adc_v_ref = 0 ended in a ZeroDivisionError traceback, exit 1; -5 was
    accepted."""
    config = tmp_path / "vref.ini"
    config.write_text(f"[sensors]\nadc_v_ref = {value}\n")
    assert run("synth", "calibration", "--config", config, "--out", tmp_path) == 2
    assert "[sensors] adc_v_ref must be positive" in capsys.readouterr().err
    assert not (tmp_path / "calibration_trace.csv").exists()


def test_fractional_calibration_value_exits_2(workdir, tmp_path, capsys):
    lines = (workdir / "calibration.txt").read_text().splitlines()
    lines = [line + ".9" if line.startswith("flex_min") else line for line in lines]
    bad = tmp_path / "calibration.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert run("simulate", "--trace", workdir / "calibration_trace.csv",
               "--calibration", bad, "--out", tmp_path) == 2
    assert "flex_min" in capsys.readouterr().err


def test_accel_noise_key_exits_2(tmp_path, capsys):
    config = tmp_path / "noise.ini"
    config.write_text("[sensors]\naccel_noise_sigma = 0.01\n")
    assert run("synth", "calibration", "--config", config, "--out", tmp_path) == 2
    assert "sensors.accel_noise_sigma" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", [("calibration",), ("press", "--key", 46)])
def test_pressed_anchor_beyond_the_joint_range_exits_2(scenario, tmp_path, capsys):
    """The overtravel carries the pressed pose past a 12 degree press joint:
    synth stops there, not simulate after calibrate."""
    config = tmp_path / "shallow.ini"
    config.write_text("[geometry]\ntheta_v_max = 12\n[mount]\npress_overtravel_deg = 5\n")
    assert run("synth", *scenario, "--config", config, "--out", tmp_path) == 2
    assert "enc_pressed outside the vertical joint range" in capsys.readouterr().err
    assert not (tmp_path / "anchors.txt").exists()


@pytest.mark.parametrize("argv,config,message", [
    (("press", "--key", 46, "--repeat", 0), None, "repeat must be >= 1"),
    (("press", "--key", 88), None, "key index 88 outside the keyboard"),
    (("scale", "--keys", "44,88"), None, "key index 88 outside the keyboard"),
    (("calibration",), "[mount]\nbase_z = 10\n",
     "mount base_z puts the hovering tip below the keys"),
], ids=["repeat-0", "press-key-88", "scale-key-88", "base-z-10"])
def test_synth_input_outside_its_domain_exits_2(argv, config, message, tmp_path, capsys):
    """Each refusal writes no file; the low mount once left a calibration
    trace behind."""
    if config is not None:
        (tmp_path / "config.ini").write_text(config)
        argv += ("--config", tmp_path / "config.ini")
    assert run("synth", *argv, "--out", tmp_path / "out") == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*"))


def test_verbose_only_on_simulate(workdir, tmp_path, capsys):
    assert run("synth", "calibration", "--verbose", "--out", tmp_path) == 1
    assert run("synth", "press", "--key", 46, "--out", tmp_path) == 0
    capsys.readouterr()
    assert run("simulate", "--trace", tmp_path / "press_trace.csv",
               "--calibration", workdir / "calibration.txt",
               "--out", tmp_path, "--verbose") == 0
    out = capsys.readouterr().out
    event_lines = [line for line in out.splitlines() if " ms  " in line]
    assert len(event_lines) == 2  # one press: key-on and key-off
    assert "on  key 46" in event_lines[0] and "off key 46" in event_lines[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text,message", [
    (b"x,y,z\nnan,0,0\n", "dirs.csv: direction norms deviate from 1 by up to nan"),
    (b"x,y,z\n1,0,0\n1,0\n", "dirs.csv: the number of columns changed"),
    (b"x,y,z\n1,0\n0,1\n", "dirs.csv: expected 3 columns x,y,z"),
    (b"x,y,z\nabc,0,0\n", "dirs.csv: could not convert string 'abc'"),
    (b"x,y,z\n", "dirs.csv: direction set is empty"),
    (b"1,0,0\n0,1,0\n", "dirs.csv: first line must be the header x,y,z"),
    (b"x,y,z\n\xff,0,0\n", "dirs.csv: 'utf-8' codec can't decode"),
], ids=["nan", "ragged", "non-numeric", "header-only", "no-header", "undecodable",
        "two-columns"])
def test_malformed_direction_csv_exits_2(text, message, tmp_path, capsys):
    dirs = tmp_path / "dirs.csv"
    dirs.write_bytes(text)
    assert run("analyze", "workspace", "--dirs", dirs, "--bins", 1000,
               "--out", tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "workspace_report.txt").exists()


def test_direction_norm_error_names_the_reference_file(tmp_path, capsys):
    (tmp_path / "ok.csv").write_text("x,y,z\n1,0,0\n0,1,0\n")
    (tmp_path / "nan.csv").write_text("x,y,z\n1,0,0\nnan,0,0\n")
    assert run("analyze", "workspace", "--dirs", tmp_path / "ok.csv",
               "--ref-dirs", tmp_path / "nan.csv", "--bins", 1000,
               "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'nan.csv'}: direction norms deviate" in err
    assert not (tmp_path / "workspace_report.txt").exists()


@pytest.mark.parametrize("ref", [b"", b"x,y,z\n", b"x,y,z\nnan,0,0\n", b"x,y,z\n1,0\n"],
                         ids=["empty", "header-only", "nan", "two-columns"])
def test_refused_reference_prints_no_result(ref, tmp_path, capsys):
    """Both direction sets are read before the first set's solid angle is
    printed, so a refused reference prints no result and writes no report."""
    (tmp_path / "one.csv").write_text("x,y,z\n1,0,0\n")
    (tmp_path / "ref.csv").write_bytes(ref)
    assert run("analyze", "workspace", "--dirs", tmp_path / "one.csv",
               "--ref-dirs", tmp_path / "ref.csv", "--bins", 1000,
               "--out", tmp_path) == 2
    captured = capsys.readouterr()
    assert "solid angle" not in captured.out
    assert f"{tmp_path / 'ref.csv'}: " in captured.err
    assert not (tmp_path / "workspace_report.txt").exists()


def test_bins_beyond_limit_exit_2_before_allocating(tmp_path, capsys):
    """10**12 bins once ended in numpy's out-of-memory traceback."""
    (tmp_path / "dirs.csv").write_text("x,y,z\n1,0,0\n0,1,0\n")
    assert run("analyze", "workspace", "--dirs", tmp_path / "dirs.csv",
               "--bins", 1_000_000_000_000, "--out", tmp_path) == 2
    assert "n_bins must be in [100, 100000000]" in capsys.readouterr().err
    assert not (tmp_path / "workspace_report.txt").exists()


@pytest.mark.parametrize("row,message", [
    ("1,2", "line 3: expected 3 columns, found 2"),
    ("foo,2,3", "line 3: could not convert string to float: 'foo'"),
    ("nan,2,3", "line 3: 'nan,2,3' holds a non-finite value"),
    ("900,985,5", "line 3: delay 5.0 is not action minus intention, 85.0"),
], ids=["short", "non-numeric", "nan", "delay"])
@pytest.mark.parametrize("what", [("latency",), ("budget",)])
def test_malformed_latency_row_exits_2(what, row, message, tmp_path, capsys):
    latency = tmp_path / "latency.csv"
    latency.write_text(f"intention_ms,action_ms,delay_ms\n900.000,985.000,85.000\n{row}\n")
    assert run("analyze", *what, "--latency", latency, "--out", tmp_path) == 2
    assert f"{latency}: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_report.txt"))


def test_latency_file_with_another_header_exits_2(tmp_path, capsys):
    latency = tmp_path / "latency.csv"
    latency.write_text("intention_ms,delay_ms\n900.000,85.000\n")
    assert run("analyze", "latency", "--latency", latency, "--out", tmp_path) == 2
    assert f"{latency}: not a latency log" in capsys.readouterr().err
    assert not (tmp_path / "latency_report.txt").exists()


def test_blank_line_between_latency_rows_is_skipped(tmp_path):
    rows = ["intention_ms,action_ms,delay_ms\n", "900.000,985.000,85.000\n",
            "1300.000,1390.000,90.000\n"]
    (tmp_path / "plain.csv").write_text("".join(rows))
    (tmp_path / "blank.csv").write_text("".join(rows[:2]) + "\n" + rows[2])
    reports = []
    for name in ("plain", "blank"):
        assert run("analyze", "latency", "--latency", tmp_path / f"{name}.csv",
                   "--out", tmp_path / name) == 0
        reports.append((tmp_path / name / "latency_report.txt").read_text())
    assert reports[0] == reports[1]
    assert "count = 2\n" in reports[1]


def test_undecodable_latency_file_exits_2(tmp_path, capsys):
    latency = tmp_path / "latency.csv"
    latency.write_bytes(b"intention_ms,action_ms,delay_ms\n\xff,1,1\n")
    assert run("analyze", "latency", "--latency", latency, "--out", tmp_path) == 2
    assert f"{latency}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_scale_key_token_not_an_index_exits_2(tmp_path, capsys):
    assert run("synth", "scale", "--keys", "4x,46", "--out", tmp_path) == 2
    assert "--keys: '4x' is not a key index" in capsys.readouterr().err
    assert not (tmp_path / "scale_trace.csv").exists()


def test_scale_of_empty_keys_exits_2(tmp_path, capsys):
    """--keys "" played the default keys and exited 0."""
    assert run("synth", "scale", "--keys", "", "--out", tmp_path) == 2
    assert "--keys: '' is not a key index" in capsys.readouterr().err
    assert not (tmp_path / "scale_trace.csv").exists()


def test_scale_of_no_keys_is_refused_by_the_library():
    with pytest.raises(InputError, match="scale needs at least one key"):
        synth.scale_trace(default_config(), [])


@pytest.mark.parametrize("args", [
    ("--elev-min", "nan"), ("--elev-max", "nan"), ("--azimuth", "nan"),
    ("--elev-min", 10, "--elev-max", 0), ("--azimuth", 361),
    ("--shape", "cap", "--half-angle", "nan"), ("--shape", "cap", "--half-angle", 181),
])
def test_invalid_sweep_parameters_exit_2(args, tmp_path, capsys):
    assert run("synth", "sweep", "--samples", 10, *args, "--out", tmp_path) == 2
    assert "must" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_directions.csv"))


@pytest.mark.parametrize("shape", ["band", "cap"])
def test_sweep_samples_above_the_limit_exit_2_before_the_write(shape, tmp_path, monkeypatch):
    """A count past ``MAX_DIRECTIONS`` is refused before the file is opened;
    a write, were it started, fails the test instead of filling the disk."""
    def save(dirs, path):
        raise AssertionError("the write started")

    monkeypatch.setattr(cli.analysis, "save_directions", save)
    assert run("synth", "sweep", "--shape", shape,
               "--samples", cli.analysis.MAX_DIRECTIONS + 1, "--out", tmp_path) == 2
    assert not (tmp_path / f"{shape}_directions.csv").exists()


def test_non_finite_config_float_exits_2(workdir, tmp_path, capsys):
    config = tmp_path / "inf.ini"
    config.write_text("[control]\nkv_z = inf\n")
    assert run("synth", "press", "--key", 46, "--config", config,
               "--out", tmp_path) == 2
    assert "control.kv_z" in capsys.readouterr().err


@pytest.mark.parametrize("data,message", [
    (b"kp_h = 1\n", "File contains no section headers"),
    (b"[control]\nkp_h = 0.5\nkp_h = 0.6\n", "option 'kp_h' in section 'control' already exists"),
    (b"[control]\nkp_h = 0.5\n[control]\n", "section 'control' already exists"),
    (b"[control]\nkp_h\n", "Source contains parsing errors"),
    (b"[x\nkp_h = 1\n", "File contains no section headers"),
    (b"[control]\nkp_h = 0.5 \xff\n", "'utf-8' codec can't decode"),
], ids=["no-section", "duplicate-key", "duplicate-section", "bare-key", "unclosed-section",
        "undecodable"])
def test_malformed_config_exits_2(data, message, tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_bytes(data)
    assert run("analyze", "budget", "--config", config, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and message in err
    assert not (tmp_path / "budget_report.txt").exists()


@pytest.mark.parametrize("text", ["[DEFAULT]\nkp_h = 0.9\n",
                                  "[DEFAULT]\nkp_h = 0.9\n[control]\n"],
                         ids=["alone", "with-control"])
def test_default_section_exits_2(text, tmp_path, capsys):
    config = tmp_path / "default.ini"
    config.write_text(text)
    assert run("analyze", "budget", "--config", config, "--out", tmp_path) == 2
    assert "unknown config section [DEFAULT]" in capsys.readouterr().err


@pytest.mark.parametrize("n_keys,code", [(107, 0), (108, 2)])
def test_layout_bounded_by_midi_note_range(n_keys, code, tmp_path, capsys):
    config = tmp_path / "keys.ini"
    config.write_text(f"[layout]\nn_keys = {n_keys}\n")
    assert run("analyze", "budget", "--config", config, "--out", tmp_path) == code
    if code:
        assert "[layout] n_keys must be in [1, 107]" in capsys.readouterr().err


@pytest.mark.parametrize("data,message", [
    (b"enc_h_min = -163\nenc_h_max = 3686 \xff\n", "anchors.txt:2: 'utf-8' codec can't decode"),
    (b"enc_h_min = -163\n\nenc_h_min = -100\n", "anchors.txt:3: enc_h_min given twice"),
    # appended to the four anchors, it was ignored: exit 0
    (b"enc_h_min = 791\nenc_h_max = -796\nenc_hover = 0\nenc_pressed = 558\nenc_pressd = 9\n",
     "anchors.txt:5: unknown name enc_pressd"),
], ids=["undecodable", "duplicate", "unknown-name"])
def test_malformed_anchor_file_exits_2(data, message, workdir, tmp_path, capsys):
    anchors = tmp_path / "anchors.txt"
    anchors.write_bytes(data)
    assert run("calibrate", "--trace", workdir / "calibration_trace.csv",
               "--anchors", anchors, "--out", tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "calibration.txt").exists()


def test_unknown_calibration_name_exits_2(workdir, tmp_path, capsys):
    """kv_z = 3 added to calibration.txt was ignored by analyze range, exit 0."""
    calibration = tmp_path / "calibration.txt"
    calibration.write_text((workdir / "calibration.txt").read_text() + "kv_z = 3\n")
    assert run("analyze", "range", "--calibration", calibration, "--out", tmp_path) == 2
    assert f"{calibration}:11: unknown name kv_z" in capsys.readouterr().err
    assert not (tmp_path / "range_report.txt").exists()


def test_calibration_missing_a_name_exits_2(workdir, tmp_path, capsys):
    calibration = tmp_path / "calibration.txt"
    calibration.write_text("".join(
        line for line in (workdir / "calibration.txt").read_text().splitlines(True)
        if not line.startswith("enc_pressed ")))
    assert run("analyze", "range", "--calibration", calibration, "--out", tmp_path) == 2
    assert "error: enc_pressed missing\n" in capsys.readouterr().err
    assert not (tmp_path / "range_report.txt").exists()


def test_calibration_trace_code_beyond_the_adc_range_exits_2(workdir, tmp_path, capsys):
    """flex_min rows of 7482 and -2518 on a 12-bit ADC keep the segment mean
    a valid code; calibrate wrote calibration.txt, exit 0."""
    lines = (workdir / "calibration_trace.csv").read_text().splitlines(keepends=True)
    for i, code in ((1, "7482"), (2, "-2518")):
        row = lines[i].split(",")
        assert row[4] == "flex_min\n"
        row[1] = code
        lines[i] = ",".join(row)
    trace = tmp_path / "calibration_trace.csv"
    trace.write_text("".join(lines))
    assert run("calibrate", "--trace", trace, "--anchors", workdir / "anchors.txt",
               "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert "sample at t=0.0 ms carries ADC codes 7482," in err
    assert "not all in [0, 4095]" in err
    assert not (tmp_path / "calibration.txt").exists()


def test_trace_error_names_the_file(workdir, tmp_path, capsys):
    trace = tmp_path / "short.csv"
    trace.write_text("t_ms,flex_adc,acc_y_adc,acc_z_adc,label\n0,1,2,3,\n1,1,2,\n")
    assert run("simulate", "--trace", trace, "--calibration", workdir / "calibration.txt",
               "--out", tmp_path) == 2
    assert f"error: {trace}: line 3: expected 5 columns" in capsys.readouterr().err


def test_negative_trace_timestamp_exits_2(workdir, tmp_path, capsys):
    trace = tmp_path / "negative.csv"
    trace.write_text("t_ms,flex_adc,acc_y_adc,acc_z_adc,label\n"
                     "-1,2000,1229,1474,\n0,2000,1229,1474,\n")
    assert run("simulate", "--trace", trace, "--calibration", workdir / "calibration.txt",
               "--out", tmp_path) == 2
    assert f"error: {trace}: sample timestamps must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "events.csv").exists()


def test_calibrate_prints_the_calibration_file(workdir, tmp_path, capsys):
    assert run("calibrate", "--trace", workdir / "calibration_trace.csv",
               "--anchors", workdir / "anchors.txt", "--out", tmp_path) == 0
    text = (tmp_path / "calibration.txt").read_text()
    assert capsys.readouterr().out == f"{text}wrote {tmp_path / 'calibration.txt'}\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a6e6a48eb21080812d2b2fcecbdbd0f0a7ebd730eac1483f0c33b32195539326")


@pytest.mark.parametrize("scenario", [("press", "--key", 46, "--flex-noise", 2),
                                      ("sweep", "--samples", 10)], ids=["press", "sweep"])
def test_negative_seed_exits_2(scenario, tmp_path, capsys):
    assert run("synth", *scenario, "--seed", -1, "--out", tmp_path) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("call", [
    lambda: synth.press_trace(default_config(), 46, seed=-1),
    lambda: synth.band_sweep(10, seed=-1),
    lambda: synth.cap_sweep(10, seed=-1),
], ids=["press_trace", "band_sweep", "cap_sweep"])
def test_negative_seed_is_refused_by_the_library(call):
    """numpy's generators raised a bare ValueError on a negative seed."""
    with pytest.raises(InputError, match="seed must be non-negative"):
        call()


@pytest.mark.parametrize("scenario", [["press", "--key", 46], ["calibration"],
                                      ["scale", "--keys", "44,46"]])
def test_timestep_too_fine_for_trace_exits_2(scenario, tmp_path, capsys):
    config = tmp_path / "fine.ini"
    config.write_text("[simulation]\ntimestep = 1e-300\n")
    assert run("synth", *scenario, "--config", config, "--out", tmp_path) == 2
    assert "needs more than 10000000 rows" in capsys.readouterr().err


@pytest.mark.parametrize("timestep,scenario,message", [
    (400, ["calibration"], "200.0 ms of trace at a timestep of 400.0 ms makes 0 row(s)"),
    (2000, ["press", "--key", 46],
     "1600.0 ms of trace at a timestep of 2000.0 ms makes 1 row(s)"),
], ids=["calibration-400", "press-2000"])
def test_timestep_too_coarse_for_trace_exits_2(timestep, scenario, message, tmp_path,
                                               capsys):
    """A header-only calibration trace and a 1-row press trace were written
    with exit 0; calibrate and simulate then refused them."""
    config = tmp_path / "coarse.ini"
    config.write_text(f"[simulation]\ntimestep = {timestep}\n")
    assert run("synth", *scenario, "--config", config, "--out", tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_coarsest_spans_the_synth_accepts_read_back(tmp_path):
    """A calibration segment of one row and a press trace of two rows still
    calibrate and simulate."""
    config = tmp_path / "coarse.ini"
    config.write_text("[simulation]\ntimestep = 300\n")
    assert run("synth", "calibration", "--config", config, "--out", tmp_path) == 0
    assert run("calibrate", "--config", config, "--trace", tmp_path / "calibration_trace.csv",
               "--anchors", tmp_path / "anchors.txt", "--out", tmp_path) == 0
    config.write_text("[simulation]\ntimestep = 1000\n")
    assert run("synth", "press", "--key", 46, "--config", config, "--out", tmp_path) == 0
    assert run("simulate", "--config", config, "--trace", tmp_path / "press_trace.csv",
               "--calibration", tmp_path / "calibration.txt", "--out", tmp_path) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: a timestep of 1000 ms plays 10 presses as 2")
def test_coarse_timestep_plays_every_press_or_is_refused(workdir, tmp_path):
    """Today ``synth press`` writes 5 rows for 10 presses, and ``simulate``
    gives 2 key-ons and one latency record of 1,000 ms, with exit 0."""
    config = tmp_path / "coarse.ini"
    config.write_text("[simulation]\ntimestep = 1000\n")
    rc = run("synth", "press", "--key", 46, "--repeat", 10, "--config", config,
             "--out", tmp_path)
    if rc == 2:
        assert not list(tmp_path.glob("*.csv"))
        return
    assert rc == 0
    assert run("simulate", "--config", config, "--trace", tmp_path / "press_trace.csv",
               "--calibration", workdir / "calibration.txt", "--out", tmp_path) == 0
    events = (tmp_path / "events.csv").read_text().splitlines()[1:]
    latencies = (tmp_path / "latency.csv").read_text().splitlines()[1:]
    assert (sum(",on," in row for row in events), len(latencies)) == (10, 10)


@pytest.mark.parametrize("value", ["0", "-360"])
def test_non_positive_theta_h_range_exits_2(value, tmp_path, capsys):
    """Loaded, then blamed the anchor in synth and passed analyze budget."""
    config = tmp_path / "range.ini"
    config.write_text(f"[geometry]\ntheta_h_range = {value}\n")
    for argv in (("synth", "calibration"), ("analyze", "budget")):
        assert run(*argv, "--config", config, "--out", tmp_path) == 2
        assert "[geometry] theta_h_range must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


def test_trace_span_beyond_step_limit_exits_2(workdir, tmp_path, capsys):
    trace = tmp_path / "far.csv"
    trace.write_text("t_ms,flex_adc,acc_y_adc,acc_z_adc,label\n"
                     "1000000000000.0,2000,1229,1474,\n"
                     "1000000000001.0,2000,1229,1474,\n")
    assert run("simulate", "--trace", trace,
               "--calibration", workdir / "calibration.txt",
               "--out", tmp_path) == 2
    assert "more than 10000000 steps" in capsys.readouterr().err
    assert not (tmp_path / "steps.csv").exists()


def test_gear_ratio_beyond_exact_counts_exits_2(tmp_path, capsys):
    config = tmp_path / "gear.ini"
    config.write_text(f"[axes]\ngear_ratio = {10**400}\n")
    assert run("analyze", "budget", "--config", config, "--out", tmp_path) == 2
    assert "[axes] encoder_cpr * quadrature * gear_ratio must be at most 2**53" in (
        capsys.readouterr().err)
    assert not (tmp_path / "budget_report.txt").exists()


LATENCY_CSV = "intention_ms,action_ms,delay_ms\n900.000,985.000,85.000\n"


@pytest.mark.parametrize("argv", [
    ("synth", "calibration", "--samples", 5),
    ("synth", "scale", "--repeat", 3),
    ("synth", "sweep", "--samples", 10, "--key", 3),
    ("analyze", "latency", "--latency", "{latency}", "--dirs", "x"),
    ("analyze", "range", "--calibration", "{calibration}", "--bins", 7),
    ("simulate", "--trace", "{latency}", "--calibration", "{calibration}", "--seed", 5),
    ("analyze", "budget", "--seed", -1),
], ids=["calibration-samples", "scale-repeat", "sweep-key", "latency-dirs", "range-bins",
        "simulate-seed", "budget-seed"])
def test_flag_not_read_by_the_command_exits_1(argv, workdir, tmp_path, capsys):
    """Each scenario and subject accepted every flag of its command and ignored
    the ones it does not read."""
    (tmp_path / "latency.csv").write_text(LATENCY_CSV)
    files = {"latency": tmp_path / "latency.csv",
             "calibration": workdir / "calibration.txt"}
    argv = [str(a).format(**files) for a in argv]
    assert run(*argv, "--out", tmp_path / "out") == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,prog", [
    (("synth", "calibration", "--samples", 5), "robothumb synth calibration"),
    (("synth", "press", "--key", 46, "extra"), "robothumb synth press"),
    (("analyze", "range", "--calibration", "c.txt", "--bins", 7), "robothumb analyze range"),
    (("calibrate", "--trace", "t.csv", "--anchors", "a.txt", "--mode", "concurrent"),
     "robothumb calibrate"),
], ids=["synth-calibration", "synth-press", "analyze-range", "calibrate"])
def test_unrecognized_argument_shows_the_command_usage(argv, prog, capsys):
    """The top-level parser reported these with its own usage, which does
    not show the flags the command takes."""
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {prog} [-h] [--config CONFIG]")
    assert f"{prog}: error: unrecognized arguments: " in err


@pytest.mark.parametrize("argv", [
    ("--shape", "band", "--half-angle", 500), ("--shape", "cap", "--azimuth", 9999),
    ("--half-angle", 30), ("--shape", "cap", "--elev-min", 0, "--elev-max", 10),
], ids=["band-half-angle", "cap-azimuth", "default-shape-half-angle", "cap-elevations"])
def test_sweep_flag_of_the_other_shape_exits_1(argv, tmp_path, capsys):
    """Each shape ignored the other shape's flags and exited 0."""
    assert run("synth", "sweep", "--samples", 10, *argv, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: robothumb synth sweep")
    assert "applies to --shape" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,expected", [
    (("--shape", "band", "--azimuth", 180, "--elev-min", 0),
     lambda: synth.band_sweep_directions(1_000, 180.0, 0.0, 60.0, seed=3)),
    (("--elev-max", 30), lambda: synth.band_sweep_directions(1_000, elev_max=30.0, seed=3)),
    (("--shape", "cap", "--half-angle", 30), lambda: synth.cap_directions(1_000, 30.0, seed=3)),
    (("--shape", "cap",), lambda: synth.cap_directions(1_000, seed=3)),
], ids=["band", "band-default-shape", "cap", "cap-defaults"])
def test_sweep_shape_flags_reach_the_generator(argv, expected, tmp_path):
    assert run("synth", "sweep", "--samples", 1_000, "--seed", 3, *argv,
               "--out", tmp_path) == 0
    shape = "cap" if "cap" in argv else "band"
    save_directions(expected(), tmp_path / "expected.csv")
    assert ((tmp_path / f"{shape}_directions.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())


@pytest.mark.parametrize("text", [None, "[mount]\nno_such_key = 1\n"],
                         ids=["missing", "unknown-key"])
def test_calibrate_checks_its_config(text, workdir, tmp_path, capsys):
    config = tmp_path / "calibrate.ini"
    if text is not None:
        config.write_text(text)
    assert run("calibrate", "--trace", workdir / "calibration_trace.csv",
               "--anchors", workdir / "anchors.txt", "--config", config,
               "--out", tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "calibration.txt").exists()


@pytest.mark.parametrize("scenario", [("press", "--key", 46), ("scale", "--keys", "44,46")],
                         ids=["press", "scale"])
def test_non_numeric_speed_exits_2(scenario, tmp_path, capsys):
    """--speed abc ended in a ValueError traceback, exit 1."""
    assert run("synth", *scenario, "--speed", "abc", "--out", tmp_path) == 2
    assert "press speed 'abc' must be in (0, 1]" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_trace.csv"))


@pytest.mark.parametrize("sigma", ["nan", "inf", "-3"])
def test_flex_noise_not_finite_and_non_negative_exits_2(sigma, tmp_path, capsys):
    """nan and -3 wrote a noise-free trace; inf wrote flex codes of 4095 and 0."""
    assert run("synth", "press", "--key", 46, "--flex-noise", sigma,
               "--out", tmp_path) == 2
    assert f"flex noise sigma {float(sigma)} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "press_trace.csv").exists()


@pytest.mark.parametrize("size", sorted(BENCH_WORKLOADS["SIZES"]))
@pytest.mark.parametrize("workload", BENCH_WORKLOADS["WORKLOADS"])
def test_benchmark_steps_parse(workload, size, tmp_path):
    """An argv of the benchmark that stopped parsing would fail every pass."""
    flow = BENCH_WORKLOADS["build_flow"](workload, 0, size, tmp_path)
    for argv in flow.steps:
        args = cli.build_parser().parse_args(argv)
        words = argv[:2] if argv[0] in ("synth", "analyze") else argv[:1]
        assert args.func is getattr(cli, "_" + "_".join(words)), argv


@pytest.mark.parametrize("module,attribute",
                         sorted({target[:2] for target in BENCH_TRACER["TARGETS"]}))
def test_tracer_targets_resolve(module, attribute):
    """Each function the benchmark tracer wraps is found where the tracer
    looks it up: a renamed or moved one would crash a traced pass."""
    assert callable(getattr(importlib.import_module(f"robothumb.{module}"), attribute))


@pytest.mark.parametrize("shape", ["band", "cap"])
def test_saved_directions_have_the_length_the_tracer_counts(shape, tmp_path, monkeypatch):
    """The tracer adds ``len()`` of ``save_directions``' first argument to
    ``analysis.directions``: whatever ``synth sweep`` passes must have a
    length, the number of rows written."""
    lengths = []

    def save(dirs, path):
        lengths.append(len(dirs))
        return save_directions(dirs, path)

    monkeypatch.setattr(cli.analysis, "save_directions", save)
    assert run("synth", "sweep", "--shape", shape, "--samples", 2 * BLOCK_ROWS + 3,
               "--out", tmp_path) == 0
    rows = len((tmp_path / f"{shape}_directions.csv").read_bytes().splitlines()) - 1
    assert lengths == [rows] == [2 * BLOCK_ROWS + 3]
