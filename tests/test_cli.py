import hashlib

import pytest

from robothumb.cli import main


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


def test_configured_seed_drives_synth_noise(tmp_path):
    config = tmp_path / "seed.ini"
    config.write_text("[simulation]\nseed = 7\n")
    noisy = ("synth", "press", "--key", 46, "--flex-noise", 2)
    assert run(*noisy, "--config", config, "--out", tmp_path / "config") == 0
    assert run(*noisy, "--seed", 7, "--out", tmp_path / "flag") == 0
    assert run(*noisy, "--out", tmp_path / "default") == 0
    by_config = (tmp_path / "config/press_trace.csv").read_bytes()
    assert by_config == (tmp_path / "flag/press_trace.csv").read_bytes()
    assert by_config != (tmp_path / "default/press_trace.csv").read_bytes()


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
    (b"x,y,z\nnan,0,0\n", "direction norms deviate from 1 by up to nan"),
    (b"x,y,z\n1,0,0\n1,0\n", "dirs.csv: the number of columns changed"),
    (b"x,y,z\nabc,0,0\n", "dirs.csv: could not convert string 'abc'"),
    (b"x,y,z\n", "dirs.csv: direction set is empty"),
    (b"1,0,0\n0,1,0\n", "dirs.csv: first line must be the header x,y,z"),
    (b"x,y,z\n\xff,0,0\n", "dirs.csv: 'utf-8' codec can't decode"),
], ids=["nan", "ragged", "non-numeric", "header-only", "no-header", "undecodable"])
def test_malformed_direction_csv_exits_2(text, message, tmp_path, capsys):
    dirs = tmp_path / "dirs.csv"
    dirs.write_bytes(text)
    assert run("analyze", "workspace", "--dirs", dirs, "--bins", 1000,
               "--out", tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "workspace_report.txt").exists()


@pytest.mark.parametrize("args", [
    ("--elev-min", "nan"), ("--elev-max", "nan"), ("--azimuth", "nan"),
    ("--elev-min", 10, "--elev-max", 0), ("--azimuth", 361),
    ("--shape", "cap", "--half-angle", "nan"), ("--shape", "cap", "--half-angle", 181),
])
def test_invalid_sweep_parameters_exit_2(args, tmp_path, capsys):
    assert run("synth", "sweep", "--samples", 10, *args, "--out", tmp_path) == 2
    assert "must" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_directions.csv"))


def test_non_finite_config_float_exits_2(workdir, tmp_path, capsys):
    config = tmp_path / "inf.ini"
    config.write_text("[control]\nkv_z = inf\n")
    assert run("synth", "press", "--key", 46, "--config", config,
               "--out", tmp_path) == 2
    assert "control.kv_z" in capsys.readouterr().err
