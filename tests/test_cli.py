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
    (b"x,y,z\nnan,0,0\n", "dirs.csv: direction norms deviate from 1 by up to nan"),
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


def test_direction_norm_error_names_the_reference_file(tmp_path, capsys):
    (tmp_path / "ok.csv").write_text("x,y,z\n1,0,0\n0,1,0\n")
    (tmp_path / "nan.csv").write_text("x,y,z\n1,0,0\nnan,0,0\n")
    assert run("analyze", "workspace", "--dirs", tmp_path / "ok.csv",
               "--ref-dirs", tmp_path / "nan.csv", "--bins", 1000,
               "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'nan.csv'}: direction norms deviate" in err
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
], ids=["short", "non-numeric", "nan"])
@pytest.mark.parametrize("what", [("latency",), ("budget",)])
def test_malformed_latency_row_exits_2(what, row, message, tmp_path, capsys):
    latency = tmp_path / "latency.csv"
    latency.write_text(f"intention_ms,action_ms,delay_ms\n900.000,985.000,85.000\n{row}\n")
    assert run("analyze", *what, "--latency", latency, "--out", tmp_path) == 2
    assert f"{latency}: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_report.txt"))


def test_undecodable_latency_file_exits_2(tmp_path, capsys):
    latency = tmp_path / "latency.csv"
    latency.write_bytes(b"intention_ms,action_ms,delay_ms\n\xff,1,1\n")
    assert run("analyze", "latency", "--latency", latency, "--out", tmp_path) == 2
    assert f"{latency}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_scale_key_token_not_an_index_exits_2(tmp_path, capsys):
    assert run("synth", "scale", "--keys", "4x,46", "--out", tmp_path) == 2
    assert "--keys: '4x' is not a key index" in capsys.readouterr().err
    assert not (tmp_path / "scale_trace.csv").exists()


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
], ids=["undecodable", "duplicate"])
def test_malformed_anchor_file_exits_2(data, message, workdir, tmp_path, capsys):
    anchors = tmp_path / "anchors.txt"
    anchors.write_bytes(data)
    assert run("calibrate", "--trace", workdir / "calibration_trace.csv",
               "--anchors", anchors, "--out", tmp_path) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "calibration.txt").exists()


def test_trace_error_names_the_file(workdir, tmp_path, capsys):
    trace = tmp_path / "short.csv"
    trace.write_text("t_ms,flex_adc,acc_y_adc,acc_z_adc,label\n0,1,2,3,\n1,1,2,\n")
    assert run("simulate", "--trace", trace, "--calibration", workdir / "calibration.txt",
               "--out", tmp_path) == 2
    assert f"error: {trace}: line 3: expected 5 columns" in capsys.readouterr().err


def test_calibrate_prints_the_calibration_file(workdir, tmp_path, capsys):
    assert run("calibrate", "--trace", workdir / "calibration_trace.csv",
               "--anchors", workdir / "anchors.txt", "--out", tmp_path) == 0
    text = (tmp_path / "calibration.txt").read_text()
    assert capsys.readouterr().out == f"{text}wrote {tmp_path / 'calibration.txt'}\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a6e6a48eb21080812d2b2fcecbdbd0f0a7ebd730eac1483f0c33b32195539326")


@pytest.mark.parametrize("how", ["config", "flag"])
def test_negative_seed_exits_2(how, tmp_path, capsys):
    args = ["synth", "press", "--key", 46, "--flex-noise", 2, "--out", tmp_path]
    if how == "config":
        config = tmp_path / "seed.ini"
        config.write_text("[simulation]\nseed = -1\n")
        args += ["--config", config]
    else:
        args += ["--seed", -1]
    assert run(*args) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "press_trace.csv").exists()


@pytest.mark.parametrize("scenario", [["press", "--key", 46], ["calibration"],
                                      ["scale", "--keys", "44,46"]])
def test_timestep_too_fine_for_trace_exits_2(scenario, tmp_path, capsys):
    config = tmp_path / "fine.ini"
    config.write_text("[simulation]\ntimestep = 1e-300\n")
    assert run("synth", *scenario, "--config", config, "--out", tmp_path) == 2
    assert "needs more than 10000000 rows" in capsys.readouterr().err


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
