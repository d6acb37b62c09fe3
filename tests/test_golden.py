"""Golden SHA-256 digests of the simulation outputs.

The digests were recorded from the code before the engine's step loop was
rewritten on plain numbers; every refactor of the sensing-to-key-event
pipeline must leave them unchanged, in both execution modes.
"""

import hashlib

import pytest

from robothumb.cli import main

OUTPUTS = ("events.csv", "steps.csv", "latency.csv", "output.mid")

GOLDEN = {
    "press_100_key46": {
        "events.csv":
            "946248aa55befa379f75d1308f3caa4854ae22d7f701c6e13aaffc199dd686f6",
        "steps.csv":
            "64cff21f3836d73aa3627ea85312727df7f4126ab1c8b5fd6088a750b22984c8",
        "latency.csv":
            "1d30cabe415919dcead315f749d079ffda441b4aa34eb5983dd9d95036e98168",
        "output.mid":
            "7ce21b5960a7872d43ed36f64099f985bcc3d0a1672c5935d503afc2cbfc172a",
    },
    "scale": {
        "events.csv":
            "1c3fcf729e7628e64204a9b930e4b4333b4eb0aa17183375b2202e21407f5f6c",
        "steps.csv":
            "f6f2e533e6c7499c7c08d5004e61813b824865d01b7cc2c4d42891939e5095ed",
        "latency.csv":
            "831e257dc9a7ea9dd0a830a4788f3f6c28af864a5b7a955695ce88bd4ba72de1",
        "output.mid":
            "99743a72c5ac1052c3816c32496c64d2520f197b0061abbe89d1c5a854b50e7c",
    },
    "noisy_black_key_rear": {
        "events.csv":
            "bc9838186d14f6e91100ee4ca7c6fb99b3fc68802df665b11afc8e23a784e873",
        "steps.csv":
            "5f7d1952d871e8af60bea7427cbcbb6bded2f4947c7d350e1461c966cdad4dba",
        "latency.csv":
            "d6af0deeca46b57d09bcc08ac3bf7d586d399f4a0964d5c2f81617220b2ccb70",
        "output.mid":
            "5f8cda2b27f081c210daba917b188e4a91cf0374fc37d6fdbc6dae58bebec7a1",
    },
}

# the synth step of each run, after a calibration with the same config
SYNTH = {
    "press_100_key46": ("press_trace.csv", "press", "--key", 46, "--repeat", 100),
    "scale": ("scale_trace.csv", "scale"),
    "noisy_black_key_rear": ("press_trace.csv", "press", "--key", 45,
                             "--flex-noise", 2, "--seed", 3),
}
REAR_CONFIG = "[mount]\ndepth = 60\n"


def run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


@pytest.mark.parametrize("mode", ["deterministic", "concurrent"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(name, mode, tmp_path):
    config = ()
    if name == "noisy_black_key_rear":
        (tmp_path / "rear.ini").write_text(REAR_CONFIG)
        config = ("--config", tmp_path / "rear.ini")
    trace, *synth_args = SYNTH[name]
    run("synth", "calibration", *config, "--out", tmp_path)
    run("calibrate", "--trace", tmp_path / "calibration_trace.csv",
        "--anchors", tmp_path / "anchors.txt", "--out", tmp_path)
    run("synth", *synth_args, *config, "--out", tmp_path)
    run("simulate", *config, "--trace", tmp_path / trace,
        "--calibration", tmp_path / "calibration.txt", "--mode", mode,
        "--midi", "--out", tmp_path / "run")
    digests = {out: hashlib.sha256((tmp_path / "run" / out).read_bytes()).hexdigest()
               for out in OUTPUTS}
    assert digests == GOLDEN[name]


# steps.csv of the scale trace sampled every 25 ms and simulated in 1 ms
# steps: each command is sent from a state held for 25 steps, so the
# horizontal axis stops short of its target and waits for the next send
COARSE_SCALE_STEPS = "73f865e07e6d2554b378c62939927d50ab1f0d9a870db2016a4e482dea98f382"


@pytest.mark.parametrize("mode", ["deterministic", "concurrent"])
def test_coarse_trace_steps_match_golden_digest(mode, tmp_path):
    (tmp_path / "coarse.ini").write_text("[simulation]\ntimestep = 25\n")
    run("synth", "calibration", "--out", tmp_path)
    run("calibrate", "--trace", tmp_path / "calibration_trace.csv",
        "--anchors", tmp_path / "anchors.txt", "--out", tmp_path)
    run("synth", "scale", "--config", tmp_path / "coarse.ini", "--out", tmp_path)
    run("simulate", "--trace", tmp_path / "scale_trace.csv",
        "--calibration", tmp_path / "calibration.txt", "--mode", mode,
        "--out", tmp_path / "run")
    steps = (tmp_path / "run" / "steps.csv").read_bytes()
    assert hashlib.sha256(steps).hexdigest() == COARSE_SCALE_STEPS
