import runpy
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

from robothumb import plant

TOOL = Path(__file__).resolve().parents[1] / "tools" / "axis_times.py"


def test_prints_each_axis_of_one_engine_run_of_a_tiny_flow(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds its own entries
    real = plant.run_axis
    tool = runpy.run_path(str(TOOL))
    argv = ["press_session", "--size", "tiny", "--repeat", "2", "--workdir", str(tmp_path)]
    assert tool["main"](argv) == 0
    assert plant.run_axis is real  # the recorder is taken off again
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("press_session, seed 0, size tiny; best of 2 replays")
    rows = {row.split()[0]: [float(v) for v in row.split()[1:]] for row in out[2:]}
    assert list(rows) == ["horizontal", "vertical"]
    # one call per block for each axis, over every step of the step log
    n_steps = len((tmp_path / "steps.csv").read_text().splitlines()) - 1
    for calls, steps, runs, moving, best_ms in rows.values():
        assert calls >= 1 and steps == n_steps
        assert 1 <= runs <= steps and 0 < moving <= steps and best_ms > 0
    # the noisy flex setpoint changes far more often than the foot's
    assert rows["horizontal"][2] > 10 * rows["vertical"][2]


def test_refuses_a_workload_without_an_engine_run_and_a_zero_repeat(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = runpy.run_path(str(TOOL))
    for argv in (["workspace_sweep"], ["press_session", "--repeat", "0"]):
        with pytest.raises(SystemExit):
            tool["main"](argv)


def test_a_replay_must_write_the_recorded_velocities(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = runpy.run_path(str(TOOL))
    args = (np.array([0, 100, 100]), np.full(3, 400.0), 1.0, plant.MotorAxis(), None,
            (0.0, 0.0))
    angles, velocities = array("d", [0.0]) * 3, array("d", [0.0]) * 3
    call = {"angles": tool["copy"](angles), "velocities": tool["copy"](velocities),
            "args": args}
    plant.run_axis(angles, velocities, *args)
    call["written"] = (angles, velocities)
    assert tool["replay"]([call], 1) >= 0
    velocities[1] += 1.0  # the angles still match
    with pytest.raises(SystemExit, match="other angles or velocities"):
        tool["replay"]([call], 1)
