import itertools
import runpy
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "step_peaks.py"


def test_prints_a_peak_after_each_step_of_a_tiny_flow(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds its own entries
    tool = runpy.run_path(str(TOOL))
    assert tool["main"](["press_session", "--size", "tiny", "--workdir", str(tmp_path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()[1:]
    assert header.split() == ["step", "ru_maxrss_mib", "minor_faults", "tracemalloc_peak_mib"]
    flow = tool["workloads"].build_flow("press_session", 0, "tiny", tmp_path)
    assert [" ".join(row.split()[:2]) for row in rows] == [
        " ".join(argv[:2]) for argv in flow.steps]
    rss = [float(row.split()[2]) for row in rows]
    faults = [int(row.split()[3]) for row in rows]
    peaks = [float(row.split()[4]) for row in rows]
    assert rss == sorted(rss) and min(peaks) > 0 and min(faults) >= 0
    assert (tmp_path / "latency_report.txt").exists()


def test_minor_faults_are_each_steps_own(tmp_path, capsys, monkeypatch):
    """The column is the ``ru_minflt`` count after the step less the one
    before it: with a count that grows by 7 a reading, every step reads 7."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = runpy.run_path(str(TOOL))
    counts = itertools.count(step=7)
    monkeypatch.setitem(tool["main"].__globals__, "minor_faults", lambda: next(counts))
    assert tool["main"](["press_session", "--size", "tiny", "--workdir", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [int(row.split()[3]) for row in rows] == [7] * len(rows)


def test_repeat_sets_the_press_count_of_press_session(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = runpy.run_path(str(TOOL))
    sizes = {size: dict(p) for size, p in tool["workloads"].SIZES.items()}
    argv = ["press_session", "--size", "tiny", "--repeat", "2", "--workdir", str(tmp_path)]
    assert tool["main"](argv) == 0
    assert capsys.readouterr().out.startswith("press_session, seed 0, size tiny, 2 presses;")
    assert "count = 2" in (tmp_path / "latency_report.txt").read_text()
    assert tool["workloads"].SIZES == sizes  # the table the benchmark reads is unchanged
    with pytest.raises(SystemExit):
        tool["main"](["workspace_sweep", "--size", "tiny", "--repeat", "2"])
