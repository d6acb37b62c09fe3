"""Self-tests of the benchmark, at the tiny size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import passrun  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENGINE_WORKLOADS = ("press_session", "retarget_concurrent")


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_lists_the_workloads_and_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracer.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_and_outputs_check(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    printed = proc.stdout
    for name in ("session_s:", "setup_s:", "peak_rss_mb:", "failed_ops_ratio:",
                 "env:", '"numpy"', '"nproc"', '"loadavg_end"'):
        assert name in printed
    if workload in ENGINE_WORKLOADS:
        for name in ("sim_rate_x:", "sim.latency_mean_ms:", "sim.on_target_ratio:"):
            assert name in printed
    gate = {"press_session": "gate.c1_headroom_s:",
            "workspace_sweep": "gate.c2_headroom_s:"}.get(workload)
    if gate:
        assert gate in printed


def test_flipped_byte_in_steps_csv_is_a_failed_operation(monkeypatch, tmp_path):
    from robothumb import engine

    original = engine.write_step_csv

    def write_and_flip(log, path):
        original(log, path)
        data = bytearray(Path(path).read_bytes())
        data[len(data) // 2] ^= 0x01
        Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(engine, "write_step_csv", write_and_flip)
    record = passrun.run_pass("press_session", 0, "tiny", tmp_path / "pass")
    attempted, failed, failures = run.evaluate(
        [record], run.load_golden("tiny", "press_session", 0))
    assert failed == 1 and attempted > 1
    assert failures == ["pass 0: steps.csv digest"]


def test_traced_pass_leaves_outputs_unchanged(tmp_path):
    golden = run.load_golden("tiny", "retarget_concurrent", 0)
    record = passrun.run_pass("retarget_concurrent", 0, "tiny", tmp_path / "pass",
                              traced=True)
    assert record["digests"] == golden
    assert (tmp_path / "spans_0.npz").is_file()


def test_self_time_subtracts_the_union_of_child_intervals():
    assert tracer._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert tracer._covered([]) == 0.0


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench(tmp_path, "press_session", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
