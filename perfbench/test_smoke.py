"""Smoke test of the benchmark: every workload at a tiny size, plain and traced.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that each metric BENCHMARK.json names is reported with its unit and
that no optimizer run failed.  It asserts no timings.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracer import PER_LAYER  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (name, bench.UNITS[name]) for name in bench.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    details = json.loads(lines[-2])["details"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    figures = details["figures"]
    assert figures["failed_share"]["value"] == 0
    assert figures["measurements.mean"]["value"] > 0
    assert (figures["rd.median"]["value"] is None) == (workload == "rig-multi")
    assert (figures["igd.median"]["value"] is None) == (workload != "rig-multi")
    if trace:
        assert figures["traced_op_s.p50"]["samples"] >= 1
        assert result["metrics"]["space.measure.failed"]["value"] == 0
    else:
        assert figures["op_s.p50"]["samples"] >= 11
        assert figures["setup_s"]["samples"] == bench.SETUP_SAMPLES


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, "rig-single", 0)
    assert out.returncode != 0
    assert out.stdout == ""
