"""Smoke test of the benchmark at toy sizes: every declared metric is emitted."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_emits_every_metric(workload):
    digests = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--size", "toy")
        assert proc.returncode == 0, proc.stderr
        *_, report_line, result_line = proc.stdout.splitlines()
        result, report = json.loads(result_line), json.loads(report_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert report["digests_identical"]
        digests.append(report["digest"])
        if trace:
            for check in report["self_time_check"]:
                assert check["self_sum_s"] == pytest.approx(check["wall_s"], rel=0.1)
    # Same seed, same inputs: tracing must not change the outputs.
    assert digests[0] == digests[1]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = run_bench(tmp_path, "--workload", "ba-rank", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
