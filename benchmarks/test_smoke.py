"""Smoke tests: every workload at toy size, untraced and traced.

    python3 -m pytest benchmarks/test_smoke.py

They run the runner the way a benchmark run does, one process per run, and
check the result line against BENCHMARK.json, so the harness cannot rot.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, seed: int = 1, root: Path = HERE.parent):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=170)


def last_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_toy_size(workload, trace):
    result = last_line(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_gives_same_counters():
    first, second = (json.loads(run("plain-w1", 0, seed=3).stdout.splitlines()[-2])
                     for _ in range(2))
    assert first["counters"] == second["counters"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("plain-w1", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
