"""The benchmark's own test: every workload at toy size, once untraced and
twice traced.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_declared(result: dict, report: list[str], declared: list[dict]) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line
                   for line in report), f"{name} not reported with its unit"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report, result = smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 11
    assert_declared(result, report, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.split()[:2] == ["failed_ratio", "0"] for line in report)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat(workload):
    report, first = smoke(workload, 1)
    _, second = smoke(workload, 1)
    assert first["correct"] and second["correct"]
    assert_declared(first, report, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] not in ("s", "ratio")]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0
