"""Smoke test of the benchmark: one short pass of every workload, untraced
and traced.

Run from the repository root (takes about two minutes):

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """Run one pass (--seconds 0); return the report and the result line."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_pass_emits_every_metric(workload, trace):
    report, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["failures"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and report["failed_frac"] == 0.0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        assert report["traced_failed"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
