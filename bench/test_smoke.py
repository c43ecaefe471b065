"""Smoke test of the benchmark: each workload at minimal size, timed and traced.

    python3 -m pytest bench/test_smoke.py -q

It checks the output contract: every metric of BENCHMARK.json prints by
name with its unit, no operation fails, the per-layer counts repeat
exactly between two traced runs of one seed, and a directory without the
program makes the benchmark fail without printing a result.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "nodes", "bytes"}


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "min"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(out: subprocess.CompletedProcess) -> tuple[dict, str]:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1]), out.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    result, text = result_of(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in text.splitlines()), name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert f"fail_rate = 0/{result['attempted']} = 0 ratio" in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    def counts():
        result, _ = result_of(run(workload, 1))
        return {k: v["value"] for k, v in result["metrics"].items() if units[k] in COUNT_UNITS}

    first = counts()
    assert first["trace.spans"] > 0
    assert counts() == first


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    out = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
