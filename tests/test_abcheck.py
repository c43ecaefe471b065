"""``tools/abcheck.py`` on the working tree against itself, at the minimal
sizes of both library workloads: a smoke test of the tool, not a timing."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["shallow-corpus", "deep-binders"])
def test_abcheck_pairs_the_working_tree_with_itself(workload):
    cp = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "abcheck.py"), str(ROOT), str(ROOT),
         "--workload", workload, "--size", "min", "--rounds", "1"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    rows = [[c.strip() for c in line.strip("|").split("|")] for line in cp.stdout.splitlines() if line[:1] == "|"]
    assert rows[0] == ["kind", "op", "family", "n", "requests", "A ms", "B ms", "B / A"]
    totals = {row[0]: row for row in rows[2:] if row[1] == ""}
    assert set(totals) == {"check", "transform", "all"}
    requests, a_ms, b_ms, ratio = totals["all"][4:]
    assert int(requests) == sum(int(totals[k][4]) for k in ("check", "transform")) > 0
    assert float(a_ms) > 0 and float(b_ms) > 0 and float(ratio) > 0
