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
    kinds = ("check", "transform")
    assert set(totals) == {"check", "transform", "all"} | {f"{k} {q}" for k in kinds for q in ("p50", "p90")}
    requests, a_ms, b_ms, ratio = totals["all"][4:]
    assert int(requests) == sum(int(totals[k][4]) for k in kinds) > 0
    assert float(a_ms) > 0 and float(b_ms) > 0 and float(ratio) > 0
    # the percentiles of the per-request medians, over each kind's requests
    for k in kinds:
        p50, p90 = totals[f"{k} p50"][4:], totals[f"{k} p90"][4:]
        assert p50[0] == p90[0] == totals[k][4]
        for side in (1, 2):
            assert 0 < float(p50[side]) <= float(p90[side])
        assert float(p50[3]) > 0 and float(p90[3]) > 0
