"""``tools/raises.py`` on one small test module: a smoke test of the tool,
not a coverage figure."""

import ast
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_the_report_lists_each_raise_that_one_test_module_never_reaches():
    cp = subprocess.run(
        # without the hypothesis plugin, which would import hypothesis under the tracer
        [sys.executable, str(ROOT / "tools" / "raises.py"), "tests/test_rules.py", "-p", "no:hypothesispytest"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    rows = [[c.strip() for c in line.strip("|").split("|")] for line in cp.stdout.splitlines() if line[:1] == "|"]
    assert rows[0] == ["module", "never ran / total", "lines"]
    counts = {}
    for module, fraction, lines in rows[2:]:
        missed, total = map(int, fraction.split(" / "))
        counts[module.strip("`")] = missed, total
        if module != "total":
            source = (ROOT / "src" / "gtt" / f"{module.strip('`')}.py").read_text()
            raises = {n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Raise)}
            assert len(raises) == total
            listed = [int(n) for n in lines.split(", ")] if lines else []
            assert len(listed) == missed and set(listed) <= raises
    total = counts.pop("total")
    assert total == tuple(map(sum, zip(*counts.values())))
    # the rule tests reach some raises of ``rules`` and none of ``maps``
    assert 0 < counts["rules"][0] < counts["rules"][1]
    assert counts["maps"][0] == counts["maps"][1] > 0
