"""Every top-level function and class of the package is used somewhere.

A name counts as used when it occurs, as a whole word, anywhere in the
package modules (``__init__.py`` excluded: re-exporting is not a use), the
tests or the benchmark, other than in its own definition.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gtt"


def _sources() -> list[pathlib.Path]:
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return modules + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _definitions() -> list[tuple[str, str]]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((path.stem, node.name))
    return out


def unreferenced_names() -> list[str]:
    # a name occurs as a whole word exactly where it is a maximal run of \w
    words = Counter(re.findall(r"\w+", "\n".join(p.read_text() for p in _sources())))
    return [f"{module}.{name}" for module, name in _definitions() if words[name] <= 1]


def test_every_top_level_name_is_referenced():
    assert unreferenced_names() == []
