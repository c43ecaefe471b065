"""Every top-level function and class of the package is used somewhere,
and every imported name is read.

A name counts as used when it occurs, as a whole word, anywhere in the
package modules (``__init__.py`` excluded: re-exporting is not a use), the
tests or the benchmark, other than in its own definition.

An import in a package module or a test module must bind a name that the
module reads (as an ``ast.Name``), unless another of these modules imports
that name from it.  ``__future__`` imports and ``__init__.py`` are exempt.
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


def _module_name(path: pathlib.Path) -> str:
    return f"gtt.{path.stem}" if path.parent == PACKAGE else path.stem


def _imports(tree: ast.Module):
    """(bound name, source module, imported name) of every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            # a relative import in the package names a module of the package
            source = f"gtt.{node.module}" if node.level else node.module
            for alias in node.names:
                yield alias.asname or alias.name, source, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, None


def unread_imports() -> list[str]:
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in paths}
    imported_from = {(source, name) for p, t in trees.items() for _, source, name in _imports(t)}
    out = []
    for path, tree in trees.items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        module = _module_name(path)
        for bound, _, _ in _imports(tree):
            if bound not in read and (module, bound) not in imported_from:
                out.append(f"{path.relative_to(ROOT)}: {bound}")
    return out


def test_every_imported_name_is_read():
    assert unread_imports() == []
