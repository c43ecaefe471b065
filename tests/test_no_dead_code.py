"""Every definition of the package has a caller in the package, every
parameter of its functions is read, and every imported name is read.

A top-level function, class or constant (a ``NAME = ...`` or
``NAME: T = ...`` statement of the module body), or a method of a
top-level class (dunder methods excepted), is called when a package
module (``__init__.py`` excluded: re-exporting is not a use) reaches it
outside its own definition.  A top-level ``f`` of module ``m`` is reached
by binding: as a bare name in ``m``, as a bare name in a module that
imports ``f`` from ``m``, or as an attribute ``m.f`` of a name bound to
the module ``m`` (``derive.conv``).  A name that a function, lambda or
comprehension binds (as an assignment target, a parameter, a loop or
comprehension variable, or a ``with`` or ``except`` name) and does not
declare ``global`` is local to all of its body and the scopes nested in
it, so there it reaches nothing.  A method is reached as an attribute of
any value.  A function ``f`` of module ``m`` is also reached by the call
``_higher("f", "m")`` (``m`` defaults to ``commands``), through which the
CLI imports and runs it: a command body, or the argparse fallback.  So
an unrelated attribute ``x.f`` never reaches a top-level ``f``, a bare
name never reaches a method, and a string reaches nothing else.
Only a loaded name reaches: a field annotation ``arity: Arity`` in a
class body binds ``arity`` and reaches nothing.  Tests and the benchmark
are not callers.  The one exception is ``LIBRARY_API``: library entry
points that no command runs but an acceptance criterion or the benchmark
does, and two that an open ROADMAP item plans a command for.  Each is
mapped to the file that needs it, which names it, and README.md names
each in the Layout row of its module.

Every parameter of a function or lambda of the package is read in its
body; ``self``, ``cls`` and names starting with ``_`` are exempt.

Every optional argument of every ``gtt`` subcommand is read: some package
module reads ``args.<dest>`` for its ``dest``.

Every field of a ``_record`` class, and every attribute that a class other
than an exception assigns on ``self``, is read by a package module: as an
attribute that is loaded (``x.field``, on any value) other than as the
receiver of an ``.append(…)`` or ``.extend(…)`` call, which only writes to
it, as a keyword of a class pattern (``case C(field=v)``), or as the string
name of a ``getattr`` call.  An exception's attributes are read by whoever
catches it.

An import in a package module or a test module must bind a name that the
module reads (as an ``ast.Name``), unless another of these modules imports
that name from it.  ``__future__`` imports and ``__init__.py`` are exempt.
"""

import argparse
import ast
import builtins
import pathlib
import re
from collections import Counter

import pytest

from gtt.usage import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gtt"

ACCEPTANCE = "tests/test_acceptance.py"
LIBRARY_API = {
    # criteria 5 and 11, and the benchmark's inputs
    "bundled.cyclic_quantifier": ACCEPTANCE,
    "bundled.mltt_base": ACCEPTANCE,
    "bundled.mltt_pi": ACCEPTANCE,
    "bundled.mltt_pi_presented": ACCEPTANCE,
    "bundled.order": ACCEPTANCE,
    "bundled.type_in_type": ACCEPTANCE,
    # criterion 1 (composition of substitutions, its unit and associativity)
    "elimination.compose_subst": ACCEPTANCE,
    # the builders of the benchmark's generated derivations
    "derive.eq_subst": "bench/inputs.py",
    "derive.rule": "bench/inputs.py",
    "derive.var": "bench/inputs.py",
    # criterion 2 (identity and composition of syntax maps) and criterion 11 (the section)
    "maps.compose_syntax_maps": ACCEPTANCE,
    "maps.identity_syntax_map": ACCEPTANCE,
    "maps.section_s": ACCEPTANCE,
    # ``section_s`` returns a ``RawTheoryMap``; item 9 plans ``replace-step`` to run these two
    "maps.RawTheoryMap.check": "ROADMAP.md",
    "maps.apply_theory_map_derivation": "ROADMAP.md",
    # criterion 10 compares them with flattening
    "presentation.sequential_by_occurrence": ACCEPTANCE,
    "presentation.sequential_by_peeling": ACCEPTANCE,
    # criterion 2, and ``bench/spans.py``
    "syntax.extend_substitution": ACCEPTANCE,
}


def _package_trees() -> dict[str, ast.Module]:
    return {
        p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"
    }


def _definitions(trees: dict[str, ast.Module]):
    """(qualified name, node) of every top-level function, class and
    constant and of every method of a top-level class other than a dunder."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                targets = []
            for target in targets:
                if isinstance(target, ast.Name):
                    yield f"{module}.{target.id}", node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        method.name.startswith("__") and method.name.endswith("__")
                    ):
                        yield f"{module}.{node.name}.{method.name}", method


def _package_imports(tree: ast.AST):
    """(bound name, package module, imported name) of every import of the
    package in ``tree``; the imported name is None for ``from . import m``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None:
                    yield bound, alias.name, None
                else:
                    yield bound, node.module, alias.name


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _local_names(scope: ast.AST) -> tuple[set[str], set[str]]:
    """(names bound, names declared ``global``) in the function, lambda or
    comprehension ``scope`` itself, not in the scopes nested in it."""
    bound, declared = set(), set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = scope.args
        bound = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]}
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            bound.add(n.id)
        elif isinstance(n, ast.ExceptHandler) and n.name:
            bound.add(n.name)
        elif isinstance(n, ast.Global):
            declared.update(n.names)
        if not isinstance(n, _SCOPES):
            stack.extend(ast.iter_child_nodes(n))
    return bound, declared


def _uses(node: ast.AST, module: str, bindings: dict) -> Counter:
    """What ``node``, in ``module``, reaches: (module, name) for a bare name
    that no enclosing function binds, or for a module attribute, resolved
    through ``bindings`` (the module's package imports), or for a command
    body named in a ``_higher`` call; ("attr", name) for any attribute."""
    out = Counter()
    stack = [(node, frozenset())]
    while stack:
        n, local = stack.pop()
        if isinstance(n, _SCOPES):
            bound, declared = _local_names(n)
            local = (local | bound) - declared
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in local:
            source, name = bindings.get(n.id, (module, n.id))
            if name is not None:
                out[source, name] += 1
        elif isinstance(n, ast.Attribute):
            out["attr", n.attr] += 1
            bound = bindings.get(n.value.id) if isinstance(n.value, ast.Name) else None
            if bound is not None and bound[1] is None:  # an attribute of a package module
                out[bound[0], n.attr] += 1
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_higher":
            body, *home = (a.value for a in n.args)
            out[home[0] if home else "commands", body] += 1
        stack.extend((child, local) for child in ast.iter_child_nodes(n))
    return out


def uncalled_definitions(trees: dict[str, ast.Module] | None = None) -> list[str]:
    trees = trees or _package_trees()
    bindings = {
        module: {bound: (source, name) for bound, source, name in _package_imports(tree)}
        for module, tree in trees.items()
    }
    everywhere = sum((_uses(t, m, bindings[m]) for m, t in trees.items()), Counter())
    out = []
    for qualified, node in _definitions(trees):
        module = qualified.split(".")[0]
        name = qualified.rsplit(".", 1)[1]
        key = ("attr", name) if qualified.count(".") == 2 else (module, name)
        own = _uses(node, module, bindings[module])
        if everywhere[key] - own[key] <= 0:
            out.append(qualified)
    return out


def test_every_top_level_name_is_referenced():
    assert sorted(set(uncalled_definitions()) - set(LIBRARY_API)) == []


@pytest.mark.parametrize("planted, reported", [
    # ``rule_from_json`` binds a local ``conclusion``: it does not call this one
    ("def conclusion(rule):\n    return rule", "jsonio.conclusion"),
    ("_SLOT_KEYS = {'IsTy': ()}", "jsonio._SLOT_KEYS"),
    ("_SLOT_KEYS: dict = {'IsTy': ()}", "jsonio._SLOT_KEYS"),
])
def test_a_planted_unused_definition_is_reported(planted, reported):
    trees = _package_trees()
    trees["jsonio"].body += ast.parse(planted).body
    assert set(uncalled_definitions(trees)) - set(LIBRARY_API) == {reported}


def test_a_planted_function_named_like_a_record_field_is_reported():
    # ``Symbol``'s field annotation ``arity: Arity`` stores the name: it is no call
    trees = _package_trees()
    trees["syntax"].body += ast.parse("def arity(*pairs):\n    return pairs").body
    assert set(uncalled_definitions(trees)) - set(LIBRARY_API) == {"syntax.arity"}


def test_the_library_api_has_no_caller_and_is_named_in_the_readme():
    # an entry that gains a caller in the package leaves the list
    assert sorted(set(LIBRARY_API) - set(uncalled_definitions())) == []
    readme = (ROOT / "README.md").read_text()
    unnamed = []
    for entry in sorted(LIBRARY_API):
        module, rest = entry.split(".", 1)
        row = re.search(rf"^\| `gtt\.{module}` \|.*$", readme, re.M)
        if row is None or f"`{rest}`" not in row.group(0):
            unnamed.append(entry)
    assert unnamed == []


def test_each_library_entry_is_named_in_the_file_that_needs_it():
    unnamed = []
    for entry, path in sorted(LIBRARY_API.items()):
        assert path in (ACCEPTANCE, "ROADMAP.md") or path.startswith("bench/"), entry
        name = entry.split(".", 1)[1]
        if not re.search(rf"\b{re.escape(name)}\b", (ROOT / path).read_text()):
            unnamed.append(entry)
    assert unnamed == []


def unread_parameters() -> list[str]:
    out = []
    for module, tree in _package_trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for b in body for n in ast.walk(b) if isinstance(n, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            out += [
                f"{module}:{node.lineno} {name}({p.arg})"
                for p in params
                if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_")
            ]
    return out


def test_every_parameter_is_read():
    assert unread_parameters() == []


def unread_options(parser=None) -> list[str]:
    """``command --option`` for each optional argument of a subcommand whose
    ``dest`` no package module reads as ``args.<dest>``."""
    parser = parser or build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    read = {
        n.attr for tree in _package_trees().values() for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
    }
    return [
        f"{name} {a.option_strings[-1]}"
        for name, sub in commands.choices.items() for a in sub._actions
        if a.option_strings and a.dest != "help" and a.dest not in read
    ]


def test_every_option_is_read():
    assert unread_options() == []


def test_a_planted_unread_option_is_reported():
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands.choices["presup"].add_argument("--planted", action="store_true")
    # ``--cxt`` is read as ``args.cxt``, by ``natural-type`` only
    commands.choices["presup"].add_argument("--cxt")
    assert unread_options(parser) == ["presup --planted"]


def _attributes_read(trees: dict[str, ast.Module]) -> set[str]:
    """Every attribute name the package reads: loaded attributes other than
    the receivers of ``.append`` and ``.extend`` calls, keywords of class
    patterns, and the string names of ``getattr`` calls."""
    out = set()
    for tree in trees.values():
        appended_to = set()  # a call is walked before its receiver
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in ("append", "extend"):
                appended_to.add(id(n.func.value))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and id(n) not in appended_to:
                out.add(n.attr)
            elif isinstance(n, ast.MatchClass):
                out.update(n.kwd_attrs)
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "getattr" and len(n.args) > 1:
                if isinstance(n.args[1], ast.Constant):
                    out.add(n.args[1].value)
    return out


def _classes(trees: dict[str, ast.Module]):
    """(module, node) of every top-level class of the package."""
    return [(module, node) for module, tree in trees.items() for node in tree.body if isinstance(node, ast.ClassDef)]


def unread_fields(trees: dict[str, ast.Module] | None = None) -> list[str]:
    """``module.Class.field`` for each field of a ``_record`` class that no package module reads."""
    trees = trees or _package_trees()
    read = _attributes_read(trees)
    return [
        f"{module}.{node.name}.{stmt.target.id}"
        for module, node in _classes(trees)
        if any(isinstance(d, ast.Name) and d.id == "_record" for d in node.decorator_list)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) and stmt.target.id not in read
    ]


def _exceptions(trees: dict[str, ast.Module]) -> set[str]:
    """The names of the package's classes that derive from an exception."""
    out: set[str] = set()
    while True:
        found = {
            node.name for _, node in _classes(trees)
            for b in node.bases
            if isinstance(b, ast.Name) and (b.id in out or _is_builtin_exception(b.id))
        }
        if found <= out:
            return out
        out |= found


def _is_builtin_exception(name: str) -> bool:
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def unread_attributes(trees: dict[str, ast.Module] | None = None) -> list[str]:
    """``module.Class.attr`` for each attribute that a class other than an
    exception assigns on ``self`` and no package module reads."""
    trees = trees or _package_trees()
    read, exceptions = _attributes_read(trees), _exceptions(trees)
    return sorted({
        f"{module}.{node.name}.{n.attr}"
        for module, node in _classes(trees) if node.name not in exceptions
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        and isinstance(n.value, ast.Name) and n.value.id == "self" and n.attr not in read
    })


def test_every_record_field_is_read():
    assert unread_fields() == []


def test_every_attribute_set_on_self_is_read():
    assert unread_attributes() == []


PLANTED_RECORD = """
@_record
class Planted:
    kind: ScopeKind
    planted_field: int
"""


@pytest.mark.parametrize("read, reported", [
    ("", ["jsonio.Planted.planted_field"]),
    ("def f(p):\n    return p.planted_field", []),
    ("def f(p):\n    match p:\n        case Planted(planted_field=v):\n            return v", []),
    ("def f(p):\n    return getattr(p, 'planted_field')", []),
])
def test_a_planted_unread_field_is_reported(read, reported):
    trees = _package_trees()
    trees["jsonio"].body += ast.parse(PLANTED_RECORD + read).body
    assert unread_fields(trees) == reported


def test_a_planted_unread_attribute_is_reported():
    trees = _package_trees()
    trees["jsonio"].body += ast.parse(
        "class Planted:\n"
        "    def __init__(self):\n        self.kind, self.planted = None, None\n"
        "class PlantedError(KernelError):\n"
        "    def __init__(self):\n        self.planted_cause = None\n"
        "class PlantedValueError(ValueError):\n"
        "    def __init__(self):\n        self.planted_cause = None\n"
    ).body
    assert unread_attributes(trees) == ["jsonio.Planted.planted"]


def test_a_planted_write_only_list_is_reported():
    # appending to a list or extending it reads nothing from it
    trees = _package_trees()
    trees["jsonio"].body += ast.parse(
        "class Planted:\n"
        "    def __init__(self):\n        self.planted_log, self.planted_seen = [], []\n"
        "    def note(self, x):\n"
        "        self.planted_log.append(x)\n        self.planted_log.extend([x])\n"
        "        self.planted_seen.append(x)\n        return len(self.planted_seen)\n"
    ).body
    assert unread_attributes(trees) == ["jsonio.Planted.planted_log"]


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
