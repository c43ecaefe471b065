"""The CLI loads a higher layer only for the commands that run it, each
command loads only the metatheorem modules it runs (never the
``metatheory`` index), a bundled theory loads through the raw layer alone,
no command loads ``dataclasses``: every kernel value is a
``scopes._record``, and a plain call loads no argparse: only help and
usage errors do.

Each case runs ``gtt.cli.main`` (or loads a bundled theory) in a fresh
interpreter and reads back the ``gtt`` modules it imported, and which of
``dataclasses``, ``inspect``, ``argparse``, ``gettext`` and ``locale``.
Modules and their source lines are counted, not timed: a ``gtt`` call
compiles every module it imports when no bytecode is cached, so the lines
a command loads are a cost it pays on every call.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from corpus import THEORY, conv_wrap, nested_pi, tt_at
from gtt.judgements import EMPTY_CONTEXT
from gtt.jsonio import derivation_to_json, dumps

ROOT = pathlib.Path(__file__).resolve().parents[1]
BASE = ROOT / "fixtures" / "mltt_base.json"
SRC = ROOT / "src" / "gtt"
STDLIB = ("dataclasses", "inspect")
# The modules argparse brings: only help and usage errors load them.
ARGPARSE = ("argparse", "gettext", "locale")

REPORT = """
print(json.dumps([code, sorted(m for m in sys.modules if m == "gtt" or m.startswith("gtt.") or m in %r)]))
""" % (STDLIB + ARGPARSE,)
CLI_PROBE = """
import json, sys
import gtt.cli
try:
    code = gtt.cli.main(sys.argv[1:])
except SystemExit as e:
    code = e.code
""" + REPORT
# The modules of the metatheorems, the operations they share, and their index.
METATHEORY = {
    "derivation_ops", "tightness", "presuppositions", "elimination", "inversion", "acceptability", "metatheory",
}
BUNDLED_PROBE = """
import json, sys
import gtt.bundled
gtt.bundled.mltt_base()
code = 0
""" + REPORT


def loaded_modules(*argv, probe=CLI_PROBE, code=0) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cp = subprocess.run(
        [sys.executable, "-c", probe, *map(str, argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    exit_code, modules = json.loads(cp.stdout.splitlines()[-1])
    assert exit_code == code, cp.stderr
    return {m.removeprefix("gtt.") for m in modules}


def write_derivation(path, d):
    path.write_text(dumps(derivation_to_json(THEORY, THEORY.signature, d)))
    return path


@pytest.fixture(scope="module")
def derivation_file(tmp_path_factory):
    return write_derivation(tmp_path_factory.mktemp("layers") / "pi.json", nested_pi(EMPTY_CONTEXT, 3).d_type)


def test_check_derivation_loads_the_raw_layer_only(derivation_file):
    loaded = loaded_modules("check-derivation", BASE, derivation_file)
    assert {"theories", "jsonio", "cli"} <= loaded
    assert not loaded & {
        "commands", "theory_commands", "presentation", "maps", "derive", "bundled", "congruence_witnesses",
    }
    assert not loaded & METATHEORY


def test_presup_loads_neither_maps_nor_presentation(derivation_file):
    loaded = loaded_modules("presup", BASE, derivation_file)
    assert "presuppositions" in loaded
    assert not loaded & {"presentation", "maps", "theory_commands"}


@pytest.mark.parametrize("command, expected", [
    # elimination needs neither presupposition witnesses nor the acceptability checks
    ("elim-subst", {"derivation_ops", "elimination"}),
    ("presup", {"derivation_ops", "presuppositions"}),
    ("natural-type", {"tightness"}),
    # inversion and uniqueness of typing eliminate substitution and derive presuppositions
    ("invert", {"derivation_ops", "elimination", "inversion", "presuppositions", "tightness"}),
    ("unique-typing", {"derivation_ops", "elimination", "inversion", "presuppositions", "tightness"}),
    ("check-theory", {"acceptability", "derivation_ops", "tightness"}),
])
def test_each_command_loads_only_the_metatheorems_it_runs(command, expected, derivation_file, tmp_path):
    assert loaded_modules(*command_argv(command, derivation_file, tmp_path)) & METATHEORY == expected


def test_congruence_loads_the_raw_layer_only():
    # the congruence construction instantiates the rule twice in the raw
    # layer; it needs no syntax map and no witness synthesis
    loaded = loaded_modules("congruence", ROOT / "fixtures" / "mltt_pi.json", "Pi-form")
    assert {"rules", "theories", "jsonio", "cli"} <= loaded
    assert not loaded & {"commands", "theory_commands", "presentation", "maps", "congruence_witnesses"}
    assert not loaded & METATHEORY


def test_bundled_theory_loads_the_raw_layer_only():
    loaded = loaded_modules(probe=BUNDLED_PROBE)
    assert {"bundled", "jsonio", "theories"} <= loaded
    assert not loaded & {"presentation", "maps", "derive", "congruence_witnesses"}
    assert not loaded & METATHEORY


def test_the_kernel_commands_load_neither_dataclasses_nor_inspect(derivation_file, tmp_path):
    tt = tt_at(EMPTY_CONTEXT)
    first = write_derivation(tmp_path / "tt.json", tt.d_term)
    second = write_derivation(tmp_path / "tt-conv.json", conv_wrap(tt).d_term)
    runs = [
        ("check-derivation", BASE, derivation_file),
        ("presup", BASE, derivation_file),
        ("elim-subst", BASE, derivation_file),
        ("invert", BASE, derivation_file),
        ("unique-typing", BASE, first, second),
        ("natural-type", BASE, '{"sym":"tt","args":[]}'),
    ]
    for argv in runs:
        loaded = loaded_modules(*argv)
        assert "cli" in loaded
        assert not loaded & set(STDLIB), argv[0]


def source_lines(modules) -> int:
    """The source lines of the ``gtt`` modules named (``gtt`` is ``__init__``)."""
    files = [SRC / ("__init__.py" if m == "gtt" else f"{m}.py") for m in modules]
    return sum(len(f.read_text().splitlines()) for f in files)


# The most source lines each command may load: what it loads.  A budget is
# lowered when a command loads less, and never raised.
LINE_BUDGETS = {
    "check-derivation": 2664,
    "congruence": 2664,
    "check-theory": 3310,
    "check-theory spec": 4637,
    "flatten": 4637,
    "presup": 3213,
    "elim-subst": 3324,
    "invert": 3841,
    "natural-type": 2852,
    "unique-typing": 3841,
    "replace-step": 4907,
}


@pytest.fixture(scope="module")
def modules_loaded(derivation_file, tmp_path_factory):
    """The modules a run of ``LINE_BUDGETS`` loads: each run is measured
    once and shared by the tests below."""
    tmp, measured = tmp_path_factory.mktemp("runs"), {}

    def measure(run):
        if run not in measured:
            measured[run] = loaded_modules(*command_argv(run, derivation_file, tmp))
        return measured[run]

    return measure


@pytest.fixture(scope="module")
def lines_loaded(modules_loaded):
    """The source lines a run of ``LINE_BUDGETS`` loads, and the ``gtt`` modules."""

    def measure(run):
        loaded = modules_loaded(run) - set(STDLIB) - set(ARGPARSE)
        return source_lines(loaded), sorted(loaded)

    return measure


@pytest.mark.parametrize("run", sorted(LINE_BUDGETS))
def test_each_command_loads_at_most_its_budget_of_source_lines(run, lines_loaded):
    lines, loaded = lines_loaded(run)
    assert lines <= LINE_BUDGETS[run], loaded


@pytest.mark.parametrize("run", sorted(LINE_BUDGETS))
def test_a_plain_call_never_imports_argparse(run, modules_loaded):
    assert "cli" in modules_loaded(run)
    assert not modules_loaded(run) & set(ARGPARSE), run


@pytest.mark.parametrize("argv, code", [
    (("--help",), 0),
    (("check-derivation", "--help"), 0),
    (("check-derivation", BASE, "derivation.json", "--bogus"), 2),
])
def test_help_and_usage_errors_import_argparse(argv, code):
    assert set(ARGPARSE) <= loaded_modules(*argv, code=code)


def readme_startup_table() -> dict[str, int]:
    """The lines the README's start-up table gives each run of ``LINE_BUDGETS``."""
    # the paragraph after the section's prose, without its two header rows
    table = (ROOT / "README.md").read_text().split("**Start-up.**", 1)[1].split("\n\n")[1]
    out = {}
    for row in table.splitlines()[2:]:
        commands, lines = row.split(" | ")[:2]
        for command in commands.strip("| ").split(", "):
            run = command.replace("`", "").replace(" (raw theory)", "").replace(" (spec)", " spec")
            out[run] = int(lines.replace(",", ""))
    return out


def test_the_readme_startup_table_gives_the_lines_each_command_loads(lines_loaded):
    table = readme_startup_table()
    assert sorted(table) == sorted(LINE_BUDGETS)
    assert {run: lines_loaded(run)[0] for run in table} == table


def command_argv(run, derivation_file, tmp_path) -> tuple:
    """The command line of each run the tests above name."""
    tt = tt_at(EMPTY_CONTEXT)
    fixtures = ROOT / "fixtures"
    return {
        "check-derivation": ("check-derivation", BASE, derivation_file),
        "congruence": ("congruence", fixtures / "mltt_pi.json", "Pi-form"),
        "check-theory": ("check-theory", fixtures / "mltt_pi.json", "--acceptable", "--well-founded"),
        "check-theory spec": ("check-theory", fixtures / "mltt_pi_presented.json", "--acceptable"),
        "flatten": ("flatten", fixtures / "mltt_pi_presented.json"),
        "presup": ("presup", BASE, derivation_file),
        "elim-subst": ("elim-subst", BASE, derivation_file),
        "invert": ("invert", BASE, derivation_file),
        "natural-type": ("natural-type", BASE, '{"sym":"tt","args":[]}'),
        "unique-typing": (
            "unique-typing", BASE,
            write_derivation(tmp_path / "tt.json", tt.d_term),
            write_derivation(tmp_path / "tt-conv.json", conv_wrap(tt).d_term),
        ),
        "replace-step": (
            "replace-step", fixtures / "type_in_type.json", fixtures / "type_in_type_replacement.json"
        ),
    }[run]


def test_no_module_of_the_package_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, path.name


def test_no_module_of_the_package_imports_the_metatheory_index():
    # the index re-exports every metatheorem: a module importing it would
    # make each command that loads it compile all of them again
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "gtt" if node.level else ""
                module = ".".join(filter(None, [base, node.module]))
                modules = [module] + [f"{module}.{a.name}" for a in node.names]
            else:
                continue
            assert "gtt.metatheory" not in modules, path.name
    index = ast.parse((SRC / "metatheory.py").read_text())
    docstring, *body = index.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert body and all(isinstance(node, (ast.Import, ast.ImportFrom)) for node in body)
