"""Where the wall time of a ``gtt`` call goes: interpreter, compiling,
importing, argparse, and the command's own work.

Standard library only.  From the root of a checkout:

    python3 tools/startup.py                       # every command, 21 rounds
    python3 tools/startup.py check-derivation --runs 41

Each call runs as ``python -m gtt.cli`` in a fresh interpreter, from one
of two copies of ``src/gtt`` in a temporary directory: one without cached
bytecode (so the call compiles every module it imports, as a checkout
without ``__pycache__`` does) and one byte-compiled beforehand.  A round
times each variant once, in an order that rotates from round to round, so
the host's drift falls on every variant alike; the table gives the median
of each over the rounds, in ms:

- ``-S pass``, ``pass``: ``python -S -c pass`` and ``python -c pass``, the
  interpreter's floor without and with ``site``;
- ``import``: ``python -c "import gtt.cli"`` from the compiled copy;
- ``call``: the call from the compiled copy;
- ``no pyc``: the call without cached bytecode;
- ``argparse``: the call from the compiled copy with ``--`` before its
  positionals, which sends it through argparse to the same arguments.

Then the shares: compiling (``no pyc`` - ``call``), argparse (``argparse``
- ``call``), importing the modules ``gtt.cli`` imports (``import`` -
``pass``), and the run: loading the files, importing what the command
body imports, its work and the output (``call`` - ``import``).  ``lines`` is the source lines of the
``gtt`` modules the call loads.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
BASE = str(FIXTURES / "mltt_base.json")
TT = '{"args":[],"sym":"tt"}'

# Each command: its options and its positionals; "{pi}" and "{tt}" name the
# derivation files written for the run.
COMMANDS = {
    "check-derivation": ([], [BASE, "{pi}"]),
    "congruence": ([], [str(FIXTURES / "mltt_pi.json"), "Pi-form"]),
    "check-theory": (["--acceptable", "--well-founded"], [str(FIXTURES / "mltt_pi.json")]),
    "check-theory spec": (["--acceptable"], [str(FIXTURES / "mltt_pi_presented.json")]),
    "flatten": ([], [str(FIXTURES / "mltt_pi_presented.json")]),
    "presup": ([], [BASE, "{pi}"]),
    "elim-subst": ([], [BASE, "{pi}"]),
    "invert": ([], [BASE, "{pi}"]),
    "natural-type": (["--cxt", "[]"], [BASE, TT]),
    "unique-typing": ([], [BASE, "{tt}", "{tt}"]),
    "replace-step": ([], [str(FIXTURES / "type_in_type.json"), str(FIXTURES / "type_in_type_replacement.json")]),
}
VARIANTS = ("-S pass", "pass", "import", "call", "no pyc", "argparse")

LINES = """
import contextlib, io, sys
import gtt.cli
with contextlib.redirect_stdout(io.StringIO()):
    gtt.cli.main(sys.argv[1:])
gtt = [m for name, m in sys.modules.items() if name == "gtt" or name.startswith("gtt.")]
print(sum(len(open(m.__file__).read().splitlines()) for m in gtt))
"""


def nested_pi(n: int, cxt=()) -> dict:
    """The derivation of Pi(unit, Pi(unit, ... unit)), with ``n`` Pi, in
    the file format of ``mltt_base``: every type is closed, so none needs
    weakening into a longer context."""
    unit = {"args": [], "sym": "unit"}
    if n == 0:
        return {"children": [], "cxt": list(cxt), "inst": {}, "name": "unit-form", "node": "rule"}
    body = unit
    for _ in range(n - 1):
        body = {"args": [unit, body], "sym": "Pi"}
    return {
        "children": [nested_pi(0, cxt), nested_pi(n - 1, (*cxt, unit))],
        "cxt": list(cxt), "inst": {"A": unit, "B": body}, "name": "Pi-form", "node": "rule",
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("commands", nargs="*", metavar="command",
                   help="commands to time, quoted where they hold a space (default: " + ", ".join(COMMANDS) + ")")
    p.add_argument("--runs", type=int, default=21, help="rounds of alternating runs (default 21)")
    args = p.parse_args()
    if unknown := set(args.commands) - set(COMMANDS):
        p.error(f"unknown commands: {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for copy in ("plain", "compiled"):
            shutil.copytree(ROOT / "src" / "gtt", tmp / copy / "gtt", ignore=shutil.ignore_patterns("__pycache__"))
        with contextlib.redirect_stdout(sys.stderr):
            compileall.compile_dir(tmp / "compiled", quiet=1)
        files = {"{pi}": tmp / "pi.json", "{tt}": tmp / "tt.json"}
        files["{pi}"].write_text(json.dumps(nested_pi(8)))
        files["{tt}"].write_text(json.dumps({"children": [], "cxt": [], "inst": {}, "name": "tt-intro", "node": "rule"}))
        print("| command | lines | " + " | ".join(VARIANTS) + " | compile | argparse share | import share | run |")
        print("| --- " * (len(VARIANTS) + 6) + "|")
        for name in args.commands or COMMANDS:
            options, positionals = COMMANDS[name]
            positionals = [str(files.get(a, a)) for a in positionals]
            command = name.split()[0]
            argv, via_argparse = [command, *positionals, *options], [command, *options, "--", *positionals]
            print(report(tmp, name, argv, via_argparse, args.runs), flush=True)


def report(tmp: Path, name: str, argv: list[str], via_argparse: list[str], runs: int) -> str:
    """The row of the command ``name``: ``argv`` parses plainly, ``via_argparse`` to the same arguments."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    plain, compiled = {**env, "PYTHONPATH": str(tmp / "plain")}, {**env, "PYTHONPATH": str(tmp / "compiled")}
    py = sys.executable
    runs_of = {
        "-S pass": ([py, "-S", "-c", "pass"], env),
        "pass": ([py, "-c", "pass"], env),
        "import": ([py, "-c", "import gtt.cli"], compiled),
        "call": ([py, "-m", "gtt.cli", *argv], compiled),
        "no pyc": ([py, "-m", "gtt.cli", *argv], plain),
        "argparse": ([py, "-m", "gtt.cli", *via_argparse], compiled),
    }
    for cmd, run_env in runs_of.values():
        # a call that fails would time its error path
        subprocess.run(cmd, env=run_env, stdout=subprocess.DEVNULL, check=True)
    times = {v: [] for v in VARIANTS}
    for r in range(runs):
        for v in VARIANTS[r % len(VARIANTS):] + VARIANTS[:r % len(VARIANTS)]:
            cmd, run_env = runs_of[v]
            start = time.perf_counter()
            subprocess.run(cmd, env=run_env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            times[v].append((time.perf_counter() - start) * 1000)
    lines = subprocess.run([py, "-c", LINES, *argv], env=compiled, capture_output=True, text=True, check=True)
    ms = {v: statistics.median(t) for v, t in times.items()}
    shares = (ms["no pyc"] - ms["call"], ms["argparse"] - ms["call"], ms["import"] - ms["pass"],
              ms["call"] - ms["import"])
    cells = [f"{ms[v]:.1f}" for v in VARIANTS] + [f"{s:.1f}" for s in shares]
    return f"| `{name}` | {int(lines.stdout)} | " + " | ".join(cells) + " |"


if __name__ == "__main__":
    main()
