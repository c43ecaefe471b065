"""Which ``raise`` statements of ``src/gtt`` a run of the tests never reaches.

Standard library only, besides the pytest it runs.  From the root of a
checkout:

    python3 tools/raises.py                          # the tier-1 suite
    python3 tools/raises.py tests/test_scopes.py     # one test module

The arguments go to pytest unchanged, after ``-q -p no:cacheprovider``.
Pytest runs in this process under a ``sys.settrace`` tracer.  Each
``raise`` statement of a ``src/gtt`` module is found with ``ast``; it
counts as run when an exception is raised at its first line, so the
``raise`` of a one-line ``if …: raise`` counts only when it raises.  Only
the frames whose code holds a ``raise`` are traced, and only for their
exception events, not their lines.  Tracing makes the kernel's call-heavy
tests about four times slower.

The report is a Markdown table with one row per module that has a
``raise``: how many never ran, out of how many, and the line numbers of
those that never ran; then a total.  The ``gtt`` processes a test starts
(``python -m gtt.cli``) are not traced, so a raise that only they reach
counts as never run.  Timing tests may fail under the tracer; the report
still covers every test that ran, and the exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gtt"


def raise_lines(path: pathlib.Path) -> set[int]:
    """The first line of each ``raise`` statement of a module."""
    return {node.lineno for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Raise)}


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]], dict[str, set[int]]]:
    """Pytest's exit code, and for each ``src/gtt`` file its ``raise`` lines
    and those of them that ran."""
    raises = {str(p): raise_lines(p) for p in SRC.glob("*.py")}
    ran: dict[str, set[int]] = {path: set() for path in raises}
    watched: dict = {}  # each code object met: the raise lines it holds

    def trace(frame, event, arg):
        code = frame.f_code
        if code not in watched:
            watched[code] = raises.get(code.co_filename, set()) & {n for _, _, n in code.co_lines()}
        lines = watched[code]
        if not lines:
            return None  # a frame without a raise is not traced
        frame.f_trace_lines = False  # its exception events suffice
        hit = ran[code.co_filename]

        def local(frame, event, arg):
            if event == "exception" and frame.f_lineno in lines:
                hit.add(frame.f_lineno)
            return local

        return local

    import pytest

    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
    return int(code), raises, ran


def report(raises: dict[str, set[int]], ran: dict[str, set[int]]) -> str:
    """The Markdown table of the raises that never ran, module by module."""
    rows = ["| module | never ran / total | lines |", "| --- | --- | --- |"]
    missed_all = total_all = 0
    for path in sorted(raises):
        if not raises[path]:
            continue
        missed, total = sorted(raises[path] - ran[path]), len(raises[path])
        missed_all, total_all = missed_all + len(missed), total_all + total
        rows.append(f"| `{pathlib.Path(path).stem}` | {len(missed)} / {total} | {', '.join(map(str, missed))} |")
    rows.append(f"| total | {missed_all} / {total_all} | |")
    return "\n".join(rows)


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    code, raises, ran = traced_run(argv)
    print(report(raises, ran))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
