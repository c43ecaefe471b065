"""The gtt command line: load theory and derivation files, run checks and
metatheorem transformers, emit reports and transformed objects.

Exit codes: 0 all requested checks pass, 1 a check fails, 2 bad input.
Every emitted derivation or rule is re-checked before printing.  A reader
that closes stdout early (``gtt ... | head``) ends the output only: the
command writes nothing more, prints no traceback and keeps its exit code.

This module holds the command table, ``main``, the file and output helpers,
and the raw-layer bodies of ``check-derivation`` and ``congruence``; the
others, in ``gtt.commands`` and ``gtt.theory_commands``, load with their
command and import only what they run.  ``main`` parses a plain call from
the table; help, usage errors and ``--out=x`` go to argparse (``gtt.usage``).
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

from .errors import KernelError, ParseError
from .jsonio import (
    _rule_index,
    derivation_from_json,
    dumps,
    judgement_to_json,
    load_theory_file,
    loads,
    rule_from_json,
    rule_to_json,
)
from .rules import congruence_rule
from .theories import check_theory_derivation


class _Unwritable(Exception):
    """The ``--out`` path cannot be written; the message is the whole report."""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or _higher("parse_args", "usage")(argv)
    try:
        return args.run(args)
    except _Unwritable as e:
        print(e, file=sys.stderr)
        return 2
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"no such file: {e.filename}", file=sys.stderr)
        return 2
    except KernelError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1


def _plain_args(argv):
    """What argparse parses from a plain call: a subcommand's exact name, its
    options each at most once by exact name, with a value that does not start
    with ``-``, and exactly its positionals.  Any other call gives ``None``."""
    run, _, arguments = COMMANDS.get(argv[0] if argv else None, (None, None, ()))
    kinds, given, words = dict(arguments), {}, iter(argv[1:])
    positionals = [a for a in kinds if a[0] != "-"]
    for word in words:
        if word[:1] != "-":
            name, value = positionals.pop(0) if positionals else None, word
        else:
            name, value = word, "action" in kinds.get(word, {}) or next(words, "-")
        if name not in kinds or name in given or value is not True and value[:1] == "-":
            return None
        given[name] = value if value is True else kinds[name].get("type", str)(value)
    if run is None or positionals:
        return None
    defaults = {a: False if "action" in kw else kw.get("default") for a, kw in arguments}
    return SimpleNamespace(run=run, **{a.lstrip("-").replace("-", "_"): v for a, v in (defaults | given).items()})


def _higher(name: str, module: str = "commands"):
    """The function ``name`` of ``gtt.<module>``, imported when it runs."""
    return lambda args: getattr(import_module(f"gtt.{module}"), name)(args)


def _read_json(path: Path):
    """The JSON value in an input file; a file that is not readable text is bad input."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    return loads(text)


def _load_raw(path: Path):
    kind, payload = load_theory_file(_read_json(path))
    if kind == "spec":
        from .acceptability import check_acceptable_theory
        from .presentation import elaborate_theory

        theory, witnesses = elaborate_theory(payload)
        if not check_acceptable_theory(theory, witnesses).acceptable:
            raise KernelError("the elaborated theory is not acceptable")
        return theory, witnesses, None
    return payload


def _emit(args, data) -> None:
    _write(args, dumps(data, pretty=args.pretty))


def _write(args, text: str) -> None:
    """Write ``text`` and a newline to ``--out`` or to stdout."""
    if args.out:
        try:
            args.out.write_text(text + "\n")
        except OSError as e:
            raise _Unwritable(f"cannot write {args.out}: {e.strerror or e}") from None
        return
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is left, and the flush at exit, nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _load_derivation(theory, path: Path):
    data = _read_json(path)
    if isinstance(data, dict) and "derivation" in data:
        data = data["derivation"]
    return derivation_from_json(theory, theory.signature, data)


def cmd_check_derivation(args) -> int:
    theory, _, _ = _load_raw(args.theory)
    d = _load_derivation(theory, args.derivation)
    conclusion = check_theory_derivation(theory, (), d)
    _emit(args, {"ok": True, "conclusion": judgement_to_json(theory.signature, conclusion)})
    return 0


def cmd_congruence(args) -> int:
    theory, _, _ = _load_raw(args.theory)
    rule = theory.rule(_rule_index(theory, args.rule, "rule"))
    if not rule.is_object:
        raise ParseError(f"rule {args.rule!r} is not an object rule: only object rules have congruence rules")
    cong = congruence_rule(theory.kind, rule)
    # round-trip discipline: what we print must re-check structurally
    data = rule_to_json(theory.signature, cong, f"{args.rule}-cong")
    if rule_from_json(theory.signature, data) != cong:
        raise KernelError("congruence rule does not re-check")
    _emit(args, data)
    return 0


_FLAG, _PATH = {"action": "store_true"}, {"type": Path}
# Each subcommand's body, help and arguments, each a name and the keywords
# ``add_argument`` takes; ``_plain_args`` and ``gtt.usage`` both read them
COMMANDS = {name: (run, help, [("--out", {**_PATH, "help": "write the result here instead of stdout"}),
                               ("--pretty", {**_FLAG, "help": "indent emitted JSON"}), ("theory", _PATH), *arguments])
            for name, run, help, arguments in [
    ("check-theory", _higher("cmd_check_theory", "theory_commands"), "check a theory file's well-behavedness",
     [("--json", {**_FLAG, "help": "machine-readable report"}), ("--acceptable", _FLAG), ("--well-founded", _FLAG),
      ("--well-presented", _FLAG), ("--weak", {**_FLAG, "help": "check weak presuppositivity"})]),
    ("check-derivation", cmd_check_derivation, "check a derivation against a theory", [("derivation", _PATH)]),
    ("flatten", _higher("cmd_flatten", "theory_commands"), "elaborate a well-presented spec to a raw theory", []),
    ("congruence", cmd_congruence, "emit the congruence rule of an object rule", [("rule", {})]),
    ("presup", _higher("cmd_presup"), "derive the presuppositions of a derivation's conclusion",
     [("derivation", _PATH)]),
    ("elim-subst", _higher("cmd_elim_subst"), "eliminate substitution nodes from a derivation",
     [("derivation", _PATH)]),
    ("natural-type", _higher("cmd_natural_type"), "compute the natural type of a term",
     [("term", {"help": "term expression as JSON"}),
      ("--cxt", {"default": "[]", "help": "context as JSON (default empty)"})]),
    ("invert", _higher("cmd_invert"), "canonical form of a term or type derivation", [("derivation", _PATH)]),
    ("unique-typing", _higher("cmd_unique_typing"), "derive the type equality of two typings",
     [("first", _PATH), ("second", _PATH)]),
    ("replace-step", _higher("cmd_replace_step", "theory_commands"), "run a replacement script against a theory",
     [("script", _PATH)]),
]}


if __name__ == "__main__":
    # ``python -m gtt.cli`` runs this file as ``__main__``: register it as
    # ``gtt.cli`` too, so that the command modules import these helpers (and
    # ``_Unwritable``) from it instead of compiling a second copy
    sys.modules.setdefault("gtt.cli", sys.modules[__name__])
    sys.exit(main())
