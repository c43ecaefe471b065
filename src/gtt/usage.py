"""The argparse parser of ``gtt``, for the calls ``gtt.cli`` does not parse
on its own: help, usage errors, abbreviated options and ``--opt=value``.
Only such a call imports argparse."""

from __future__ import annotations

import argparse

from .cli import COMMANDS


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``gtt``.  A call that names a subcommand builds that
    subcommand's parser alone, any other call (``--help``, none, an unknown
    one) all of them; the usage names every subcommand either way."""
    parser = argparse.ArgumentParser(prog="gtt", description="a kernel in which dependent type theories are data")
    sub = parser.add_subparsers(required=True, metavar="{" + ",".join(COMMANDS) + "}")
    for name in [command] if command in COMMANDS else COMMANDS:
        run, help, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        for arg, kw in arguments:
            p.add_argument(arg, **kw)
    return parser


def parse_args(argv: list[str]):
    """argparse's namespace of ``argv``; help or a usage error prints and exits."""
    return build_parser(argv[0] if argv else None).parse_args(argv)
