"""The gtt command line: load theory and derivation files, run checks and
metatheorem transformers, emit reports and transformed objects.

Exit codes: 0 all requested checks pass, 1 a check fails, 2 bad input.
Every emitted derivation or rule is re-checked before printing.  A reader
that closes stdout early (``gtt ... | head``) ends the output only: the
command writes nothing more, prints no traceback and keeps its exit code.

A command imports ``metatheory``, ``presentation`` and ``maps`` only when
it runs them: ``check-derivation`` on a raw theory loads the raw layer
alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import KernelError, ParseError
from .judgements import JudgementForm, presuppositions, ty_eq
from .jsonio import (
    _boundary_from_json,
    _form_from,
    _list,
    _obj,
    _rule_index,
    _str,
    context_from_json,
    derivation_from_json,
    derivation_to_json,
    dumps,
    expr_from_json,
    expr_to_json,
    judgement_to_json,
    load_theory_file,
    loads,
    premise_from_json,
    rule_from_json,
    rule_to_json,
    theory_to_json,
)
from .rules import congruence_rule
from .syntax import Argument, mv_extend_signature
from .theories import check_theory_derivation


class _Unwritable(Exception):
    """The ``--out`` path cannot be written; the message is the whole report."""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtt",
        description="a kernel in which dependent type theories are data",
    )
    sub = parser.add_subparsers(required=True)

    def cmd(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--out", type=Path, help="write the result here instead of stdout")
        p.add_argument("--pretty", action="store_true", help="indent emitted JSON")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        return p

    p = cmd("check-theory", cmd_check_theory, "check a theory file's well-behavedness")
    p.add_argument("theory", type=Path)
    p.add_argument("--acceptable", action="store_true")
    p.add_argument("--well-founded", action="store_true")
    p.add_argument("--well-presented", action="store_true")
    p.add_argument("--weak", action="store_true", help="check weak presuppositivity")

    p = cmd("check-derivation", cmd_check_derivation, "check a derivation against a theory")
    p.add_argument("theory", type=Path)
    p.add_argument("derivation", type=Path)

    p = cmd("flatten", cmd_flatten, "elaborate a well-presented spec to a raw theory")
    p.add_argument("theory", type=Path)

    p = cmd("congruence", cmd_congruence, "emit the congruence rule of an object rule")
    p.add_argument("theory", type=Path)
    p.add_argument("rule")

    p = cmd("presup", cmd_presup, "derive the presuppositions of a derivation's conclusion")
    p.add_argument("theory", type=Path)
    p.add_argument("derivation", type=Path)

    p = cmd("elim-subst", cmd_elim_subst, "eliminate substitution nodes from a derivation")
    p.add_argument("theory", type=Path)
    p.add_argument("derivation", type=Path)

    p = cmd("natural-type", cmd_natural_type, "compute the natural type of a term")
    p.add_argument("theory", type=Path)
    p.add_argument("term", help="term expression as JSON")
    p.add_argument("--cxt", default="[]", help="context as JSON (default empty)")

    p = cmd("invert", cmd_invert, "canonical form of a term or type derivation")
    p.add_argument("theory", type=Path)
    p.add_argument("derivation", type=Path)

    p = cmd("unique-typing", cmd_unique_typing, "derive the type equality of two typings")
    p.add_argument("theory", type=Path)
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path)

    p = cmd("replace-step", cmd_replace_step, "run a replacement script against a theory")
    p.add_argument("theory", type=Path)
    p.add_argument("script", type=Path)

    return parser


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
        from .presentation import elaborate_theory

        spec = payload
        _, theory, report = elaborate_theory(spec)
        if not report.acceptable:
            raise KernelError("the elaborated theory is not acceptable")
        witnesses = {}
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


def cmd_check_theory(args) -> int:
    from .metatheory import check_well_founded_theory

    kind, payload = load_theory_file(_read_json(args.theory))
    report_json = {"file": str(args.theory), "checks": {}}
    failed = False
    if kind == "spec":
        from .presentation import elaborate_theory

        try:
            _, theory, report = elaborate_theory(payload)
            elaborated = True
        except KernelError as e:
            report_json["checks"]["well-presented"] = {"ok": False, "diagnostics": [str(e)]}
            _print_report(args, report_json, ["well-presented: FAIL ({})".format(e)])
            return 1
        lines = []
        if args.well_presented or not (args.acceptable or args.well_founded):
            report_json["checks"]["well-presented"] = {"ok": True, "diagnostics": []}
            lines.append("well-presented: ok")
        if args.acceptable or args.well_founded:
            failed |= _acceptability_into(args, theory, {}, report_json, lines, report)
        if args.well_founded:
            wf = check_well_founded_theory(theory, None)
            report_json["checks"]["well-founded"] = {
                "ok": wf.ok, "diagnostics": wf.diagnostics,
            }
            lines.append(f"well-founded: {'ok' if wf.ok else 'FAIL'}")
            failed |= not wf.ok
        _print_report(args, report_json, lines)
        return 1 if failed else 0

    theory, witnesses, order = payload
    lines = []
    if args.well_presented:
        report_json["checks"]["well-presented"] = {
            "ok": False,
            "diagnostics": ["not a well-presented spec file"],
        }
        lines.append("well-presented: FAIL (not a spec file)")
        failed = True
    if args.acceptable or not (args.well_founded or args.well_presented):
        failed |= _acceptability_into(args, theory, witnesses, report_json, lines)
    if args.well_founded:
        wf = check_well_founded_theory(theory, order, witnesses)
        report_json["checks"]["well-founded"] = {"ok": wf.ok, "diagnostics": wf.diagnostics}
        lines.append(f"well-founded: {'ok' if wf.ok else 'FAIL'}")
        for d in wf.diagnostics:
            lines.append(f"  - {d}")
        failed |= not wf.ok
    _print_report(args, report_json, lines)
    return 1 if failed else 0


def _acceptability_into(args, theory, witnesses, report_json, lines, ready=None) -> bool:
    from .metatheory import check_acceptable_theory

    report = ready or check_acceptable_theory(theory, witnesses)
    report_json["checks"]["acceptable"] = {
        "ok": report.acceptable,
        "tight": report.tight,
        "presuppositive": report.presuppositive,
        "substitutive": report.substitutive,
        "congruous": report.congruous,
        "rules": [
            {
                "name": r.name,
                "tight": r.tight,
                "presuppositive": r.presuppositive,
                "empty_conclusion_context": r.empty_conclusion_context,
            }
            for r in report.rules
        ],
        "diagnostics": report.diagnostics,
    }
    lines.append(f"acceptable: {'ok' if report.acceptable else 'FAIL'}")
    for flag in ("tight", "presuppositive", "substitutive", "congruous"):
        lines.append(f"  {flag}: {'ok' if getattr(report, flag) else 'FAIL'}")
    if not report.acceptable:
        for d in report.diagnostics[:10]:
            lines.append(f"  - {d}")
    return not report.acceptable


def _print_report(args, report_json, lines) -> None:
    if args.json:
        _emit(args, report_json)
    else:
        _write(args, "\n".join(lines))


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


def cmd_flatten(args) -> int:
    kind, payload = load_theory_file(_read_json(args.theory))
    if kind != "spec":
        print("flatten expects a well-presented spec file", file=sys.stderr)
        return 2
    from .presentation import elaborate_theory

    _, theory, report = elaborate_theory(payload)
    if not report.acceptable:
        print("elaboration produced a non-acceptable theory", file=sys.stderr)
        return 1
    _emit(args, theory_to_json(theory))
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


def cmd_presup(args) -> int:
    from .metatheory import derive_presuppositions

    theory, witnesses, _ = _load_raw(args.theory)
    d = _load_derivation(theory, args.derivation)
    conclusion = check_theory_derivation(theory, (), d)
    outs = derive_presuppositions(theory, d, witnesses)
    targets = presuppositions(conclusion)
    emitted = []
    for out, target in zip(outs, targets):
        got = check_theory_derivation(theory, (), out)
        if got != target:
            raise KernelError("presupposition derivation does not re-check")
        emitted.append(
            {
                "judgement": judgement_to_json(theory.signature, target),
                "derivation": derivation_to_json(theory, theory.signature, out),
            }
        )
    _emit(args, emitted)
    return 0


def cmd_elim_subst(args) -> int:
    from .metatheory import eliminate_substitution, is_substitution_free

    theory, _, _ = _load_raw(args.theory)
    d = _load_derivation(theory, args.derivation)
    before = check_theory_derivation(theory, (), d)
    out = eliminate_substitution(theory, d)
    after = check_theory_derivation(theory, (), out)
    if after != before or not is_substitution_free(out):
        raise KernelError("elimination result does not re-check")
    _emit(args, derivation_to_json(theory, theory.signature, out))
    return 0


def cmd_natural_type(args) -> int:
    from .metatheory import natural_type

    theory, _, _ = _load_raw(args.theory)
    ctx = context_from_json(theory.signature, loads(args.cxt))
    term = expr_from_json(theory.signature, loads(args.term), ctx.scope)
    ty = natural_type(theory, ctx, term)
    _emit(args, expr_to_json(theory.signature, ty))
    return 0


def cmd_invert(args) -> int:
    from .metatheory import invert, is_canonical_inversion

    theory, witnesses, _ = _load_raw(args.theory)
    d = _load_derivation(theory, args.derivation)
    before = check_theory_derivation(theory, (), d)
    out = invert(theory, d, witnesses)
    after = check_theory_derivation(theory, (), out)
    if after != before or not is_canonical_inversion(theory, out):
        raise KernelError("inversion result does not re-check")
    _emit(args, derivation_to_json(theory, theory.signature, out))
    return 0


def cmd_unique_typing(args) -> int:
    from .metatheory import unique_typing_acceptable

    theory, witnesses, _ = _load_raw(args.theory)
    d1 = _load_derivation(theory, args.first)
    d2 = _load_derivation(theory, args.second)
    j1 = check_theory_derivation(theory, (), d1)
    j2 = check_theory_derivation(theory, (), d2)
    if not (j1.form is j2.form is JudgementForm.IS_TM):
        print("unique-typing expects two derivations of term judgements t : A and t : B", file=sys.stderr)
        return 2
    out = unique_typing_acceptable(theory, d1, d2, witnesses)
    if check_theory_derivation(theory, (), out) != ty_eq(j1.context, j1.boundary[0], j2.boundary[0]):
        raise KernelError("unique-typing result does not re-check")
    _emit(args, derivation_to_json(theory, theory.signature, out))
    return 0


def cmd_replace_step(args) -> int:
    from .maps import EquationStep, ReplacementBuilder, SymbolStep

    theory, _, _ = _load_raw(args.theory)
    script = _obj(_read_json(args.script), "a replacement script")
    builder = ReplacementBuilder(theory)
    for step in _list(script.get("steps", []), "steps"):
        step = _obj(step, "a script step")
        kind = step.get("kind")
        if kind == "symbol":
            spec = _script_boundary(builder, step)
            alpha = spec.arity()
            ext = mv_extend_signature(theory.signature, alpha, spec.premises.meta_names())
            realiser = expr_from_json(ext, step.get("realiser"), 0)
            witness = derivation_from_json(theory, ext, step.get("witness"))
            builder.add_symbol(SymbolStep(_str(step.get("name"), "step name"), spec, realiser, witness))
        elif kind == "equation":
            rule = rule_from_json(builder.signature, step.get("rule"))
            ext = mv_extend_signature(theory.signature, rule.arity, rule.meta_names)
            witness = derivation_from_json(theory, ext, step.get("witness"))
            builder.add_equation(EquationStep(_str(step.get("name"), "step name"), rule, witness))
        else:
            raise ParseError(f"unknown step kind {kind!r}")
    out = {
        "theory": theory_to_json(builder.theory()),
        "well_founded": builder.check_well_founded(),
        "symbol_images": [
            expr_to_json(
                mv_extend_signature(
                    theory.signature, builder.signature.symbol(i).arity
                ),
                e,
            )
            for i, e in enumerate(builder.syntax_map().exprs)
        ],
    }
    _emit(args, out)
    return 0


def _script_boundary(builder, step):
    from .maps import sequential_boundary_spec

    bsig = builder.signature
    raw_premises = _list(step.get("premises", []), "premises")
    names = tuple(
        _str(_obj(p, "a premise").get("name", f"p{k}"), "premise name")
        for k, p in enumerate(raw_premises)
    )
    premises = []
    sub_args: list[Argument] = []
    obj_names: list[str] = []
    for k, p in enumerate(raw_premises):
        sub_sig = mv_extend_signature(bsig, tuple(sub_args), tuple(obj_names))
        seq, form, slots = premise_from_json(sub_sig, p)
        premises.append((seq, form, slots))
        if form.is_object:
            sub_args.append(Argument(form.head_class, len(seq)))
            obj_names.append(names[k])
    form = _form_from(step.get("conclusion_form"))
    full_sig = mv_extend_signature(bsig, tuple(sub_args), tuple(obj_names))
    conclusion_slots = _boundary_from_json(
        full_sig, _obj(step.get("boundary", {}), "conclusion boundary"), form, 0, "conclusion boundary"
    )
    return sequential_boundary_spec(
        bsig.kind, tuple(premises), form, conclusion_slots, names
    )


if __name__ == "__main__":
    sys.exit(main())
