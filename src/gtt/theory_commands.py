"""The bodies of the ``gtt`` commands that check or rewrite a theory: ``check-theory``,
``flatten`` and ``replace-step``.  Each imports ``acceptability``, ``presentation`` or
``maps`` when it runs, and ``gtt.cli`` imports this module only when one of them runs."""

from __future__ import annotations

import sys

from .cli import _emit, _load_raw, _read_json, _write
from .errors import KernelError, ParseError
from .jsonio import (
    _form_from, _list, _obj, _str, derivation_from_json, expr_from_json, expr_to_json, load_theory_file, rule_from_json,
)
from .syntax import mv_extend_signature


def cmd_check_theory(args) -> int:
    from .acceptability import check_well_founded_theory

    kind, payload = load_theory_file(_read_json(args.theory))
    report_json = {"file": str(args.theory), "checks": {}}
    lines = []
    failed = False
    # with no flag, a spec is checked for well-presentedness and a raw theory for acceptability
    default = not (args.acceptable or args.well_founded or args.well_presented)
    if kind == "spec":
        from .presentation import elaborate_theory

        try:
            theory, witnesses = elaborate_theory(payload)
        except KernelError as e:
            report_json["checks"]["well-presented"] = {"ok": False, "diagnostics": [str(e)]}
            _print_report(args, report_json, ["well-presented: FAIL ({})".format(e)])
            return 1
        order = None
        if args.well_presented or default:
            report_json["checks"]["well-presented"] = {"ok": True, "diagnostics": []}
            lines.append("well-presented: ok")
    else:
        theory, witnesses, order = payload
        if args.well_presented:
            report_json["checks"]["well-presented"] = {"ok": False, "diagnostics": ["not a well-presented spec file"]}
            lines.append("well-presented: FAIL (not a spec file)")
            failed = True
    if args.acceptable or (default and kind != "spec"):
        failed |= _acceptability_into(theory, witnesses, args.weak, report_json, lines)
    if args.well_founded:
        wf = check_well_founded_theory(theory, order, witnesses)
        report_json["checks"]["well-founded"] = _fields(wf)
        lines.append(f"well-founded: {'ok' if wf.ok else 'FAIL'}")
        for d in wf.diagnostics:
            lines.append(f"  - {d}")
        failed |= not wf.ok
    _print_report(args, report_json, lines)
    return 1 if failed else 0


def _acceptability_into(theory, witnesses, weak, report_json, lines) -> bool:
    from .acceptability import check_acceptable_theory

    report = check_acceptable_theory(theory, witnesses, weak)
    report_json["checks"]["acceptable"] = {
        **_fields(report), "ok": report.acceptable, "rules": [_fields(r) for r in report.rules]
    }
    lines.append(f"acceptable: {'ok' if report.acceptable else 'FAIL'}")
    for flag in ("tight", "presuppositive", "substitutive", "congruous"):
        lines.append(f"  {flag}: {'ok' if getattr(report, flag) else 'FAIL'}")
    if not report.acceptable:
        for d in report.diagnostics[:10]:
            lines.append(f"  - {d}")
    return not report.acceptable


def _fields(record) -> dict:
    """A report record's fields by name."""
    return dict(zip(type(record).__match_args__, record[1:]))


def _print_report(args, report_json, lines) -> None:
    if args.json:
        _emit(args, report_json)
    else:
        _write(args, "\n".join(lines))


def cmd_flatten(args) -> int:
    kind, payload = load_theory_file(_read_json(args.theory))
    if kind != "spec":
        print("flatten expects a well-presented spec file", file=sys.stderr)
        return 2
    from .acceptability import check_acceptable_theory
    from .presentation import elaborate_theory, theory_to_json

    theory, witnesses = elaborate_theory(payload)
    if not check_acceptable_theory(theory, witnesses).acceptable:
        print("elaboration produced a non-acceptable theory", file=sys.stderr)
        return 1
    _emit(args, theory_to_json(theory))
    return 0


def cmd_replace_step(args) -> int:
    from .maps import EquationStep, ReplacementBuilder, SymbolStep
    from .presentation import theory_to_json

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
            builder.add_symbol(SymbolStep(_step_name(builder, step, ("", "-cong")), spec, realiser, witness))
        elif kind == "equation":
            rule = rule_from_json(builder.signature, step.get("rule"))
            ext = mv_extend_signature(theory.signature, rule.arity, rule.meta_names)
            witness = derivation_from_json(theory, ext, step.get("witness"))
            builder.add_equation(EquationStep(_step_name(builder, step, ("",)), rule, witness))
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


def _step_name(builder, step, suffixes) -> str:
    """The name of a script step, whose rules (its name with each of
    ``suffixes``) must not be named yet."""
    name = _str(step.get("name"), "step name")
    if any(name + s in builder.rule_names for s in suffixes):
        raise ParseError(f"step name {name!r} is declared twice")
    return name


def _script_boundary(builder, step):
    from .presentation import premises_shape_from_json, rule_boundary_from_json

    premises = [_obj(p, "a premise") for p in _list(step.get("premises", []), "premises")]
    shape = premises_shape_from_json(premises, None)
    form = _form_from(step.get("conclusion_form"))
    return rule_boundary_from_json(builder.signature, shape, premises, form, step.get("boundary", {}))
