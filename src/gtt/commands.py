"""The bodies of the ``gtt`` commands that run ``metatheory``, ``presentation``
or ``maps``.  Each body imports those modules when it runs, and ``gtt.cli``
imports this module only when one of these commands runs."""

from __future__ import annotations

import sys

from .cli import _emit, _load_derivation, _load_raw, _read_json, _write
from .errors import KernelError, ParseError
from .judgements import JudgementForm, presuppositions, ty_eq
from .jsonio import (
    _boundary_from_json, _form_from, _list, _obj, _str, context_from_json, derivation_from_json,
    derivation_to_json, expr_from_json, expr_to_json, judgement_to_json, load_theory_file, loads,
    rule_from_json,
)
from .syntax import TM, Argument, mv_extend_signature
from .theories import check_theory_derivation


def cmd_check_theory(args) -> int:
    from .metatheory import check_well_founded_theory

    kind, payload = load_theory_file(_read_json(args.theory))
    report_json = {"file": str(args.theory), "checks": {}}
    failed = False
    if kind == "spec":
        from .presentation import elaborate_theory

        try:
            _, theory, report = elaborate_theory(payload)
        except KernelError as e:
            report_json["checks"]["well-presented"] = {"ok": False, "diagnostics": [str(e)]}
            _print_report(args, report_json, ["well-presented: FAIL ({})".format(e)])
            return 1
        lines = []
        if args.well_presented or not (args.acceptable or args.well_founded):
            report_json["checks"]["well-presented"] = {"ok": True, "diagnostics": []}
            lines.append("well-presented: ok")
        if args.acceptable or args.well_founded:
            failed |= _acceptability_into(theory, {}, report_json, lines, report)
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
        failed |= _acceptability_into(theory, witnesses, report_json, lines)
    if args.well_founded:
        wf = check_well_founded_theory(theory, order, witnesses)
        report_json["checks"]["well-founded"] = {"ok": wf.ok, "diagnostics": wf.diagnostics}
        lines.append(f"well-founded: {'ok' if wf.ok else 'FAIL'}")
        for d in wf.diagnostics:
            lines.append(f"  - {d}")
        failed |= not wf.ok
    _print_report(args, report_json, lines)
    return 1 if failed else 0


def _acceptability_into(theory, witnesses, report_json, lines, ready=None) -> bool:
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


def cmd_flatten(args) -> int:
    kind, payload = load_theory_file(_read_json(args.theory))
    if kind != "spec":
        print("flatten expects a well-presented spec file", file=sys.stderr)
        return 2
    from .presentation import elaborate_theory, theory_to_json

    _, theory, report = elaborate_theory(payload)
    if not report.acceptable:
        print("elaboration produced a non-acceptable theory", file=sys.stderr)
        return 1
    _emit(args, theory_to_json(theory))
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
    if term.cls is not TM:
        print("natural-type expects a term expression, not a type", file=sys.stderr)
        return 2
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
    from .presentation import premise_from_json

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
    return sequential_boundary_spec(tuple(premises), form, conclusion_slots, names)
