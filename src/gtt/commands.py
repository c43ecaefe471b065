"""The bodies of the ``gtt`` commands that run a metatheorem on a derivation or a
term.  Each imports the one metatheorem module it runs when it runs, and ``gtt.cli``
imports this module only when one of these commands runs."""

from __future__ import annotations

import sys

from .cli import _emit, _load_derivation, _load_raw
from .errors import KernelError
from .judgements import JudgementForm, presuppositions, ty_eq
from .jsonio import context_from_json, derivation_to_json, expr_from_json, expr_to_json, judgement_to_json, loads
from .syntax import TM
from .theories import check_theory_derivation


def cmd_presup(args) -> int:
    from .presuppositions import derive_presuppositions

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
    from .elimination import eliminate_substitution, is_substitution_free

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
    from .tightness import natural_type

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
    from .inversion import invert, is_canonical_inversion

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
    from .inversion import unique_typing_acceptable

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
