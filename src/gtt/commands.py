"""The bodies of the ``gtt`` commands that run a metatheorem on a derivation or a
term.  Each imports the one metatheorem module it runs when it runs, and ``gtt.cli``
imports this module only when one of these commands runs."""

from __future__ import annotations

import sys
from functools import partial

from .cli import _emit, _load_derivation, _load_raw
from .errors import KernelError
from .judgements import JudgementForm, presuppositions, ty_eq
from .jsonio import context_from_json, derivation_to_json, expr_from_json, expr_to_json, judgement_to_json, loads
from .syntax import TM
from .theories import check_theory_derivation


def _rechecked(theory, out, target, what: str, shape=lambda _: True):
    """The JSON of the transformer output ``out``, once the checker derives ``target``
    from it and it passes the transformer's shape test; a checker error comes first."""
    if check_theory_derivation(theory, (), out) != target or not shape(out):
        raise KernelError(f"{what} does not re-check")
    return derivation_to_json(theory, theory.signature, out)


def cmd_presup(args) -> int:
    from .presuppositions import derive_presuppositions

    theory, witnesses, _ = _load_raw(args.theory)
    d = _load_derivation(theory, args.derivation)
    conclusion = check_theory_derivation(theory, (), d)
    outs = derive_presuppositions(theory, d, witnesses)
    _emit(args, [
        {"derivation": _rechecked(theory, out, target, "presupposition derivation"),
         "judgement": judgement_to_json(theory.signature, target)}
        for out, target in zip(outs, presuppositions(conclusion))
    ])
    return 0


def cmd_elim_subst(args) -> int:
    from .elimination import eliminate_substitution, is_substitution_free

    theory, _, _ = _load_raw(args.theory)
    d = _load_derivation(theory, args.derivation)
    before = check_theory_derivation(theory, (), d)
    out = eliminate_substitution(theory, d)
    _emit(args, _rechecked(theory, out, before, "elimination result", is_substitution_free))
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
    _emit(args, _rechecked(theory, out, before, "inversion result", partial(is_canonical_inversion, theory)))
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
    _emit(args, _rechecked(theory, out, ty_eq(j1.context, j1.boundary[0], j2.boundary[0]), "unique-typing result"))
    return 0
