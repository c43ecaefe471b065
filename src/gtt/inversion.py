"""Uniqueness of typing and inversion, over a substitution-free derivation."""

from __future__ import annotations

from . import derive
from .derivation_ops import _node_name, require_substitutive
from .elimination import eliminate_substitution
from .errors import KernelError, MissingWitness, NotObjectRule, NotTight
from .judgements import JudgementForm
from .presuppositions import derive_presuppositions
from .rules import BuiltinRule
from .syntax import Expr, Var, instantiate_expr
from .theories import Hyp, RawTypeTheory, RuleInst, TheoryDerivation, TheoryWitnesses, VariableInst
from .tightness import natural_type, theory_tightness


# --- uniqueness of typing ----------------------------------------------------------

def unique_typing(
    theory: RawTypeTheory,
    d_a: TheoryDerivation,
    d_b: TheoryDerivation,
    d1: TheoryDerivation,
    d2: TheoryDerivation,
) -> TheoryDerivation:
    """From derivations of t : A and t : B (plus typings of A and B), a
    derivation of A == B.  Requires a tight, substitutive theory.  It walks
    down the conversions of both, its own walk: no other node is visited."""
    theory_tightness(theory)
    require_substitutive(theory)
    kind = theory.kind
    d1 = eliminate_substitution(theory, d1)
    d2 = eliminate_substitution(theory, d2)

    def type_of(node) -> Expr:
        match node:
            case VariableInst(context=ctx, pos=i):
                return ctx.type_at(i)
            case RuleInst(ref=BuiltinRule.CONV_TM, inst=inst):
                return inst.exprs[1]
            case RuleInst(ref=int() as r, inst=inst):
                c = theory.rule(r).conclusion
                return instantiate_expr(kind, inst, c.boundary[0])
        raise NotTight(f"no term-judgement type at {_node_name(theory, node)}")

    def conv_parts(node):
        # children: A' type, A type, s : A', A' == A; instantiation (A', A, s)
        return node.children, node.inst.exprs[0], node.inst.exprs[1]

    def go(e1, da, e2, db):
        ctx = e1.context
        match e1:
            case RuleInst(ref=BuiltinRule.CONV_TM):
                (ca_p, ca, ct, ceq), a_prime, a = conv_parts(e1)
                inner = go(ct, ca_p, e2, db)
                b = type_of(e2)
                sym = derive.sym_ty(ctx, a_prime, a, ca_p, ca, ceq)
                return derive.trans_ty(ctx, a, a_prime, b, ca, ca_p, db, sym, inner)
            case _:
                pass
        match e2:
            case RuleInst(ref=BuiltinRule.CONV_TM):
                (cb_p, cb, ct, ceq), b_prime, b = conv_parts(e2)
                inner = go(e1, da, ct, cb_p)
                a = type_of(e1)
                return derive.trans_ty(ctx, a, b_prime, b, da, cb_p, cb, inner, ceq)
            case _:
                pass
        match e1, e2:
            case (VariableInst(pos=i), VariableInst(pos=j)):
                if i != j:
                    raise NotTight("the two derivations type different variables")
                return derive.refl_ty(ctx, type_of(e1), da)
            case (RuleInst(ref=int() as r1, inst=i1), RuleInst(ref=int() as r2, inst=i2)):
                if r1 != r2:
                    raise NotTight("the two derivations cite different symbol rules")
                if i1 != i2:
                    raise NotTight("instantiations differ despite equal heads")
                return derive.refl_ty(ctx, type_of(e1), da)
        raise NotTight(f"unexpected node pair {type(e1).__name__}/{type(e2).__name__}")

    return go(d1, d_a, d2, d_b)


def unique_typing_acceptable(
    theory: RawTypeTheory,
    d1: TheoryDerivation,
    d2: TheoryDerivation,
    witnesses: TheoryWitnesses,
) -> TheoryDerivation:
    """The corollary form: typings of the two types come from presuppositions."""
    d_a = derive_presuppositions(theory, d1, witnesses)[0]
    d_b = derive_presuppositions(theory, d2, witnesses)[0]
    return unique_typing(theory, d_a, d_b, d1, d2)


# --- inversion -------------------------------------------------------------------

def invert(
    theory: RawTypeTheory,
    d: TheoryDerivation,
    witnesses: TheoryWitnesses,
) -> TheoryDerivation:
    """Canonical form of a term- or type-judgement derivation.

    Term judgements end with exactly one conversion whose left branch ends in
    the variable or symbol rule at the natural type; type judgements end with
    the symbol rule.  Requires an acceptable theory.  Witnesses are needed
    only where a natural type is typed: at the symbol-rule node a term
    judgement ends in (under its conversions), for its rule and for what
    ``derive_presuppositions`` reaches from it, which raises
    ``MissingWitness`` there as it does itself; reaching a hypothesis
    raises it too, and no other node needs a witness.  It walks down the
    conversions on its own: no other node is visited.
    """
    kind = theory.kind
    d = eliminate_substitution(theory, d)

    def go(node):
        match node:
            case VariableInst(context=ctx, pos=i, children=children):
                a = ctx.type_at(i)
                refl = derive.refl_ty(ctx, a, children[0])
                return derive.conv(ctx, a, a, Var(i, ctx.scope), children[0], children[0], node, refl)
            case RuleInst(ref=int() as r, inst=inst, context=ctx):
                conclusion = theory.rule(r).conclusion
                if conclusion.form is JudgementForm.IS_TY:
                    return node
                if conclusion.form is not JudgementForm.IS_TM:
                    raise NotObjectRule("inversion applies to object judgements")
                natty = instantiate_expr(kind, inst, conclusion.boundary[0])
                head = instantiate_expr(kind, inst, conclusion.head)
                d_natty = derive_presuppositions(theory, node, witnesses)[0]
                refl = derive.refl_ty(ctx, natty, d_natty)
                return derive.conv(ctx, natty, natty, head, d_natty, d_natty, node, refl)
            case RuleInst(ref=BuiltinRule.CONV_TM, inst=inst, context=ctx, children=children):
                c_bp, c_b, c_t, c_eq = children
                b_prime, b, term = inst.exprs
                rec = go(c_t)
                r_natty, _, r_term = rec.inst.exprs
                r_dn, r_dbp, r_dt, r_deq = rec.children
                merged = derive.trans_ty(
                    ctx, r_natty, b_prime, b, r_dn, c_bp, c_b, r_deq, c_eq
                )
                return derive.conv(ctx, r_natty, b, term, r_dn, c_b, r_dt, merged)
            case Hyp():
                raise MissingWitness("cannot invert a hypothesis")
        raise NotObjectRule(f"inversion does not apply at {_node_name(theory, node)}")

    return go(d)


def is_canonical_inversion(theory: RawTypeTheory, d: TheoryDerivation) -> bool:
    """Shape test: one top conversion over a variable/symbol node at the
    natural type (term case), or a symbol-rule root (type case)."""
    match d:
        case RuleInst(ref=int() as r):
            return theory.rule(r).conclusion.form is JudgementForm.IS_TY
        case RuleInst(ref=BuiltinRule.CONV_TM, inst=inst, context=ctx, children=children):
            left = children[2]
            if not (isinstance(left, VariableInst) or isinstance(left, RuleInst) and isinstance(left.ref, int)):
                return False
            term = inst.exprs[2]
            try:
                natty = natural_type(theory, ctx, term)
            except KernelError:
                return False
            return inst.exprs[0] == natty
    return False

