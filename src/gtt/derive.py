"""Convenience constructors for derivation nodes.

These only assemble node data; all trust stays with the checker.  Each
helper takes the expressions naming the closure-rule instance and the
child derivations in premise order.
"""

from __future__ import annotations

from .judgements import Judgement, RawContext
from .rules import (
    CONV_EQ,
    CONV_TM,
    EQUIV_TM_REFL,
    EQUIV_TY_REFL,
    EQUIV_TY_SYM,
    EQUIV_TY_TRANS,
    CONVERSION_RULES,
    EQUIVALENCE_RULES,
)
from .syntax import Expr, Instantiation, Substitution
from .theories import (
    ConvInst,
    EquivInst,
    EqSubstInst,
    Specific,
    Structural,
    SubstInst,
    VariableInst,
)


def _equiv(which: int, ctx: RawContext, exprs: tuple[Expr, ...], children) -> Structural:
    inst = Instantiation(EQUIVALENCE_RULES[which].arity, ctx.scope, exprs)
    return Structural(EquivInst(which, inst, ctx), tuple(children))


def _conv(which: int, ctx: RawContext, exprs: tuple[Expr, ...], children) -> Structural:
    inst = Instantiation(CONVERSION_RULES[which].arity, ctx.scope, exprs)
    return Structural(ConvInst(which, inst, ctx), tuple(children))


def refl_ty(ctx, a, d_a) -> Structural:
    return _equiv(EQUIV_TY_REFL, ctx, (a,), (d_a,))


def sym_ty(ctx, a, b, d_a, d_b, d_ab) -> Structural:
    return _equiv(EQUIV_TY_SYM, ctx, (a, b), (d_a, d_b, d_ab))


def trans_ty(ctx, a, b, c, d_a, d_b, d_c, d_ab, d_bc) -> Structural:
    return _equiv(EQUIV_TY_TRANS, ctx, (a, b, c), (d_a, d_b, d_c, d_ab, d_bc))


def refl_tm(ctx, a, s, d_a, d_s) -> Structural:
    return _equiv(EQUIV_TM_REFL, ctx, (a, s), (d_a, d_s))


def conv(ctx, a, b, s, d_a, d_b, d_s, d_ab) -> Structural:
    return _conv(CONV_TM, ctx, (a, b, s), (d_a, d_b, d_s, d_ab))


def conv_eq(ctx, a, b, s, t, d_a, d_b, d_s, d_t, d_st, d_ab) -> Structural:
    return _conv(CONV_EQ, ctx, (a, b, s, t), (d_a, d_b, d_s, d_t, d_st, d_ab))


def var(ctx: RawContext, i: int, d_type) -> Structural:
    return Structural(VariableInst(ctx, i), (d_type,))


def rule(index: int, inst: Instantiation, ctx: RawContext, children) -> Specific:
    return Specific(index, inst, ctx, tuple(children))


def subst(
    f: Substitution,
    target: RawContext,
    trivial: frozenset[int],
    judgement: Judgement,
    d_judgement,
    typings=(),
) -> Structural:
    return Structural(
        SubstInst(f, target, trivial, judgement), (d_judgement,) + tuple(typings)
    )


def eq_subst(
    f: Substitution,
    g: Substitution,
    target: RawContext,
    trivial: frozenset[int],
    judgement: Judgement,
    d_judgement,
    triples=(),
) -> Structural:
    children = [d_judgement]
    for df, dg, de in triples:
        children += [df, dg, de]
    return Structural(EqSubstInst(f, g, target, trivial, judgement), tuple(children))


def weaken_closed(target: RawContext, judgement: Judgement, d_judgement) -> Structural:
    """Weaken a closed judgement into ``target`` by the empty substitution."""
    if judgement.context.scope != 0:
        raise ValueError("weaken_closed applies to judgements in the empty context")
    f = Substitution(target.scope, 0, ())
    return subst(f, target, frozenset(), judgement, d_judgement)
