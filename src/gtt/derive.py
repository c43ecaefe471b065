"""Convenience constructors for derivation nodes, and the equality image
of an object-rule node that equality substitution and congruence synthesis
share.  These only assemble node data; all trust stays with the checker.
"""

from __future__ import annotations

from .derivation_ops import concat_inst, find_congruence
from .errors import NotCongruous
from .judgements import Judgement, RawContext
from .rules import BuiltinRule
from .syntax import Expr, Instantiation, Substitution
from .theories import EqSubstInst, RawTypeTheory, RuleInst, SubstInst, VariableInst


def _builtin(ref: BuiltinRule, ctx: RawContext, exprs: tuple[Expr, ...], children) -> RuleInst:
    return RuleInst(ref, Instantiation(ref.rule.arity, ctx.scope, exprs), ctx, tuple(children))


def refl_ty(ctx, a, d_a) -> RuleInst:
    return _builtin(BuiltinRule.EQUIV_TY_REFL, ctx, (a,), (d_a,))


def sym_ty(ctx, a, b, d_a, d_b, d_ab) -> RuleInst:
    return _builtin(BuiltinRule.EQUIV_TY_SYM, ctx, (a, b), (d_a, d_b, d_ab))


def trans_ty(ctx, a, b, c, d_a, d_b, d_c, d_ab, d_bc) -> RuleInst:
    return _builtin(BuiltinRule.EQUIV_TY_TRANS, ctx, (a, b, c), (d_a, d_b, d_c, d_ab, d_bc))


def refl_tm(ctx, a, s, d_a, d_s) -> RuleInst:
    return _builtin(BuiltinRule.EQUIV_TM_REFL, ctx, (a, s), (d_a, d_s))


def conv(ctx, a, b, s, d_a, d_b, d_s, d_ab) -> RuleInst:
    return _builtin(BuiltinRule.CONV_TM, ctx, (a, b, s), (d_a, d_b, d_s, d_ab))


def conv_back(ctx, a, b, s, d_a, d_b, d_s, d_ab) -> RuleInst:
    """Convert ``s : b`` back to ``a`` along ``d_ab : a == b``, by its symmetric equality."""
    return conv(ctx, b, a, s, d_b, d_a, d_s, sym_ty(ctx, a, b, d_a, d_b, d_ab))


def conv_eq(ctx, a, b, s, t, d_a, d_b, d_s, d_t, d_st, d_ab) -> RuleInst:
    return _builtin(BuiltinRule.CONV_EQ, ctx, (a, b, s, t), (d_a, d_b, d_s, d_t, d_st, d_ab))


def var(ctx: RawContext, i: int, d_type) -> VariableInst:
    return VariableInst(ctx, i, (d_type,))


def rule(index: int, inst: Instantiation, ctx: RawContext, children) -> RuleInst:
    return RuleInst(index, inst, ctx, tuple(children))


def subst(
    f: Substitution,
    target: RawContext,
    trivial: frozenset[int],
    judgement: Judgement,
    d_judgement,
    typings=(),
) -> SubstInst:
    return SubstInst(f, target, trivial, judgement, (d_judgement,) + tuple(typings))


def eq_subst(
    f: Substitution,
    g: Substitution,
    target: RawContext,
    trivial: frozenset[int],
    judgement: Judgement,
    d_judgement,
    triples=(),
) -> EqSubstInst:
    children = [d_judgement]
    for df, dg, de in triples:
        children += [df, dg, de]
    return EqSubstInst(f, g, target, trivial, judgement, tuple(children))


def weaken_closed(target: RawContext, judgement: Judgement, d_judgement) -> SubstInst:
    """Weaken a closed judgement into ``target`` by the empty substitution."""
    if judgement.context.scope != 0:
        raise ValueError("weaken_closed applies to judgements in the empty context")
    f = Substitution(target.scope, 0, ())
    return subst(f, target, frozenset(), judgement, d_judgement)


def equality_image(theory: RawTypeTheory, node: RuleInst, tgt: RawContext, i_f, i_g, f_children, g_children, eq):
    """The equality over ``tgt`` of two images of an object-rule node, given its instantiations ``i_f``, ``i_g``,
    its children's images ``f_children``, ``g_children`` and ``eq(k)``, the equality image of object premise k."""
    if node.ref is BuiltinRule.CONV_TM:
        # premises A, B, s : A, A == B; conclusion s : B; no metavariable binds
        (fa, fb, fs), (ga, _, gs) = i_f.exprs, i_g.exprs
        gs_at_fa = conv_back(tgt, fa, ga, gs, f_children[0], g_children[0], g_children[2], eq(0))
        return conv_eq(tgt, fa, fb, fs, gs, *f_children[:3], gs_at_fa, eq(2), f_children[3])
    if (cidx := find_congruence(theory, node.ref)) is None:
        raise NotCongruous(f"no congruence rule for {theory.rule_name(node.ref)}")
    eqs = map(eq, theory.rule(node.ref).object_premises())
    return RuleInst(cidx, concat_inst(i_f, i_g), tgt, (*f_children, *g_children, *eqs))
