"""The presuppositions theorem: the presupposition witnesses of the rules a derivation
cites, instantiated at each node and grafted onto its premises in the same walk (``grafting``)."""

from __future__ import annotations

from . import derive
from .derivation_ops import _node_name, rebuild
from .errors import FillerConclusionMismatch, MissingWitness
from .judgements import (
    EMPTY_CONTEXT, JudgementForm, RawContext, instantiate_context, instantiate_judgement, is_type, presuppositions,
)
from .rules import BuiltinRule
from .scopes import ScopeKind
from .syntax import Expr, Instantiation, MetaApp, Substitution, Var, instantiate_expr, substitute_expr
from .theories import (
    EqSubstInst, Hyp, RawTypeTheory, RuleInst, RuleWitnesses, SubstInst, TheoryDerivation, TheoryWitnesses,
    VariableInst,
)


def inst_act_subst(kind: ScopeKind, inst: Instantiation, f: Substitution) -> Substitution:
    """I acting on f : delta' -> delta gives gamma+delta' -> gamma+delta."""
    gamma = inst.scope
    src, dst = gamma + f.src, gamma + f.dst
    table: list[Expr] = [None] * dst  # type: ignore[list-item]
    for i in range(gamma):
        table[kind.inl(gamma, f.dst, i)] = Var(kind.inl(gamma, f.src, i), src)
    for j in range(f.dst):
        table[kind.inr(gamma, f.dst, j)] = instantiate_expr(kind, inst, f(j))
    return Substitution(src, dst, tuple(table))


def inst_act_inst(kind: ScopeKind, inst: Instantiation, other: Instantiation) -> Instantiation:
    """I acting on J pointwise; the result lives in scope I.scope + J.scope."""
    return Instantiation(
        other.arity,
        inst.scope + other.scope,
        tuple(instantiate_expr(kind, inst, e) for e in other.exprs),
    )


def grafting(fillers: tuple):
    """The leaf map that grafts: hypothesis leaf h becomes filler h.  If the
    derivation walked derives c from H and filler h derives H[h] from H',
    the result derives c from H'; that agreement is the caller's obligation,
    and checking the result catches violations."""
    def leaf(h):
        if not 0 <= h.index < len(fillers):
            raise FillerConclusionMismatch(f"no filler for hypothesis {h.index}")
        return fillers[h.index]
    return leaf


def instantiate_derivation(
    theory: RawTypeTheory,
    inst: Instantiation,
    ctx: RawContext,
    d: TheoryDerivation,
    leaf=lambda h: h,
) -> TheoryDerivation:
    """Push a derivation over the extension by ``inst.arity`` down to the base.

    ``d`` must check over the theory at ambient ``inst.arity``; the result
    checks over the ambient the entries of ``inst`` are written in, with the
    instantiated conclusion.  Under strict scopes every node maps to a node
    of the same kind, so the tree shape is preserved.  A hypothesis leaf h
    becomes ``leaf(h)``, so a leaf map such as ``grafting`` grafts in the same walk.
    """
    kind = theory.kind
    gamma = inst.scope

    def trivial(sigma: int, K: frozenset[int]) -> frozenset[int]:
        return frozenset(kind.inl(gamma, sigma, i) for i in range(gamma)) | {kind.inr(gamma, sigma, i) for i in K}

    def step(node: TheoryDerivation, children: tuple) -> TheoryDerivation:
        match node:
            case RuleInst(ref=ref, inst=j, context=delta):
                return RuleInst(
                    ref, inst_act_inst(kind, inst, j), instantiate_context(kind, inst, ctx, delta), children
                )
            case VariableInst(context=delta, pos=i):
                return VariableInst(
                    instantiate_context(kind, inst, ctx, delta), kind.inr(gamma, delta.scope, i), children
                )
            case SubstInst(subst=f, context=tgt, trivial=K, judgement=jj):
                return SubstInst(
                    inst_act_subst(kind, inst, f),
                    instantiate_context(kind, inst, ctx, tgt),
                    trivial(jj.context.scope, K),
                    instantiate_judgement(kind, inst, ctx, jj),
                    children,
                )
            case EqSubstInst(left=f, right=g, context=tgt, trivial=K, judgement=jj):
                return EqSubstInst(
                    inst_act_subst(kind, inst, f),
                    inst_act_subst(kind, inst, g),
                    instantiate_context(kind, inst, ctx, tgt),
                    trivial(jj.context.scope, K),
                    instantiate_judgement(kind, inst, ctx, jj),
                    children,
                )
        raise TypeError(f"not a derivation node: {node!r}")

    return rebuild(d, leaf, step)


def _builtin_witnesses() -> dict[BuiltinRule, RuleWitnesses]:
    """Presupposition witnesses for the eight built-in raw rules.

    Each conclusion/premise presupposition is a hypothesis outright, except
    the two sides of the equality-conversion conclusion, which convert.
    """
    c, h = EMPTY_CONTEXT, Hyp
    # conv-eq: metas A B s t; presups of s == t : B are B type, s : B, t : B
    ceq = BuiltinRule.CONV_EQ.rule
    mA = MetaApp(0, (), 0, ceq.arity[0].cls)
    mB = MetaApp(1, (), 0, ceq.arity[1].cls)
    ms = MetaApp(2, (), 0, ceq.arity[2].cls)
    mt = MetaApp(3, (), 0, ceq.arity[3].cls)
    s_in_B = derive.conv(c, mA, mB, ms, h(0), h(1), h(2), h(5))
    t_in_B = derive.conv(c, mA, mB, mt, h(0), h(1), h(3), h(5))
    return {
        BuiltinRule.EQUIV_TY_REFL: RuleWitnesses({0: h(0), 1: h(0)}, {}),
        BuiltinRule.EQUIV_TY_SYM: RuleWitnesses({0: h(1), 1: h(0)}, {(2, 0): h(0), (2, 1): h(1)}),
        BuiltinRule.EQUIV_TY_TRANS: RuleWitnesses(
            {0: h(0), 1: h(2)}, {(3, 0): h(0), (3, 1): h(1), (4, 0): h(1), (4, 1): h(2)}
        ),
        BuiltinRule.EQUIV_TM_REFL: RuleWitnesses({0: h(0), 1: h(1), 2: h(1)}, {(1, 0): h(0)}),
        BuiltinRule.EQUIV_TM_SYM: RuleWitnesses(
            {0: h(0), 1: h(2), 2: h(1)}, {(1, 0): h(0), (2, 0): h(0), (3, 0): h(0), (3, 1): h(1), (3, 2): h(2)}
        ),
        BuiltinRule.EQUIV_TM_TRANS: RuleWitnesses({0: h(0), 1: h(1), 2: h(3)}, {
            (1, 0): h(0), (2, 0): h(0), (3, 0): h(0),
            (4, 0): h(0), (4, 1): h(1), (4, 2): h(2), (5, 0): h(0), (5, 1): h(2), (5, 2): h(3),
        }),
        BuiltinRule.CONV_TM: RuleWitnesses({0: h(1)}, {(2, 0): h(0), (3, 0): h(0), (3, 1): h(1)}),
        BuiltinRule.CONV_EQ: RuleWitnesses({0: h(1), 1: s_in_B, 2: t_in_B}, {
            (2, 0): h(0), (3, 0): h(0), (4, 0): h(0), (4, 1): h(2), (4, 2): h(3), (5, 0): h(0), (5, 1): h(1),
        }),
    }

BUILTIN_WITNESSES = _builtin_witnesses()


def derive_presuppositions(
    theory: RawTypeTheory,
    d: TheoryDerivation,
    witnesses: TheoryWitnesses,
    hyp_presups: tuple[tuple[TheoryDerivation, ...], ...] | None = None,
) -> tuple[TheoryDerivation, ...]:
    """Derivations of every presupposition of d's conclusion.

    The results check over whatever ambient arity ``d`` checks over: each
    witness is instantiated by the node that cites its rule, so no ambient
    is passed.  A node's presuppositions are derived only when used: at the
    root, at the body of a substitution node whose own are used (for an
    equality substitution, only when it types a term), and at premise j of
    a rule node whose own are used, once, when a conclusion witness of the
    rule cites a presupposition of premise j.  Such a weak witness numbers
    those hypotheses after the premises, premise by premise.  So witnesses
    are needed only for the rules of the rule nodes reached, and
    ``MissingWitness`` is raised only there (no entry for a theory rule, or
    no conclusion witness in it) and at a reached hypothesis leaf when
    ``hyp_presups``, the presuppositions of each hypothesis, is None.  A
    witness citing a hypothesis beyond those raises ``FillerConclusionMismatch``.
    So the walk is its own, top-down: a post-order rebuild would visit every premise.
    """
    def go(node: TheoryDerivation) -> tuple[TheoryDerivation, ...]:
        match node:
            case Hyp(index=k):
                if hyp_presups is None:
                    raise MissingWitness("presuppositions of a hypothesis are not derivable")
                return hyp_presups[k]
            case VariableInst(children=children):
                return (children[0],)
            case SubstInst(judgement=jj, children=children):
                sub_presups = go(children[0])
                return tuple(
                    node._replace(judgement=pj, children=(sub_presups[p],) + children[1:])
                    for p, pj in enumerate(presuppositions(jj))
                )
            case EqSubstInst():
                return _eq_subst_presups(theory, node, go)
            case RuleInst(ref=ref, inst=inst, context=ctx, children=children):
                rule = theory.rule(ref)
                if isinstance(ref, int):
                    rw = witnesses.get(theory.rule_name(ref))
                    if rw is None:
                        raise MissingWitness(f"no presupposition witnesses for rule {theory.rule_name(ref)}")
                else:
                    rw = BUILTIN_WITNESSES[ref]
                derived: dict[int, tuple[TheoryDerivation, ...]] = {}

                def fill(leaf: Hyp) -> TheoryDerivation:
                    h = leaf.index
                    if 0 <= h < len(children):
                        return children[h]
                    k = h - len(children)
                    for j, premise in enumerate(rule.premises):
                        if 0 <= k < len(premise.boundary):  # a presupposition per boundary slot
                            if j not in derived:
                                derived[j] = go(children[j])
                            return derived[j][k]
                        k -= len(premise.boundary)
                    raise FillerConclusionMismatch(f"no filler for hypothesis {h}")

                out = []
                for p in range(len(rule.conclusion.boundary)):
                    w = rw.conclusion.get(p)
                    if w is None:
                        raise MissingWitness(f"missing conclusion presupposition witness {p}")
                    out.append(instantiate_derivation(theory, inst, ctx, w, fill))
                return tuple(out)
        raise TypeError(f"not a derivation node: {_node_name(theory, node)}")

    return go(d)


def _eq_subst_presups(theory, node, go):
    """Presuppositions at an equality-substitution node, per the theorem's proof."""
    kind = theory.kind
    f, g, tgt, K, jj = node.left, node.right, node.context, node.trivial, node.judgement
    children = node.children
    unchecked = [i for i in range(jj.context.scope) if i not in K]
    f_typ = tuple(children[1 + 3 * k] for k in range(len(unchecked)))
    g_typ = tuple(children[2 + 3 * k] for k in range(len(unchecked)))

    def subst_node(h, target_j, d_target, typings):
        return SubstInst(h, tgt, K, target_j, (d_target,) + tuple(typings))

    if jj.form is JudgementForm.IS_TY:
        d_fa = subst_node(f, jj, children[0], f_typ)
        d_ga = subst_node(g, jj, children[0], g_typ)
        return (d_fa, d_ga)
    # term judgement t : A
    a = jj.boundary[0]
    t = jj.head
    d_a = go(children[0])[0]
    ja = is_type(jj.context, a)
    d_fA = subst_node(f, ja, d_a, f_typ)
    d_gA = subst_node(g, ja, d_a, g_typ)
    d_ft = subst_node(f, jj, children[0], f_typ)
    d_gt = subst_node(g, jj, children[0], g_typ)
    d_eqA = EqSubstInst(f, g, tgt, K, ja, (d_a,) + tuple(children[1:]))
    fa = substitute_expr(kind, f, a)
    ga = substitute_expr(kind, g, a)
    gt = substitute_expr(kind, g, t)
    return (d_fA, d_ft, derive.conv_back(tgt, fa, ga, gt, d_fA, d_gA, d_gt, d_eqA))

