"""Reference transformers: every side condition at every node, and every
presupposition at every premise.

The textbook reading of the admissibility proofs for renaming, substitution
and equality substitution.  Each node re-checks that the renaming respects
types, or that the substitutions act (jointly) trivially on the trivial
set, for every position of the current context.  Under each binder it
builds the extended renaming or substitution table, the extended trivial
set, and a renamed copy of every typing.  Renaming has a walk of its own,
over the tables of ``naive``.  Equality substitution walks every binder
premise twice for all three images.  Elimination of substitution rewrites
each substitution node after its children, so a chain of k stacked nodes
walks its body k times.  The presuppositions theorem derives the
presuppositions of every premise of every rule node it reaches and grafts
them after the premises, whether or not a witness cites them.

``metatheory`` carries the root data with a binder count instead, checks
the side conditions once, at the root, renames by substituting variables,
folds a chain of substitution nodes into one before walking it, and
derives the presuppositions of a premise only when a witness cites them.
Its outputs must be ``==`` to these, and its errors equal in class and
text where the reference's come from what it uses (a missing witness below
a premise that nothing cites raises here only).
``reference_transformers`` swaps these functions into every ``gtt`` module
that holds them (``metatheory`` re-exports the modules that define them), so
that ``eliminate_substitution``, ``invert`` and ``unique_typing_acceptable``
can be run on both.

The reference presuppositions graft with recursive walks of their own, kept
at the end as they were before ``derivation_ops.rebuild`` replaced them:
``graft``, ``map_derivation``, ``instantiate_derivation``,
``map_derivation_exprs`` and ``apply_theory_map_derivation``, one call per
node occurrence and no memo.
``test_rebuild`` compares the rebuilt ones with them, so the oracle runs
none of the code it checks.
"""

from __future__ import annotations

import contextlib
import sys
from functools import partial

from gtt import derive, metatheory
from gtt.derivation_ops import map_node
from gtt.errors import (
    FillerConclusionMismatch, IndexOutOfRange, MissingWitness, NotCongruous, NotObjectRule, TrivialityViolated,
)
from gtt.judgements import instantiate_context, instantiate_judgement, presuppositions
from gtt.maps import apply_syntax_map
from gtt.metatheory import (
    BUILTIN_WITNESSES, concat_inst, find_congruence, inst_act_inst, inst_act_subst, require_substitutive,
    subst_act_inst,
)
from gtt.presuppositions import _eq_subst_presups
from gtt.rules import BuiltinRule, acts_trivially
from gtt.scopes import Renaming, inl_renaming
from gtt.syntax import (
    Instantiation,
    MetaApp,
    Substitution,
    Var,
    extend_substitution,
    instantiate_expr,
    substitute_expr,
)
from gtt.theories import EqSubstInst, Hyp, RuleInst, SubstInst, VariableInst
from naive import identity_renaming, naive_extend_renaming, naive_rename


@contextlib.contextmanager
def reference_transformers():
    """Run the transformers with the reference ones in place: each swapped
    name is replaced in every ``gtt`` module that holds the original."""
    modules = [m for n, m in list(sys.modules.items()) if n == "gtt" or n.startswith("gtt.")]
    saved = []
    for name, fn in SWAPPED.items():
        original = getattr(metatheory, name)
        for module in modules:
            if getattr(module, name, None) is original:
                saved.append((module, name, original))
                setattr(module, name, fn)
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def _rename_inst(kind, r: Renaming, inst: Instantiation) -> Instantiation:
    exprs = tuple(naive_rename(kind, r, e, a.binder) for e, a in zip(inst.exprs, inst.arity))
    return Instantiation(inst.arity, r.dst, exprs)


def _check_type_respecting(kind, r, src, dst) -> None:
    # respecting the type at i is acting trivially there, as a substitution
    for i in range(src.scope):
        if dst.type_at(r(i)) != naive_rename(kind, r, src.type_at(i)):
            raise TrivialityViolated(i)


def rename_derivation(theory, r, target, d):
    require_substitutive(theory)
    kind = theory.kind

    def go(node, rn, tgt):
        match node:
            case Hyp():
                if rn == identity_renaming(rn.src):
                    return node
                raise MissingWitness("cannot substitute into a hypothesis")
            case VariableInst(context=ctx, pos=i, children=children):
                _check_type_respecting(kind, rn, ctx, tgt)
                return VariableInst(tgt, rn(i), (go(children[0], rn, tgt),))
            case RuleInst(ref=ref, inst=inst, context=ctx, children=children):
                rule = theory.rule(ref)
                _check_type_respecting(kind, rn, ctx, tgt)
                new_inst = _rename_inst(kind, rn, inst)
                new_children = []
                for j, premise in enumerate(rule.premises):
                    psi = premise.context.scope
                    child_tgt = instantiate_context(kind, new_inst, tgt, premise.context)
                    child_rn = naive_extend_renaming(kind, rn, psi)
                    new_children.append(go(children[j], child_rn, child_tgt))
                return RuleInst(ref, new_inst, tgt, tuple(new_children))
        raise TypeError(f"substitution node in a substitution-free derivation: {node!r}")

    return go(d, r, target)


def _check_trivial_action(kind, f, target, source, positions):
    for i in sorted(positions):
        if not acts_trivially(kind, f, target, source, i):
            raise TrivialityViolated(i)


def substitute_derivation(theory, f, target, trivial, typings, d):
    require_substitutive(theory)
    kind = theory.kind

    def go(node, fs, tgt, K, typ):
        match node:
            case Hyp():
                if fs == Substitution.identity(fs.src):
                    return node
                raise MissingWitness("cannot substitute into a hypothesis")
            case VariableInst(context=ctx, pos=i, children=children):
                _check_trivial_action(kind, fs, tgt, ctx, K)
                if i in K:
                    image = fs(i)
                    return VariableInst(tgt, image.pos, (go(children[0], fs, tgt, K, typ),))
                if i not in typ:
                    raise MissingWitness(f"no typing derivation for position {i}")
                return typ[i]
            case RuleInst(ref=ref, inst=inst, context=ctx, children=children):
                rule = theory.rule(ref)
                _check_trivial_action(kind, fs, tgt, ctx, K)
                new_inst = subst_act_inst(kind, fs, inst)
                new_children = []
                for j, premise in enumerate(rule.premises):
                    psi = premise.context.scope
                    child_tgt = instantiate_context(kind, new_inst, tgt, premise.context)
                    child_f = extend_substitution(kind, fs, psi)
                    child_K = frozenset(kind.inl(fs.dst, psi, i) for i in K) | frozenset(
                        kind.inr(fs.dst, psi, p) for p in range(psi)
                    )
                    child_typ = {
                        kind.inl(fs.dst, psi, i): rename_derivation(
                            theory, inl_renaming(kind, fs.src, psi), child_tgt, dv
                        )
                        for i, dv in typ.items()
                    } if psi else dict(typ)
                    new_children.append(go(children[j], child_f, child_tgt, child_K, child_typ))
                return RuleInst(ref, new_inst, tgt, tuple(new_children))
        raise TypeError(f"substitution node in a substitution-free derivation: {node!r}")

    return go(d, f, target, trivial, dict(typings))


def _check_joint_conditions(kind, f, g, target, source, K):
    for i in sorted(K):
        e1, e2 = f(i), g(i)
        if not (isinstance(e1, Var) and isinstance(e2, Var) and e1.pos == e2.pos):
            raise TrivialityViolated(i, "(jointly)")
        ty = source.type_at(i)
        fi = substitute_expr(kind, f, ty)
        gi = substitute_expr(kind, g, ty)
        if target.type_at(e1.pos) not in (fi, gi):
            raise TrivialityViolated(i, "(jointly)")


def substitute_equal_derivation(theory, f, g, target, trivial, triples, d):
    require_substitutive(theory)
    kind = theory.kind

    def cong_index(r):
        j = find_congruence(theory, r)
        if j is None:
            raise NotCongruous(f"no congruence rule for {theory.rule_name(r)}")
        return j

    def go(node, fs, gs, tgt, K, tris):
        match node:
            case Hyp():
                raise MissingWitness("cannot substitute into a hypothesis")
            case VariableInst(context=ctx, pos=i, children=children):
                _check_joint_conditions(kind, fs, gs, tgt, ctx, K)
                if i not in K:
                    if i not in tris:
                        raise MissingWitness(f"no typing triple for position {i}")
                    return tris[i]
                d_fa, d_ga, d_ea = go(children[0], fs, gs, tgt, K, tris)
                j = fs(i).pos
                fa = substitute_expr(kind, fs, ctx.type_at(i))
                ga = substitute_expr(kind, gs, ctx.type_at(i))
                x = Var(j, tgt.scope)
                if tgt.type_at(j) == fa:
                    dvar = VariableInst(tgt, j, (d_fa,))
                    d_f = dvar
                    d_g = derive.conv(tgt, fa, ga, x, d_fa, d_ga, dvar, d_ea)
                    d_e = derive.refl_tm(tgt, fa, x, d_fa, dvar)
                else:
                    dvar = VariableInst(tgt, j, (d_ga,))
                    d_sym = derive.sym_ty(tgt, fa, ga, d_fa, d_ga, d_ea)
                    d_f = derive.conv(tgt, ga, fa, x, d_ga, d_fa, dvar, d_sym)
                    d_g = dvar
                    refl = derive.refl_tm(tgt, ga, x, d_ga, dvar)
                    d_e = derive.conv_eq(tgt, ga, fa, x, x, d_ga, d_fa, dvar, dvar, refl, d_sym)
                return d_f, d_g, d_e
            case RuleInst(ref=ref, inst=inst, context=ctx, children=children):
                rule = theory.rule(ref)
                _check_joint_conditions(kind, fs, gs, tgt, ctx, K)
                i_f = subst_act_inst(kind, fs, inst)
                i_g = subst_act_inst(kind, gs, inst)
                f_children, g_children, eq_components = [], [], []
                for j, premise in enumerate(rule.premises):
                    psi = premise.context.scope
                    if psi == 0:
                        tri = go(children[j], fs, gs, tgt, K, tris)
                        f_children.append(tri[0])
                        g_children.append(tri[1])
                        eq_components.append(tri[2])
                        continue
                    child_f = extend_substitution(kind, fs, psi)
                    child_g = extend_substitution(kind, gs, psi)
                    child_K = frozenset(kind.inl(fs.dst, psi, i) for i in K) | frozenset(
                        kind.inr(fs.dst, psi, p) for p in range(psi)
                    )
                    tgt_f = instantiate_context(kind, i_f, tgt, premise.context)
                    tgt_g = instantiate_context(kind, i_g, tgt, premise.context)

                    def lift(tris_ctx, dv):
                        return rename_derivation(theory, inl_renaming(kind, fs.src, psi), tris_ctx, dv)

                    tris_f = {
                        kind.inl(fs.dst, psi, i): tuple(lift(tgt_f, dv) for dv in t3)
                        for i, t3 in tris.items()
                    }
                    tris_g = {
                        kind.inl(fs.dst, psi, i): tuple(lift(tgt_g, dv) for dv in t3)
                        for i, t3 in tris.items()
                    }
                    tri_f = go(children[j], child_f, child_g, tgt_f, child_K, tris_f)
                    tri_g = go(children[j], child_f, child_g, tgt_g, child_K, tris_g)
                    f_children.append(tri_f[0])
                    g_children.append(tri_g[1])
                    eq_components.append(tri_f[2])
                d_f = RuleInst(ref, i_f, tgt, tuple(f_children))
                d_g = RuleInst(ref, i_g, tgt, tuple(g_children))
                if not rule.conclusion.form.is_object:
                    return d_f, d_g, None
                d_e = _equal_image(theory, node, rule, inst, tgt, i_f, i_g,
                                   f_children, g_children, eq_components, cong_index, fs, gs)
                return d_f, d_g, d_e
        raise TypeError(f"substitution node in a substitution-free derivation: {node!r}")

    return go(d, f, g, target, trivial, dict(triples))


def _equal_image(theory, node, rule, inst, tgt, i_f, i_g,
                 f_children, g_children, eq_components, cong_index, fs, gs):
    kind = theory.kind
    match node.ref:
        case int() as r:
            children = list(f_children) + list(g_children)
            for k in rule.object_premises():
                children.append(eq_components[k])
            return RuleInst(cong_index(r), concat_inst(i_f, i_g), tgt, tuple(children))
        case BuiltinRule.CONV_TM:
            t0 = (f_children[0], g_children[0], eq_components[0])
            t1 = (f_children[1], g_children[1], eq_components[1])
            t2 = (f_children[2], g_children[2], eq_components[2])
            t3 = (f_children[3], g_children[3], None)
            fA = substitute_expr(kind, fs, instantiate_expr(kind, inst, _conv_meta(0)))
            gA = substitute_expr(kind, gs, instantiate_expr(kind, inst, _conv_meta(0)))
            fB = substitute_expr(kind, fs, instantiate_expr(kind, inst, _conv_meta(1)))
            fsx = substitute_expr(kind, fs, instantiate_expr(kind, inst, _conv_meta(2)))
            gsx = substitute_expr(kind, gs, instantiate_expr(kind, inst, _conv_meta(2)))
            sym = derive.sym_ty(tgt, fA, gA, t0[0], t0[1], t0[2])
            gs_at_fA = derive.conv(tgt, gA, fA, gsx, t0[1], t0[0], t2[1], sym)
            return derive.conv_eq(
                tgt, fA, fB, fsx, gsx, t0[0], t1[0], t2[0], gs_at_fA, t2[2], t3[0]
            )
    raise NotObjectRule(f"no equality image for node {node!r}")


def _conv_meta(i: int) -> MetaApp:
    return MetaApp(i, (), 0, BuiltinRule.CONV_TM.rule.arity[i].cls)


def eliminate_substitution(theory, d):
    """Bottom-up: each substitution node is rewritten after its children."""

    def go(node):
        match node:
            case Hyp():
                return node
            case SubstInst(subst=f, context=tgt, trivial=K, judgement=jj, children=children):
                new_children = [go(c) for c in children]
                unchecked = [i for i in range(jj.context.scope) if i not in K]
                typings = {i: new_children[1 + k] for k, i in enumerate(unchecked)}
                return substitute_derivation(theory, f, tgt, K, typings, new_children[0])
            case EqSubstInst(left=f, right=g, context=tgt, trivial=K, judgement=jj, children=children):
                new_children = [go(c) for c in children]
                unchecked = [i for i in range(jj.context.scope) if i not in K]
                triples = {
                    i: (new_children[1 + 3 * k], new_children[2 + 3 * k], new_children[3 + 3 * k])
                    for k, i in enumerate(unchecked)
                }
                return substitute_equal_derivation(theory, f, g, tgt, K, triples, new_children[0])[2]
        return node._replace(children=tuple(go(c) for c in node.children))

    return go(d)


def derive_presuppositions(theory, d, witnesses, hyp_presups=None):
    """Eager: every premise's presuppositions are derived, used or not."""

    def go(node):
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
                fillers = list(children)
                for j, premise in enumerate(rule.premises):
                    fillers.extend(go(children[j]) if presuppositions(premise) else ())
                out = []
                for p in range(len(presuppositions(rule.conclusion))):
                    w = rw.conclusion.get(p)
                    if w is None:
                        raise MissingWitness(f"missing conclusion presupposition witness {p}")
                    out.append(graft(instantiate_derivation(theory, inst, ctx, w), tuple(fillers)))
                return tuple(out)
        raise TypeError(f"not a derivation node: {node!r}")

    return go(d)


# --- the recursive derivation walks -------------------------------------------------
#
# ``graft`` (a walk with the leaf map ``grafting`` of ``presuppositions``),
# the map of closure systems (``test_foundations.map_derivation``),
# ``instantiate_derivation`` of ``presuppositions``, ``map_derivation_exprs``
# of ``derivation_ops`` and ``apply_theory_map_derivation`` of ``maps`` as
# each once recursed on the Python stack: one call per node, no memo, every
# occurrence rebuilt.  The reference transformers above graft with these,
# and the rebuilds of ``derivation_ops.rebuild`` must agree with them node
# for node.

def graft(outer, fillers):
    """Replace each hypothesis leaf of ``outer`` by the corresponding filler.

    If ``outer`` derives c from H and filler h derives H[h] from H', the
    result derives c from H'.  ``fillers`` is a tuple, or a function of h
    that builds filler h when a leaf cites it.  Any tree whose leaves are
    Hyp and whose other nodes have ``children`` and ``_replace`` grafts:
    derivations over a closure system and the typed derivations of
    ``theories`` alike.
    Conclusion agreement between fillers and hypotheses is the caller's
    obligation; checking the result will catch violations.
    """
    if isinstance(outer, Hyp):
        k = outer.index
        if callable(fillers):
            return fillers(k)
        if not 0 <= k < len(fillers):
            raise FillerConclusionMismatch(f"no filler for hypothesis {k}")
        return fillers[k]
    return outer._replace(children=tuple(graft(c, fillers) for c in outer.children))


def map_derivation(rule_images, d):
    """Push ``d``, a derivation over a closure system whose nodes cite a rule
    index as ``rule``, along a map of closure systems.

    ``rule_images[r]`` must be a derivation, over the target system, of the
    image of rule r's conclusion from the images of its premises (premise i
    appearing as hypothesis i).  Hypothesis leaves are kept.
    """
    if isinstance(d, Hyp):
        return Hyp(d.index)
    if not 0 <= d.rule < len(rule_images):
        raise IndexOutOfRange(f"rule {d.rule} of {len(rule_images)}")
    return graft(rule_images[d.rule], tuple(map_derivation(rule_images, c) for c in d.children))


def instantiate_derivation(
    theory: RawTypeTheory,
    inst: Instantiation,
    ctx: RawContext,
    d: TheoryDerivation,
) -> TheoryDerivation:
    """Push a derivation over the extension by ``inst.arity`` down to the base.

    ``d`` must check over the theory at ambient ``inst.arity``; the result
    checks over the ambient the entries of ``inst`` are written in, with the
    instantiated conclusion.  Under strict scopes every node maps to a node
    of the same kind, so the tree shape is preserved.
    """
    kind = theory.kind
    gamma = inst.scope

    def inl_set(sigma: int) -> frozenset[int]:
        return frozenset(kind.inl(gamma, sigma, i) for i in range(gamma))

    def go(node: TheoryDerivation) -> TheoryDerivation:
        if isinstance(node, Hyp):
            return node
        children = tuple(go(c) for c in node.children)
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
                sigma = jj.context.scope
                return SubstInst(
                    inst_act_subst(kind, inst, f),
                    instantiate_context(kind, inst, ctx, tgt),
                    inl_set(sigma) | frozenset(kind.inr(gamma, sigma, i) for i in K),
                    instantiate_judgement(kind, inst, ctx, jj),
                    children,
                )
            case EqSubstInst(left=f, right=g, context=tgt, trivial=K, judgement=jj):
                sigma = jj.context.scope
                return EqSubstInst(
                    inst_act_subst(kind, inst, f),
                    inst_act_subst(kind, inst, g),
                    instantiate_context(kind, inst, ctx, tgt),
                    inl_set(sigma) | frozenset(kind.inr(gamma, sigma, i) for i in K),
                    instantiate_judgement(kind, inst, ctx, jj),
                    children,
                )
        raise TypeError(f"not a derivation node: {node!r}")

    return go(d)


def map_derivation_exprs(
    d: TheoryDerivation,
    fn: Callable[[Expr], Expr],
    hyp: Callable[[int], int] | None = None,
) -> TheoryDerivation:
    """The same tree with ``fn`` applied to every expression of every node.

    ``fn`` must preserve scopes and classes.  ``hyp`` renumbers hypotheses
    (unchanged when None).
    """

    def go(node: TheoryDerivation) -> TheoryDerivation:
        if isinstance(node, Hyp):
            return node if hyp is None else Hyp(hyp(node.index))
        return map_node(node, fn, children=tuple(go(c) for c in node.children))

    return go(d)


def apply_theory_map_derivation(f: RawTheoryMap, d: TheoryDerivation) -> TheoryDerivation:
    """Push a derivation along a theory map: an instance of a theory rule
    maps to the stored derived rule with mapped children grafted at its
    hypotheses, every other node to a node of the same kind."""
    fn = partial(apply_syntax_map, f.syntax)

    def go(node):
        match node:
            case Hyp():
                return node
            case RuleInst(ref=int() as r, inst=inst, context=ctx, children=children):
                if r not in f.rule_derivations:
                    raise MissingWitness(
                        f"theory map has no derivation for rule {f.src.rule_name(r)}"
                    )
                stored = f.rule_derivations[r]
                lowered = instantiate_derivation(f.dst, inst.map_exprs(fn), ctx.map_exprs(fn), stored)
                return graft(lowered, tuple(go(c) for c in children))
        return map_node(node, fn, children=tuple(go(c) for c in node.children))

    return go(d)


SWAPPED = {
    "rename_derivation": rename_derivation,
    "substitute_derivation": substitute_derivation,
    "substitute_equal_derivation": substitute_equal_derivation,
    "eliminate_substitution": eliminate_substitution,
    "derive_presuppositions": derive_presuppositions,
}
