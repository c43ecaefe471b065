"""Admissibility of renaming, substitution and equality substitution, and
elimination of substitution, as transformers of derivations."""

from __future__ import annotations

import operator

from . import derive
from .derivation_ops import _node_name, derivation_nodes, require_substitutive
from .errors import MissingWitness, ScopeMismatch, TrivialityViolated
from .judgements import RawContext, WeakeningMemo, instantiate_context
from .rules import acts_trivially
from .scopes import Renaming, Scope, ScopeKind, inl_renaming
from .syntax import Instantiation, Substitution, Var, substitute_expr
from .theories import EqSubstInst, Hyp, RawTypeTheory, RuleInst, SubstInst, TheoryDerivation, VariableInst


def compose_subst(kind: ScopeKind, g: Substitution, f: Substitution) -> Substitution:
    """g after f in the contravariant sense: (g o f)(k) = substitute(f, g(k)).

    With f : gamma -> delta and g : delta -> theta this is gamma -> theta.
    """
    if g.src != f.dst:
        raise ScopeMismatch(f"cannot compose {g.src}<-? with ?->{f.dst}")
    return Substitution(f.src, g.dst, tuple(substitute_expr(kind, f, g(k)) for k in range(g.dst)))


def subst_act_inst(kind: ScopeKind, f: Substitution, inst: Instantiation, k: Scope = 0) -> Instantiation:
    """f + id_k, for f : delta -> gamma, acting on an instantiation over gamma + k.

    Entry i sits under ``k`` plus its own binder, and the result is over
    delta + k.
    """
    if f.dst + k != inst.scope:
        raise ScopeMismatch(f"substitution into scope {f.dst} under {k}, instantiation over {inst.scope}")
    exprs = tuple(substitute_expr(kind, f, e, slot.binder + k) for e, slot in zip(inst.exprs, inst.arity))
    return Instantiation(inst.arity, f.src + k, exprs)


# --- admissibility of renaming and substitution ----------------------------------
#
# The two substitution transformers below follow the admissibility proofs of
# the paper with the root data held fixed, as ``substitute_expr`` does for
# expressions: the substitution f (or the pair f, g), the target context, the
# trivial set K and the typings stay as given, and the walk descends with a
# binder count k, acting as f + id_k on lookup.  A position p of a context at
# depth k is bound when ``kind.unsum(f.dst, k, p)`` says "right"; otherwise
# it stands for the root position it names.  No extended table, trivial set
# or typing copy is built: a typing is renamed by ``inl_renaming(f.src, k)``
# at the variable node that uses it.  Renaming is substitution by variables
# with every position trivial, so ``rename_derivation`` is one call of
# ``substitute_derivation``.
#
# The side conditions are checked once, at the root, against the root node's
# context (a hypothesis root has no context to check them against).
# Precondition: ``d`` checks in the theory (from any hypotheses).  Then they
# hold at every node by induction from the root.  A child's context is its
# parent's context extended by the instantiated premise context, and the
# child's target is the parent's target extended by the same premise context
# instantiated along f*I.  At a left position, both sides of a condition are
# the weakening of the parent's, since weakening commutes with substitution.
# At a bound position, the image is the bound variable itself, and its two
# types are (f + k)*(I(psi_p)) and (f*I)(psi_p), which are equal because
# instantiation commutes with substitution.  A variable node's child
# lives in the node's own context.  The kernel re-checks each output where it
# leaves the library: the CLI re-checks every derivation it prints.
#
# Equality substitution builds three images of each node: the f-image, the
# g-image and, for an object judgement, the (f == g)-image.  Under a binder
# premise the f-image and the equality of the child live over the target
# extended along f*I, the g-image over the target extended along g*I.  So the
# child is walked over the first for all three images and over the second for
# its g-image only.  A g-only walk builds the g-image of a rule node from the
# g-images of its children; at a variable whose type the target gives as its
# f-image it needs all three images of the variable's type derivation, to
# convert the variable to its g-image.  No binder premise is walked twice for
# all three images, so the work does not double with each binder level.
#
# ``eliminate_substitution`` hands each chain of stacked substitution nodes
# to ``substitute_derivation`` as one node; see the comment above it.

def is_substitution_free(d: TheoryDerivation) -> bool:
    return not any(isinstance(n, (SubstInst, EqSubstInst)) for n in derivation_nodes(d))


def _not_substitution_free(theory: RawTypeTheory, node) -> TypeError:
    return TypeError(f"substitution node in a substitution-free derivation: {_node_name(theory, node)}")


def rename_derivation(
    theory: RawTypeTheory,
    r: Renaming,
    target: RawContext,
    d: TheoryDerivation,
    memo: WeakeningMemo | None = None,
) -> TheoryDerivation:
    """Rename a substitution-free derivation along a type-respecting renaming.

    A renaming is substitution by variables: this is ``substitute_derivation``
    along ``Substitution.of_renaming(r)`` with every position trivial and no
    typings.  The renaming respects types exactly when that substitution acts
    trivially at every position, so a renaming that does not respect the type
    at position i raises ``TrivialityViolated(i)``.  ``d`` must check in the
    theory.  ``memo`` goes to ``substitute_derivation``.
    """
    return substitute_derivation(
        theory, Substitution.of_renaming(r), target, frozenset(range(r.src)), {}, d, memo
    )


def _check_trivial_action(kind, f, target, source, positions):
    for i in sorted(positions):
        if not acts_trivially(kind, f, target, source, i):
            raise TrivialityViolated(i)


def substitute_derivation(
    theory: RawTypeTheory,
    f: Substitution,
    target: RawContext,
    trivial: frozenset[int],
    typings: dict[int, TheoryDerivation],
    d: TheoryDerivation,
    memo: WeakeningMemo | None = None,
) -> TheoryDerivation:
    """Substitute into a substitution-free derivation, keeping it substitution-free.

    ``typings[i]`` must be a substitution-free derivation of
    target |- f(i) : f*(source type i) for every position i outside
    ``trivial``; positions inside it are only required to be trivial.  ``d``
    must check in the theory.  Triviality is checked against the root's
    context only; see the comment above for why it holds below.  ``memo``
    (``judgements.extend_context``) keeps the weakened types of each target
    context; without one, a fresh memo serves this call.  It walks on its own,
    not by ``derivation_ops.rebuild``: each child gets its binder count and target.
    """
    require_substitutive(theory)
    kind = theory.kind
    if memo is None:
        memo = {}
    if isinstance(d, (VariableInst, RuleInst)):
        _check_trivial_action(kind, f, target, d.context, trivial)

    def go(node, k: int, tgt: RawContext):
        match node:
            case Hyp():
                if f == Substitution.identity(f.src):
                    return node
                raise MissingWitness("cannot substitute into a hypothesis")
            case VariableInst(pos=i, children=children):
                side, root = kind.unsum(f.dst, k, i)
                if side == "right" or root in trivial:
                    image = substitute_expr(kind, f, Var(i, f.dst + k), k)
                    return VariableInst(tgt, image.pos, (go(children[0], k, tgt),))
                if root not in typings:
                    raise MissingWitness(f"no typing derivation for position {i}")
                if k == 0:
                    return typings[root]
                return rename_derivation(theory, inl_renaming(kind, f.src, k), tgt, typings[root], memo)
            case RuleInst(ref=ref, inst=inst, children=children):
                new_inst = subst_act_inst(kind, f, inst, k)
                return RuleInst(ref, new_inst, tgt, tuple(
                    go(c, k + p.context.scope, instantiate_context(kind, new_inst, tgt, p.context, memo))
                    for c, p in zip(children, theory.rule(ref).premises)
                ))
        raise _not_substitution_free(theory, node)

    return go(d, 0, target)


# --- admissibility of equality substitution --------------------------------------

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


def substitute_equal_derivation(
    theory: RawTypeTheory,
    f: Substitution,
    g: Substitution,
    target: RawContext,
    trivial: frozenset[int],
    triples: dict[int, tuple[TheoryDerivation, TheoryDerivation, TheoryDerivation]],
    d: TheoryDerivation,
    memo: WeakeningMemo | None = None,
) -> tuple[TheoryDerivation, TheoryDerivation, TheoryDerivation | None]:
    """Substitute two judgementally equal substitutions into a derivation.

    Returns substitution-free derivations of target |- f*J, target |- g*J,
    and, for object J, target |- (f == g)*J.  ``triples[i]`` holds the
    f-typing, g-typing, and equality derivations for each unchecked i.
    ``d`` must check in the theory.  Joint triviality is checked against
    the root's context only; see the comment above for why it holds below.
    ``memo`` is as for ``substitute_derivation``, and so is why it walks on its own.
    """
    require_substitutive(theory)
    kind = theory.kind
    if memo is None:
        memo = {}
    if isinstance(d, (VariableInst, RuleInst)):
        _check_joint_conditions(kind, f, g, target, d.context, trivial)

    def go(node, k: int, tgt: RawContext, only_g: bool = False):
        """The triple of images of ``node``; only its g-image if ``only_g``."""
        match node:
            case Hyp():
                raise MissingWitness("cannot substitute into a hypothesis")
            case VariableInst(context=ctx, pos=i, children=children):
                side, root = kind.unsum(f.dst, k, i)
                if side == "left" and root not in trivial:
                    if root not in triples:
                        raise MissingWitness(f"no typing triple for position {i}")
                    if k == 0:
                        return triples[root]
                    inl = inl_renaming(kind, f.src, k)
                    if only_g:
                        return None, rename_derivation(theory, inl, tgt, triples[root][1], memo), None
                    return tuple(rename_derivation(theory, inl, tgt, dv, memo) for dv in triples[root])
                j = substitute_expr(kind, f, Var(i, f.dst + k), k).pos
                fa = substitute_expr(kind, f, ctx.type_at(i), k)
                ga = substitute_expr(kind, g, ctx.type_at(i), k)
                x = Var(j, tgt.scope)
                if tgt.type_at(j) == fa:
                    d_fa, d_ga, d_ea = go(children[0], k, tgt)
                    dvar = VariableInst(tgt, j, (d_fa,))
                    d_g = derive.conv(tgt, fa, ga, x, d_fa, d_ga, dvar, d_ea)
                    if only_g:
                        return None, d_g, None
                    return dvar, d_g, derive.refl_tm(tgt, fa, x, d_fa, dvar)
                if only_g:
                    return None, VariableInst(tgt, j, (go(children[0], k, tgt, True)[1],)), None
                d_fa, d_ga, d_ea = go(children[0], k, tgt)
                dvar = VariableInst(tgt, j, (d_ga,))
                d_sym = derive.sym_ty(tgt, fa, ga, d_fa, d_ga, d_ea)
                d_f = derive.conv(tgt, ga, fa, x, d_ga, d_fa, dvar, d_sym)
                refl = derive.refl_tm(tgt, ga, x, d_ga, dvar)
                d_e = derive.conv_eq(tgt, ga, fa, x, x, d_ga, d_fa, dvar, dvar, refl, d_sym)
                return d_f, dvar, d_e
            case RuleInst(ref=ref, inst=inst, children=children):
                rule = theory.rule(ref)
                i_g = subst_act_inst(kind, g, inst, k)
                if only_g:
                    return None, RuleInst(ref, i_g, tgt, tuple(
                        go(c, k + p.context.scope, instantiate_context(kind, i_g, tgt, p.context, memo), True)[1]
                        for c, p in zip(children, rule.premises)
                    )), None
                i_f = subst_act_inst(kind, f, inst, k)
                f_children, g_children, eq_components = [], [], []
                for child, premise in zip(children, rule.premises):
                    psi = premise.context
                    d_f, d_g, d_e = go(child, k + psi.scope, instantiate_context(kind, i_f, tgt, psi, memo))
                    # under a binder the g-image of the premise lives over the
                    # g-target context: walk the child again, for its g-image only
                    if psi.scope:
                        d_g = go(child, k + psi.scope, instantiate_context(kind, i_g, tgt, psi, memo), True)[1]
                    f_children.append(d_f)
                    g_children.append(d_g)
                    eq_components.append(d_e)
                d_f = RuleInst(ref, i_f, tgt, tuple(f_children))
                d_g = RuleInst(ref, i_g, tgt, tuple(g_children))
                if not rule.conclusion.form.is_object:
                    return d_f, d_g, None
                eq = eq_components.__getitem__
                return d_f, d_g, derive.equality_image(theory, node, tgt, i_f, i_g, f_children, g_children, eq)
        raise _not_substitution_free(theory, node)

    return go(d, 0, target)


# --- elimination of substitution --------------------------------------------------
#
# A chain of stacked substitution nodes is folded into one node before
# anything below it is walked, so the body of the chain is walked once,
# however long the chain is: the composition law of explicit substitutions,
# applied to derivations.  Let the outer node carry f : target <- gamma with
# trivial set K and typings T, and its first child, the inner node, carry
# f' : gamma <- delta with K' and T' over the body d of delta |- J.  The
# folded node carries h = f*f' (``compose_subst(kind, f', f)``), the trivial
# set K'' = {i in K' : f'(i) = x_j with j in K} and, for each position i of
# delta outside K'', the typing
#
# - T(j), if i is in K' and f'(i) = x_j (so j is not in K);
# - f applied to the eliminated T'(i) by ``substitute_derivation``, if i is
#   not in K'.
#
# If both nodes check, these meet the side conditions of the substitution
# rule for h.  Let A_i be the type of i in delta.  For i in K'', f'(i) = x_j
# with gamma(j) = f'*A_i, and f(j) = x_l with target(l) = f*gamma(j); so
# h(i) = x_l and target(l) = f*f'*A_i = h*A_i.  For i in K' outside K'', T(j)
# derives target |- f(j) : f*gamma(j), that is target |- h(i) : h*A_i.  For
# i outside K', T'(i) derives gamma |- f'(i) : f'*A_i, and f carries it to
# target |- h(i) : h*A_i.  So the folded node is a substitution node over
# the inner node's body that checks, and by induction the fold runs down the
# whole chain.  Its output is the one bottom-up elimination gives: a variable
# of d sent to x_j with j outside K becomes T(j) either way, and substitution
# commutes with the renaming that lifts a typing under binders.  (Over a
# hypothesis the two differ only when h is the identity and a factor is not:
# bottom-up refuses, the fold returns the hypothesis, as one node with h
# would.)
#
# Outside the substitution nodes, a node whose children all come back as the
# same objects is returned as itself, so a substitution-free subtree is kept,
# object for object, with the sharing it had.  One weakening memo
# (``judgements.extend_context``) serves every substitution of one call.

def eliminate_substitution(theory: RawTypeTheory, d: TheoryDerivation) -> TheoryDerivation:
    """A substitution-free derivation of the same judgement.

    Folds each chain of stacked substitution nodes into one node (see the
    comment above) and walks its body once with substitute_derivation;
    equality substitution nodes go to substitute_equal_derivation.  Typing
    children are eliminated before they are used.  ``d`` must check in the
    theory: then so does each rewritten subtree handed on.  It walks on its own:
    ``derivation_ops.rebuild`` would walk the body of a k-long chain k times.
    """
    kind = theory.kind
    memo: WeakeningMemo = {}

    def typing_children(node, width: int) -> dict:
        """The eliminated typing children of a substitution node, ``width``
        per position outside its trivial set, keyed by that position."""
        kids = [go(c) for c in node.children[1:]]
        unchecked = [i for i in range(node.judgement.context.scope) if i not in node.trivial]
        if width == 1:
            return dict(zip(unchecked, kids))
        return {i: tuple(kids[width * k:width * k + width]) for k, i in enumerate(unchecked)}

    def go(node):
        match node:
            case Hyp():
                return node
            case SubstInst(subst=f, context=tgt, trivial=K):
                typings = typing_children(node, 1)
                body = node.children[0]
                while isinstance(body, SubstInst):
                    f_in, inner = body.subst, typing_children(body, 1)
                    folded = frozenset(i for i in body.trivial if f_in(i).pos in K)
                    typings = {
                        i: typings[f_in(i).pos] if i in body.trivial
                        else substitute_derivation(theory, f, tgt, K, typings, inner[i], memo)
                        for i in range(body.judgement.context.scope) if i not in folded
                    }
                    f, K, body = compose_subst(kind, f_in, f), folded, body.children[0]
                return substitute_derivation(theory, f, tgt, K, typings, go(body), memo)
            case EqSubstInst(left=f, right=g, context=tgt, trivial=K, children=children):
                triples = typing_children(node, 3)
                _, _, d_eq = substitute_equal_derivation(
                    theory, f, g, tgt, K, triples, go(children[0]), memo
                )
                return d_eq
        children = tuple(go(c) for c in node.children)
        if all(map(operator.is_, children, node.children)):
            return node
        return node._replace(children=children)

    return go(d)

