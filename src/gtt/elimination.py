"""Admissibility of renaming, substitution and equality substitution, and
elimination of substitution, as transformers of derivations.

Substitution and renaming take any derivation that checks: a substitution
node they meet is folded into the substitution they carry.  So elimination
of substitution is one ``derivation_ops.rebuild`` that sends each
substitution node to one substitution into its body."""

from __future__ import annotations

import operator

from . import derive
from .derivation_ops import _node_name, derivation_nodes, rebuild, require_substitutive
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
# Substitution, and so renaming, folds a substitution node it meets under k
# binders into f + id_k, and walks the node's body with the folded data in
# place of the root's; it eliminates an equality substitution node.  See the
# comment above ``eliminate_substitution``.  Equality substitution takes a
# substitution-free derivation.

def is_substitution_free(d: TheoryDerivation) -> bool:
    return not any(isinstance(n, (SubstInst, EqSubstInst)) for n in derivation_nodes(d))


def rename_derivation(
    theory: RawTypeTheory,
    r: Renaming,
    target: RawContext,
    d: TheoryDerivation,
    memo: WeakeningMemo | None = None,
) -> TheoryDerivation:
    """Rename a derivation along a type-respecting renaming; the result is substitution-free.

    A renaming is substitution by variables: this is ``substitute_derivation``
    along ``Substitution.of_renaming(r)`` with every position trivial and no
    typings.  The renaming respects types exactly when that substitution acts
    trivially at every position, so a renaming that does not respect the type
    at position i raises ``TrivialityViolated(i)``.  ``d`` must check in the
    theory; it may hold substitution nodes.  ``memo`` goes to ``substitute_derivation``.
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
    """Substitute into a derivation that checks in the theory, giving a substitution-free one.

    ``typings[i]`` must be a substitution-free derivation of
    target |- f(i) : f*(source type i) for every position i outside
    ``trivial``; positions inside it are only required to be trivial.  ``d``
    may hold substitution nodes: the walk folds them into f (see the comment
    above ``eliminate_substitution``).  Triviality is checked against the
    root's context only.  ``memo`` (``judgements.extend_context``) keeps the
    weakened types of each target context; without one, a fresh memo serves
    this call.  It walks on its own, not by ``derivation_ops.rebuild``: each
    child gets its binder count and target.
    """
    require_substitutive(theory)
    kind = theory.kind
    if memo is None:
        memo = {}
    if not isinstance(d, Hyp):
        _check_trivial_action(kind, f, target, d.context, trivial)

    def typing(s, i: int, k: int, tgt: RawContext):
        """None if s = (f, trivial, typings) under k binders keeps position i a
        variable, else the typing derivation of its image over ``tgt``."""
        f, trivial, typings = s
        side, root = kind.unsum(f.dst, k, i)
        if side == "right" or root in trivial:
            return None
        if root not in typings:
            raise MissingWitness(f"no typing derivation for position {i}")
        if k == 0:
            return typings[root]
        return rename_derivation(theory, inl_renaming(kind, f.src, k), tgt, typings[root], memo)

    def go(s, node, k: int, tgt: RawContext):
        f = s[0]
        match node:
            case Hyp():
                if f == Substitution.identity(f.src):
                    return node
                raise MissingWitness("cannot substitute into a hypothesis")
            case VariableInst(pos=i, children=children):
                if (typed := typing(s, i, k, tgt)) is not None:
                    return typed
                image = substitute_expr(kind, f, Var(i, f.dst + k), k)
                return VariableInst(tgt, image.pos, (go(s, children[0], k, tgt),))
            case RuleInst(ref=ref, inst=inst, children=children):
                new_inst = subst_act_inst(kind, f, inst, k)
                return RuleInst(ref, new_inst, tgt, tuple(
                    go(s, c, k + p.context.scope, instantiate_context(kind, new_inst, tgt, p.context, memo))
                    for c, p in zip(children, theory.rule(ref).premises)
                ))
            case EqSubstInst():
                return go(s, _eliminate(theory, node, memo), k, tgt)
        while isinstance(node, SubstInst):  # fold the chain, then walk its body once
            kids = iter(node.children[1:])
            images = {
                i: typing(s, node.subst(i).pos, k, tgt) if i in node.trivial else go(s, next(kids), k, tgt)
                for i in range(node.subst.dst)
            }
            table = tuple(substitute_expr(kind, f, e, k) for e in node.subst.table)
            f = Substitution(f.src + k, node.subst.dst, table)
            folded = frozenset(i for i, t in images.items() if t is None)
            s = f, folded, {i: t for i, t in images.items() if t is not None}
            k, node = 0, node.children[0]
        return go(s, node, k, tgt)

    return go((f, trivial, typings), d, 0, target)


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
        raise TypeError(f"substitution node in a substitution-free derivation: {_node_name(theory, node)}")

    return go(d, 0, target)


# --- elimination of substitution --------------------------------------------------
#
# Elimination is admissibility of substitution: each substitution node goes to
# one ``substitute_derivation`` call on its body, with its eliminated typing
# children as typings.  That walk folds each substitution node it meets into
# the substitution it carries, and a stacked chain in a loop before anything
# below it: the composition law of explicit substitutions, applied to
# derivations.  So a body is walked once, however many substitutions stack
# over it or enclose it.  Let the walk carry f with trivial set K and typings
# T, and meet under k binders a node over G = gamma + k that carries
# f' : G <- delta with K' and T' over its body.  The folded node carries
# h = (f + id_k) o f', the trivial set K'' of the i in K' whose variable
# f'(i) = x_j the walk keeps a variable (j bound, or over a position of K),
# and for each other i the typing the walk gives at x_j if i is in K', and
# the walk of T'(i) if not.
#
# If the node and the walk's input check, these meet the side conditions of
# the substitution rule for h.  Let A_i be the type of i in delta.  For i in
# K'', G(j) = f'*A_i, and the walk sends x_j to a variable x_l whose type is
# (f + id_k)*G(j) (see the comment above), so h(i) = x_l has type h*A_i.
# For i in K' outside K'', the walk's image of x_j derives h(i) : h*A_i the
# same way.  For i outside K', T'(i) derives G |- f'(i) : f'*A_i, and the
# walk carries it to h(i) : h*A_i.  So the folded node checks, and the walk
# goes on into its body with h at k = 0: by induction the fold runs down
# the chain.  Its output is the one bottom-up elimination gives, since
# substitution commutes with the renaming that lifts a typing under
# binders.  (Over a hypothesis the two differ only when h is the identity
# and a factor is not: bottom-up refuses, the fold returns the hypothesis,
# as one node with h would.)  An equality substitution node is eliminated,
# and the walk goes on into the result.
#
# Triviality is checked at the root of each call, never for a folded node.  Any
# other node whose children all come back as the same objects is returned as
# itself, so a substitution-free subtree is kept, object for object, with the
# sharing it had.  One weakening memo serves every substitution of one call.

def eliminate_substitution(theory: RawTypeTheory, d: TheoryDerivation) -> TheoryDerivation:
    """A substitution-free derivation of the same judgement, by one ``rebuild``
    that visits only the typing children of a substitution node (see the
    comment above).  ``d`` must check in the theory: then so does each
    rewritten subtree handed on."""
    return _eliminate(theory, d, {})


def _eliminate(theory: RawTypeTheory, d: TheoryDerivation, memo: WeakeningMemo) -> TheoryDerivation:
    def step(node, children):
        match node:
            case SubstInst(subst=f, context=tgt, trivial=K):
                typings = dict(zip((i for i in range(f.dst) if i not in K), children))
                return substitute_derivation(theory, f, tgt, K, typings, node.children[0], memo)
            case EqSubstInst(left=f, right=g, context=tgt, trivial=K):
                triples = dict(zip((i for i in range(f.dst) if i not in K), zip(*[iter(children[1:])] * 3)))
                return substitute_equal_derivation(theory, f, g, tgt, K, triples, children[0], memo)[2]
        return node if all(map(operator.is_, children, node.children)) else node._replace(children=children)

    return rebuild(d, lambda h: h, step, lambda n: n.children[1:] if isinstance(n, SubstInst) else n.children)
