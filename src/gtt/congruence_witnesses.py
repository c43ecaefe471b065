"""Synthesis of presupposition witnesses for congruence rules.

Given a tight object rule R with its own presupposition witnesses, the
congruence rule inherits witnesses: the left and right premise blocks
reuse R's witnesses relabelled into the two metavariable copies, and the
equation premises combine the object hypotheses with context transports.
Wherever a right-hand term must have the left-hand type (the equation of
a term premise, and the conclusion's right-hand typing), it converts
along the equality of the two images of that type, taken from the triple
of R's own witness that the type is a type.  So the witnesses depend on
R and its witnesses alone, not on the rest of the theory.

The triple walks a witness derivation, sending each node to its left
image, its right image and the equality of the two.  It covers the node
kinds bundled witnesses produce: hypotheses, variables, instances of
theory rules and of the built-in rules, closed judgements weakened into
a context, and closing substitutions into metavariable-free targets.
Anything else raises MissingWitness: a raw theory file whose witnesses
need it ships its congruence witnesses by hand, and a spec that needs it
does not elaborate.
"""

from __future__ import annotations

from functools import partial

from .errors import MissingWitness, NotObjectRule
from . import derive
from .judgements import (
    EMPTY_CONTEXT, Judgement, JudgementForm, RawContext, instantiate_context, instantiate_judgement, is_type,
    presuppositions, ty_eq,
)
from .derivation_ops import generic_rule_instance, map_derivation_exprs
from .presuppositions import derive_presuppositions
from .rules import congruence_copies
from .syntax import Expr, MetaApp, Substitution, Var, instantiate_expr, substitute_expr
from .theories import (
    EqSubstInst,
    Hyp,
    RawTypeTheory,
    RuleInst,
    RuleWitnesses,
    SubstInst,
    TheoryDerivation,
    VariableInst,
)
from .tightness import check_tight


class _CongruenceEngine:
    def __init__(self, theory: RawTypeTheory, rule_index: int, base):
        self.theory = theory
        self.kind = theory.kind
        self.rule = theory.rule(rule_index)
        if not self.rule.is_object:
            raise NotObjectRule("congruence rules exist only for object rules")
        self.rule_index = rule_index
        self.base = base
        self.n = len(self.rule.premises)
        self.shift = len(self.rule.arity)
        self.objects = self.rule.object_premises()
        self.intro = check_tight(self.rule)  # the object premise introducing each argument
        # the two copies of the metavariable segment in the congruence rule
        left, right = congruence_copies(self.rule)
        self.l_expr = partial(instantiate_expr, self.kind, left)
        self.r_expr = partial(instantiate_expr, self.kind, right)

    # -- little helpers -------------------------------------------------------

    def eq_hyp(self, premise: int) -> int:
        return 2 * self.n + self.objects.index(premise)

    def left(self, d):
        return map_derivation_exprs(d, self.l_expr)

    def right(self, d):
        return map_derivation_exprs(d, self.r_expr, hyp=lambda k: k + self.n)

    # -- (left, right, equality) images of derivations over R's premises -------

    def triple(self, d: TheoryDerivation):
        """``d`` derives an object judgement: R's witnesses derive types, and
        the walk asks only for the equalities of object premises.  Its own
        walk, not a ``derivation_ops.rebuild``: a premise's equality is
        asked for lazily."""
        match d:
            case Hyp(index=k):
                return self.left(d), self.right(d), Hyp(self.eq_hyp(k))
            case VariableInst(context=ctx, pos=i, children=children):
                d_fa, _, _ = self.triple(children[0])
                lctx = ctx.map_exprs(self.l_expr)
                la = lctx.type_at(i)
                x = Var(i, lctx.scope)
                dvar = VariableInst(lctx, i, (d_fa,))
                return self.left(d), self.right(d), derive.refl_tm(lctx, la, x, d_fa, dvar)
            case SubstInst():
                return self._subst_triple(d)
            case RuleInst():
                return self._rule_triple(d)
        raise MissingWitness(f"congruence synthesis cannot handle {type(d).__name__} nodes")

    def _rule_triple(self, node):
        d_l, d_r = self.left(node), self.right(node)
        lctx, rctx, r_children = d_l.context, d_r.context, d_r.children
        if lctx != rctx:
            # carry each right child from the right copy of the node's context to its left copy
            moved = []
            for c, p in zip(r_children, self.theory.rule(node.ref).premises):
                j = instantiate_judgement(self.kind, d_r.inst, rctx, p)
                to_ctx = instantiate_context(self.kind, d_r.inst, lctx, p.context)
                moved.append(self._transport(c, j.context, to_ctx, j))
            r_children = tuple(moved)
        return d_l, d_r, derive.equality_image(
            self.theory, node, lctx, d_l.inst, d_r.inst, d_l.children, r_children,
            lambda k: self.triple(node.children[k])[2],
        )

    def _subst_triple(self, node):
        """A closing substitution node: chase the equality through both legs."""
        kind = self.kind
        f, tgt, K, jj = node.subst, node.context, node.trivial, node.judgement
        d_l, d_r = self.left(node), self.right(node)
        if jj.form is not JudgementForm.IS_TY:
            raise MissingWitness(
                "congruence synthesis supports substitution nodes into type judgements only"
            )
        lctx = tgt.map_exprs(self.l_expr)
        if jj.context.scope == 0:
            # a closed judgement weakened into the target: weaken its equality the same way
            closed = ty_eq(EMPTY_CONTEXT, self.l_expr(jj.head), self.r_expr(jj.head))
            return d_l, d_r, SubstInst(f, lctx, frozenset(), closed, (self.triple(node.children[0])[2],))
        if K or lctx != tgt.map_exprs(self.r_expr):
            raise MissingWitness(
                "congruence synthesis supports substitution nodes only with no checked "
                "positions and a metavariable-free target context"
            )
        src = jj.context
        lf, rf = f.map_exprs(self.l_expr), f.map_exprs(self.r_expr)
        d_j = node.children[0]
        typ = {i: node.children[1 + i] for i in range(src.scope)}
        tJ = self.triple(d_j)
        r_src = src.map_exprs(self.r_expr)

        typing_triples = {}
        mid_typings = {}
        for i in range(src.scope):
            t_i = self.triple(typ[i])
            lty = substitute_expr(kind, lf, self.l_expr(src.type_at(i)))
            mixed = substitute_expr(kind, lf, r_src.type_at(i))
            rty = substitute_expr(kind, rf, r_src.type_at(i))
            if mixed != rty:
                raise MissingWitness(
                    "congruence synthesis needs context entry types that close under "
                    "the substitution"
                )
            if lty == rty:
                typing_triples[i] = (t_i[0], t_i[1], t_i[2])
                mid_typings[i] = t_i[0]
                continue
            w_ty = self._presup_type_derivation(typ[i])
            tW = self.triple(w_ty)
            conv_f = derive.conv(lctx, lty, rty, lf(i), tW[0], tW[1], t_i[0], tW[2])
            t_at_lty = derive.conv_back(lctx, lty, rty, rf(i), tW[0], tW[1], t_i[1], tW[2])
            conv_e_l = derive.conv_eq(
                lctx, lty, rty, lf(i), rf(i), tW[0], tW[1], t_i[0], t_at_lty, t_i[2], tW[2]
            )
            typing_triples[i] = (conv_f, t_i[1], conv_e_l)
            mid_typings[i] = conv_f

        eq_j = ty_eq(src.map_exprs(self.l_expr), self.l_expr(jj.head), self.r_expr(jj.head))
        step1 = SubstInst(
            lf, lctx, frozenset(), eq_j,
            (tJ[2],) + tuple(self.left(typ[i]) for i in range(src.scope)),
        )
        r_j = jj.map_exprs(self.r_expr)
        step2 = EqSubstInst(
            lf, rf, lctx, frozenset(), r_j,
            (tJ[1],) + tuple(x for i in range(src.scope) for x in typing_triples[i]),
        )
        lh = substitute_expr(kind, lf, self.l_expr(jj.head))
        mid = substitute_expr(kind, lf, self.r_expr(jj.head))
        rh = substitute_expr(kind, rf, self.r_expr(jj.head))
        mid_typing = SubstInst(
            lf, lctx, frozenset(), r_j,
            (tJ[1],) + tuple(mid_typings[i] for i in range(src.scope)),
        )
        d_e = derive.trans_ty(lctx, lh, mid, rh, d_l, mid_typing, d_r, step1, step2)
        return d_l, d_r, d_e

    def _presup_type_derivation(self, d: TheoryDerivation) -> TheoryDerivation:
        """The derivation of the underlying-type presupposition of a typing."""
        hyp_presups = tuple(
            tuple(
                self.base.premises[(k, p)]
                for p in range(len(presuppositions(self.rule.premises[k])))
            )
            for k in range(self.n)
        )
        return derive_presuppositions(self.theory, d, {}, hyp_presups=hyp_presups)[0]

    # -- context transports ------------------------------------------------------

    def _entry_meta(self, e: Expr) -> int | None:
        if isinstance(e, MetaApp) and not e.args:
            return e.idx % self.shift
        return None

    def _entry_type(self, ctx: RawContext, e: Expr) -> TheoryDerivation:
        m = self._entry_meta(e)
        if m is None:
            raise MissingWitness(
                "congruence synthesis needs context entries that are closed metavariables"
            )
        left_copy = e.idx < self.shift
        intro = self.intro[m]
        hyp = Hyp(intro + (0 if left_copy else self.n))
        head = self.rule.premises[intro].head
        closed = is_type(EMPTY_CONTEXT, (self.l_expr if left_copy else self.r_expr)(head))
        return derive.weaken_closed(ctx, closed, hyp)

    def _entry_equality(self, ctx: RawContext, to_ty: Expr) -> TheoryDerivation:
        """The equality of an entry's left copy ``to_ty`` and its right copy,
        which ``_entry_type`` has accepted as a closed metavariable."""
        intro = self.intro[self._entry_meta(to_ty)]
        head = self.rule.premises[intro].head
        closed = ty_eq(EMPTY_CONTEXT, self.l_expr(head), self.r_expr(head))
        return derive.weaken_closed(ctx, closed, Hyp(self.eq_hyp(intro)))

    def _transport(self, d, from_ctx: RawContext, to_ctx: RawContext, judgement: Judgement):
        """Carry a derivation by the identity substitution from ``from_ctx``
        to ``to_ctx``: each entry of ``from_ctx`` is the right copy of the
        entry of ``to_ctx`` at its position, or the same entry, where the
        substitution acts trivially."""
        if from_ctx == to_ctx:
            return d
        scope = from_ctx.scope
        shared = frozenset(q for q in range(scope) if from_ctx.type_at(q) == to_ctx.type_at(q))
        typings = []
        for q in sorted(set(range(scope)) - shared):
            to_ty, from_ty = to_ctx.type_at(q), from_ctx.type_at(q)
            d_to = self._entry_type(to_ctx, to_ty)
            dvar = VariableInst(to_ctx, q, (d_to,))
            d_from, d_eq = self._entry_type(to_ctx, from_ty), self._entry_equality(to_ctx, to_ty)
            typings.append(derive.conv(to_ctx, to_ty, from_ty, Var(q, scope), d_to, d_from, dvar, d_eq))
        return SubstInst(Substitution.identity(scope), to_ctx, shared, judgement, (d,) + tuple(typings))

    # -- assembling the witnesses ----------------------------------------------------

    def build(self):
        premises, conclusion = {}, {}
        n = self.n
        for (i, p), w in self.base.premises.items():
            premises[(i, p)] = self.left(w)
            premises[(n + i, p)] = self.right(w)
        for pos, k in enumerate(self.objects):
            idx = 2 * n + pos
            premise = self.rule.premises[k]
            lctx = premise.context.map_exprs(self.l_expr)
            rctx = premise.context.map_exprs(self.r_expr)
            r_j = premise.map_exprs(self.r_expr)
            if premise.form is JudgementForm.IS_TY:
                premises[(idx, 0)] = Hyp(k)
                premises[(idx, 1)] = self._transport(Hyp(n + k), rctx, lctx, r_j)
            else:
                premises[(idx, 0)] = self.left(self.base.premises[(k, 0)])
                premises[(idx, 1)] = Hyp(k)
                moved = self._transport(Hyp(n + k), rctx, lctx, r_j)
                premises[(idx, 2)] = self._to_left_type(premise, self.base.premises[(k, 0)], moved)
        goal = self.rule.conclusion
        gen_l = generic_rule_instance(self.rule_index, self.rule)
        gen_r = generic_rule_instance(self.rule_index, self.rule, self.shift, n)
        if goal.form is JudgementForm.IS_TY:
            conclusion[0] = gen_l
            conclusion[1] = gen_r
        else:
            conclusion[0] = self.left(self.base.conclusion[0])
            conclusion[1] = gen_l
            conclusion[2] = self._to_left_type(goal, self.base.conclusion[0], gen_r)
        return RuleWitnesses(conclusion, premises)

    def _to_left_type(self, j: Judgement, d_type: TheoryDerivation, moved) -> TheoryDerivation:
        """Convert ``moved``, the right head of the term judgement ``j`` over
        the left context, to the left type, along the triple of ``d_type``,
        R's witness that j's type is a type."""
        a = j.boundary[0]
        la, ra = self.l_expr(a), self.r_expr(a)
        if la == ra:
            return moved
        lctx, rctx = j.context.map_exprs(self.l_expr), j.context.map_exprs(self.r_expr)
        d_la, d_ra, d_eq = self.triple(d_type)
        d_ra = self._transport(d_ra, rctx, lctx, is_type(rctx, ra))
        return derive.conv_back(lctx, la, ra, self.r_expr(j.head), d_la, d_ra, moved, d_eq)


def congruence_witnesses(theory: RawTypeTheory, rule_index: int, base):
    """Witnesses for the congruence rule of ``rule_index``, from R's own.

    Presupposition side-calls get no other rule's witnesses: R's witnesses
    cite only hypotheses, structural machinery and substitution closures.
    """
    return _CongruenceEngine(theory, rule_index, base).build()
