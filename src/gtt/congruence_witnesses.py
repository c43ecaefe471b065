"""Synthesis of presupposition witnesses for congruence rules.

Given a tight object rule R with its own presupposition witnesses, the
congruence rule inherits witnesses: the left and right premise blocks
reuse R's witnesses relabelled into the two metavariable copies, the
equation premises combine the object hypotheses with context transports,
and the conclusion's right-hand typing converts along a synthesised
equality of the two images of the conclusion type.

The equality synthesis walks R's own witness derivations, sending each
node to its congruence counterpart.  It covers the node kinds bundled
witnesses produce: hypotheses, variables, instances of theory rules and
of the built-in rules, and closing substitutions into metavariable-free
targets.  Anything else raises MissingWitness, so theory files can
ship hand-written congruence witnesses instead.
"""

from __future__ import annotations

from functools import partial

from .errors import MissingWitness
from . import derive
from .judgements import (
    EMPTY_CONTEXT,
    Judgement,
    JudgementForm,
    RawContext,
    is_type,
    presuppositions,
    ty_eq,
)
from .derivation_ops import concat_inst, find_congruence, generic_rule_instance, map_derivation_exprs
from .presuppositions import derive_presuppositions
from .rules import congruence_copies, congruence_rule, instantiate_rule
from .syntax import (
    Expr,
    Instantiation,
    MetaApp,
    Substitution,
    SymApp,
    Var,
    instantiate_expr,
    substitute_expr,
)
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
from .tightness import check_tight, theory_tightness


class _CongruenceEngine:
    def __init__(self, theory: RawTypeTheory, rule_index: int, base):
        self.theory = theory
        self.kind = theory.kind
        self.rule = theory.rule(rule_index)
        self.rule_index = rule_index
        self.base = base
        self.n = len(self.rule.premises)
        self.shift = len(self.rule.arity)
        self.objects = self.rule.object_premises()
        self.tight = check_tight(self.rule)
        self.cong = congruence_rule(theory.kind, self.rule)
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

    def find_hyp(self, judgement: Judgement) -> TheoryDerivation:
        for k, p in enumerate(self.cong.premises):
            if p == judgement:
                return Hyp(k)
        raise MissingWitness(f"no congruence hypothesis matches {judgement!r}")

    # -- (left, right, equality) images of derivations over R's premises -------

    def triple(self, d: TheoryDerivation):
        """Its own walk, not a ``derivation_ops.rebuild``: a premise's equality is asked for lazily."""
        match d:
            case Hyp(index=k):
                eq = Hyp(self.eq_hyp(k)) if self.rule.premises[k].is_object else None
                return self.left(d), self.right(d), eq
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
        if not self.theory.rule(node.ref).conclusion.is_object:
            return d_l, d_r, None
        return d_l, d_r, derive.equality_image(
            self.theory, node, d_l.context, d_l.inst, d_r.inst, d_l.children, d_r.children,
            lambda k: self.triple(node.children[k])[2],
        )

    def _subst_triple(self, node):
        """A closing substitution node: chase the equality through both legs."""
        kind = self.kind
        f, tgt, K, jj = node.subst, node.context, node.trivial, node.judgement
        d_l, d_r = self.left(node), self.right(node)
        if not jj.is_object:
            return d_l, d_r, None
        if jj.form is not JudgementForm.IS_TY:
            raise MissingWitness(
                "congruence synthesis supports substitution nodes into type judgements only"
            )
        if K or tgt.map_exprs(self.l_expr) != tgt.map_exprs(self.r_expr):
            raise MissingWitness(
                "congruence synthesis supports substitution nodes only with no checked "
                "positions and a metavariable-free target context"
            )
        lctx = tgt.map_exprs(self.l_expr)
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
            sym = derive.sym_ty(lctx, lty, rty, tW[0], tW[1], tW[2])
            conv_f = derive.conv(lctx, lty, rty, lf(i), tW[0], tW[1], t_i[0], tW[2])
            t_at_lty = derive.conv(lctx, rty, lty, rf(i), tW[1], tW[0], t_i[1], sym)
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
        left_copy = isinstance(e, MetaApp) and e.idx < self.shift
        intro = self.tight.premise_of_arg[m]
        hyp = Hyp(intro + (0 if left_copy else self.n))
        head = self.rule.premises[intro].head
        closed = is_type(EMPTY_CONTEXT, (self.l_expr if left_copy else self.r_expr)(head))
        return derive.weaken_closed(ctx, closed, hyp)

    def _entry_equality(self, ctx: RawContext, to_ty: Expr, from_ty: Expr) -> TheoryDerivation:
        m, m2 = self._entry_meta(to_ty), self._entry_meta(from_ty)
        if m is None or m != m2:
            raise MissingWitness("congruence synthesis needs matching closed metavariable entries")
        intro = self.tight.premise_of_arg[m]
        head = self.rule.premises[intro].head
        closed = ty_eq(EMPTY_CONTEXT, self.l_expr(head), self.r_expr(head))
        return derive.weaken_closed(ctx, closed, Hyp(self.eq_hyp(intro)))

    def _transport(self, d, from_ctx: RawContext, to_ctx: RawContext, judgement: Judgement):
        """Carry a derivation between equal-scope contexts with judgementally
        equal entries, by the identity substitution."""
        scope = from_ctx.scope
        if scope == 0 or from_ctx == to_ctx:
            return d
        f = Substitution.identity(scope)
        typings = []
        for q in range(scope):
            to_ty = to_ctx.type_at(q)
            from_ty = from_ctx.type_at(q)
            d_to = self._entry_type(to_ctx, to_ty)
            x = Var(q, scope)
            dvar = VariableInst(to_ctx, q, (d_to,))
            if from_ty == to_ty:
                typings.append(dvar)
                continue
            d_from = self._entry_type(to_ctx, from_ty)
            d_eq = self._entry_equality(to_ctx, to_ty, from_ty)
            typings.append(derive.conv(to_ctx, to_ty, from_ty, x, d_to, d_from, dvar, d_eq))
        return SubstInst(f, to_ctx, frozenset(), judgement, (d,) + tuple(typings))

    # -- the equality of the two images of a boundary type -------------------------

    def _boundary_equality(self, lctx: RawContext, a: Expr) -> TheoryDerivation:
        la, ra = self.l_expr(a), self.r_expr(a)
        if isinstance(a, MetaApp):
            intro = self.tight.premise_of_arg[a.idx]
            generic = self.rule.premises[intro].head
            intro_lctx = self.rule.premises[intro].context.map_exprs(self.l_expr)
            if a == generic and intro_lctx == lctx:
                return Hyp(self.eq_hyp(intro))
            if not a.args and self.rule.premises[intro].context.scope == 0:
                closed = ty_eq(EMPTY_CONTEXT, self.l_expr(generic), self.r_expr(generic))
                return derive.weaken_closed(lctx, closed, Hyp(self.eq_hyp(intro)))
        if isinstance(a, SymApp):
            beta = theory_tightness(self.theory)
            cidx = find_congruence(self.theory, beta[a.sym])
            if cidx is not None:
                arity = self.theory.signature.symbol(a.sym).arity
                inst = concat_inst(
                    Instantiation(arity, lctx.scope, tuple(self.l_expr(x) for x in a.args)),
                    Instantiation(arity, lctx.scope, tuple(self.r_expr(x) for x in a.args)),
                )
                closure = instantiate_rule(self.kind, inst, lctx, self.theory.rule(cidx))
                if closure.conclusion == ty_eq(lctx, la, ra):
                    children = tuple(self.find_hyp(p) for p in closure.premises)
                    return RuleInst(cidx, inst, lctx, children)
        raise MissingWitness(
            f"cannot synthesise the equality of the two images of {a!r}; "
            "supply the congruence witnesses by hand"
        )

    # -- assembling the witnesses ----------------------------------------------------

    def build(self):
        out = RuleWitnesses()
        n = self.n
        for (i, p), w in self.base.premises.items():
            out.premises[(i, p)] = self.left(w)
            out.premises[(n + i, p)] = self.right(w)
        for pos, k in enumerate(self.objects):
            idx = 2 * n + pos
            premise = self.rule.premises[k]
            lctx = premise.context.map_exprs(self.l_expr)
            rctx = premise.context.map_exprs(self.r_expr)
            r_j = premise.map_exprs(self.r_expr)
            if premise.form is JudgementForm.IS_TY:
                out.premises[(idx, 0)] = Hyp(k)
                out.premises[(idx, 1)] = self._transport(Hyp(n + k), rctx, lctx, r_j)
            else:
                out.premises[(idx, 0)] = self.left(self.base.premises[(k, 0)])
                out.premises[(idx, 1)] = Hyp(k)
                out.premises[(idx, 2)] = self._transported_term(k, premise, lctx, rctx)
        conclusion = self.rule.conclusion
        gen_l = generic_rule_instance(self.rule_index, self.rule)
        gen_r = generic_rule_instance(self.rule_index, self.rule, self.shift, n)
        if conclusion.form is JudgementForm.IS_TY:
            out.conclusion[0] = gen_l
            out.conclusion[1] = gen_r
        else:
            a = conclusion.boundary[0]
            la, ra = self.l_expr(a), self.r_expr(a)
            out.conclusion[0] = self.left(self.base.conclusion[0])
            out.conclusion[1] = gen_l
            if la == ra:
                out.conclusion[2] = gen_r
            else:
                t_a = self.triple(self.base.conclusion[0])
                sym = derive.sym_ty(EMPTY_CONTEXT, la, ra, t_a[0], t_a[1], t_a[2])
                rh = self.r_expr(conclusion.head)
                out.conclusion[2] = derive.conv(
                    EMPTY_CONTEXT, ra, la, rh, t_a[1], t_a[0], gen_r, sym
                )
        return out

    def _transported_term(self, k: int, premise: Judgement, lctx, rctx) -> TheoryDerivation:
        """The right instance of a term premise, carried to the left context
        and converted to the left type."""
        r_j = premise.map_exprs(self.r_expr)
        moved = self._transport(Hyp(self.n + k), rctx, lctx, r_j)
        a = premise.boundary[0]
        la, ra = self.l_expr(a), self.r_expr(a)
        if la == ra:
            return moved
        rh = self.r_expr(premise.head)
        d_la = self.left(self.base.premises[(k, 0)])
        d_ra = self._transport(
            self.right(self.base.premises[(k, 0)]), rctx, lctx, is_type(rctx, ra)
        )
        d_eq = self._boundary_equality(lctx, a)
        sym = derive.sym_ty(lctx, la, ra, d_la, d_ra, d_eq)
        return derive.conv(lctx, ra, la, rh, d_ra, d_la, moved, sym)


def congruence_witnesses(theory: RawTypeTheory, rule_index: int, base):
    """Witnesses for the congruence rule of ``rule_index``, from R's own.

    Presupposition side-calls get no other rule's witnesses: R's witnesses
    cite only hypotheses, structural machinery and substitution closures.
    """
    return _CongruenceEngine(theory, rule_index, base).build()
