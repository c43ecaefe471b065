"""A corpus of checked derivations over the base MLTT theory.

Closed-symbol rules instantiate at any ambient context directly, so the
builders below parameterise over the context.  Every item is re-checked
by the tests that consume the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

from gtt import derive
from gtt.bundled import mltt_base
from gtt.judgements import EMPTY_CONTEXT, Judgement, RawContext, is_term, is_type, tm_eq, ty_eq
from gtt.syntax import Instantiation, Substitution, Var, mk_sym, substitute_expr
from gtt.theories import (
    Hyp,
    RuleInst,
    SubstInst,
    TheoryDerivation,
    VariableInst,
)

THEORY, WITNESSES = mltt_base()
SIG = THEORY.signature
KIND = THEORY.kind

PI_FORM = THEORY.rule_index("Pi-form")
LAM_INTRO = THEORY.rule_index("lam-intro")
APP_ELIM = THEORY.rule_index("app-elim")
BETA = THEORY.rule_index("beta")
UNIT_FORM = THEORY.rule_index("unit-form")
TT_INTRO = THEORY.rule_index("tt-intro")

PI_ARITY = SIG.symbol(0).arity
LAM_ARITY = SIG.symbol(1).arity
APP_ARITY = SIG.symbol(2).arity
BETA_ARITY = THEORY.rule(BETA).arity


@dataclass(frozen=True)
class TypedTerm:
    """A term expression with derivations of its type and its typing."""

    ctx: RawContext
    term: object
    type: object
    d_type: TheoryDerivation
    d_term: TheoryDerivation


@dataclass(frozen=True)
class TypedType:
    ctx: RawContext
    type: object
    d_type: TheoryDerivation


def unit_at(ctx: RawContext) -> TypedType:
    e = mk_sym(SIG, "unit", (), ctx.scope)
    return TypedType(ctx, e, RuleInst(UNIT_FORM, Instantiation((), ctx.scope, ()), ctx, ()))


def tt_at(ctx: RawContext) -> TypedTerm:
    u = unit_at(ctx)
    e = mk_sym(SIG, "tt", (), ctx.scope)
    return TypedTerm(
        ctx, e, u.type, u.d_type, RuleInst(TT_INTRO, Instantiation((), ctx.scope, ()), ctx, ())
    )


def extend(ctx: RawContext, ty: TypedType) -> RawContext:
    """Extend a context by one type given over it (weakening the new entry)."""
    from gtt.judgements import extend_context
    from gtt.syntax import weaken_expr

    return extend_context(KIND, ctx, (weaken_expr(KIND, ty.type, 1),))


def pi(a: TypedType, b: TypedType) -> TypedType:
    """Pi over a.ctx; b must live over a.ctx extended by a."""
    ctx = a.ctx
    e = mk_sym(SIG, "Pi", (a.type, b.type), ctx.scope)
    inst = Instantiation(PI_ARITY, ctx.scope, (a.type, b.type))
    return TypedType(ctx, e, RuleInst(PI_FORM, inst, ctx, (a.d_type, b.d_type)))


def nested_pi(ctx: RawContext, n: int) -> TypedType:
    """Pi(unit, Pi(unit, ... unit)) with n binders; its expression and its
    derivation are both nested n + 1 deep."""
    a = unit_at(ctx)
    if n == 0:
        return a
    return pi(a, nested_pi(extend(ctx, a), n - 1))


def lam(a: TypedType, b: TypedType, body: TypedTerm) -> TypedTerm:
    ctx = a.ctx
    e = mk_sym(SIG, "lam", (a.type, b.type, body.term), ctx.scope)
    inst = Instantiation(LAM_ARITY, ctx.scope, (a.type, b.type, body.term))
    p = pi(a, b)
    return TypedTerm(
        ctx, e, p.type, p.d_type,
        RuleInst(LAM_INTRO, inst, ctx, (a.d_type, b.d_type, body.d_term)),
    )


def lam_tower(ctx: RawContext, n: int) -> TypedTerm:
    """lam x_1:unit. ... lam x_n:unit. tt over ``ctx``.  The type premise of
    the lam at depth k derives a Pi nested n - k deep, so the derivation has
    about n^2 / 2 Pi-form nodes but only n contexts.  It is a DAG: each lam
    node and the Pi-form node of its type share the typings of its domain
    and of its codomain."""
    if n == 0:
        return tt_at(ctx)
    a = unit_at(ctx)
    inner = extend(ctx, a)
    body = lam_tower(inner, n - 1)
    return lam(a, TypedType(inner, body.type, body.d_type), body)


def app(a: TypedType, b: TypedType, f: TypedTerm, arg: TypedTerm) -> TypedTerm:
    ctx = a.ctx
    e = mk_sym(SIG, "app", (a.type, b.type, f.term, arg.term), ctx.scope)
    inst = Instantiation(APP_ARITY, ctx.scope, (a.type, b.type, f.term, arg.term))
    single = Substitution(ctx.scope, ctx.scope + 1, _single_table(ctx.scope, arg.term))
    b_of_t = substitute_expr(KIND, single, b.type)
    d_type = SubstInst(
        single, ctx, frozenset(range_positions(ctx.scope)), _b_judgement(a, b),
        (b.d_type, arg.d_term),
    )
    d_term = RuleInst(APP_ELIM, inst, ctx, (a.d_type, b.d_type, f.d_term, arg.d_term))
    return TypedTerm(ctx, e, b_of_t, d_type, d_term)


def _single_table(scope: int, term):
    """The substitution table sending the newest variable to ``term``."""
    table = [None] * (scope + 1)
    for i in range(scope):
        table[KIND.inl(scope, 1, i)] = Var(i, scope)
    table[KIND.inr(scope, 1, 0)] = term
    return tuple(table)


def range_positions(scope: int) -> frozenset[int]:
    return frozenset(KIND.inl(scope, 1, i) for i in range(scope))


def _b_judgement(a: TypedType, b: TypedType) -> Judgement:
    ctx2 = extend(a.ctx, a)
    return is_type(ctx2, b.type)


def var(ctx: RawContext, i: int, d_entry_type: TheoryDerivation) -> TypedTerm:
    return TypedTerm(
        ctx, Var(i, ctx.scope), ctx.type_at(i), d_entry_type,
        VariableInst(ctx, i, (d_entry_type,)),
    )


def beta_eq(a: TypedType, b: TypedType, body: TypedTerm, arg: TypedTerm) -> tuple[TheoryDerivation, Judgement]:
    ctx = a.ctx
    inst = Instantiation(BETA_ARITY, ctx.scope, (a.type, b.type, body.term, arg.term))
    d = RuleInst(BETA, inst, ctx, (a.d_type, b.d_type, body.d_term, arg.d_term))
    single = Substitution(ctx.scope, ctx.scope + 1, _single_table(ctx.scope, arg.term))
    lam_e = mk_sym(SIG, "lam", (a.type, b.type, body.term), ctx.scope)
    app_e = mk_sym(SIG, "app", (a.type, b.type, lam_e, arg.term), ctx.scope)
    j = tm_eq(
        ctx, app_e,
        substitute_expr(KIND, single, body.term),
        substitute_expr(KIND, single, b.type),
    )
    return d, j


def conv_wrap(t: TypedTerm) -> TypedTerm:
    """The same typing, wrapped in a conversion along reflexivity."""
    refl = derive.refl_ty(t.ctx, t.type, t.d_type)
    d = derive.conv(t.ctx, t.type, t.type, t.term, t.d_type, t.d_type, t.d_term, refl)
    return TypedTerm(t.ctx, t.term, t.type, t.d_type, d)


def weaken_closed_item(ctx: RawContext, j: Judgement, d: TheoryDerivation) -> TheoryDerivation:
    return derive.weaken_closed(ctx, j, d)


def build_corpus() -> list[tuple[TheoryDerivation, Judgement]]:
    """At least fifty checked derivations, in contexts of length 0 to 2.

    Most are substitution-free.  The ``app`` terms are not: their type
    derivation substitutes the argument into the codomain with a
    ``SubstInst`` (items 24, 27, 30, 51 and 55 of the 56).
    """
    items: list[tuple[TheoryDerivation, Judgement]] = []

    def add_type(t: TypedType):
        items.append((t.d_type, is_type(t.ctx, t.type)))

    def add_term(t: TypedTerm):
        items.append((t.d_term, is_term(t.ctx, t.term, t.type)))

    e = EMPTY_CONTEXT
    u0 = unit_at(e)
    add_type(u0)
    add_term(tt_at(e))

    # a few contexts: [unit], [unit, unit], [Pi(unit,unit)], [unit, Pi(unit,unit)]
    ctx1 = extend(e, u0)
    u1 = unit_at(ctx1)
    ctx2 = extend(ctx1, u1)
    u2 = unit_at(ctx2)
    pid0 = pi(u0, u1)
    ctxp = extend(e, pid0)
    up = unit_at(ctxp)
    ctx1p = extend(ctx1, pi(u1, unit_at(ctx2)))

    for ctx, uat in [(e, u0), (ctx1, u1), (ctx2, u2), (ctxp, up)]:
        add_type(uat)
        add_term(tt_at(ctx))

    # variables at each position of each context
    for ctx in [ctx1, ctx2, ctxp, ctx1p]:
        for i in range(ctx.scope):
            entry = ctx.type_at(i)
            d_entry = _derive_type_in(ctx, entry)
            items.append(
                (
                    VariableInst(ctx, i, (d_entry,)),
                    is_term(ctx, Var(i, ctx.scope), entry),
                )
            )

    # Pi types, nested, over several contexts
    for ctx in [e, ctx1, ctxp]:
        a = unit_at(ctx)
        b = unit_at(extend(ctx, a))
        p1 = pi(a, b)
        add_type(p1)
        inner = extend(ctx, a)
        p2 = pi(a, pi(unit_at(inner), unit_at(extend(inner, unit_at(inner)))))
        add_type(p2)

    # identity functions and applications
    for ctx in [e, ctx1, ctxp]:
        a = unit_at(ctx)
        b = unit_at(extend(ctx, a))
        ctx_a = extend(ctx, a)
        x0 = var(ctx_a, newest_position(ctx.scope), unit_at(ctx_a).d_type)
        idf = lam(a, b, x0)
        add_term(idf)
        ap = app(a, b, idf, tt_at(ctx))
        add_term(ap)
        items.append((ap.d_type, is_type(ctx, ap.type)))

    # beta equations
    for ctx in [e, ctx1]:
        a = unit_at(ctx)
        ctx_a = extend(ctx, a)
        b = unit_at(ctx_a)
        x0 = var(ctx_a, newest_position(ctx.scope), unit_at(ctx_a).d_type)
        d, j = beta_eq(a, b, x0, tt_at(ctx))
        items.append((d, j))
        d2, j2 = beta_eq(a, b, tt_at(ctx_a), tt_at(ctx))
        items.append((d2, j2))

    # equivalence and conversion instances
    for ctx in [e, ctx1]:
        a = unit_at(ctx)
        t = tt_at(ctx)
        items.append((derive.refl_ty(ctx, a.type, a.d_type), ty_eq(ctx, a.type, a.type)))
        items.append(
            (derive.refl_tm(ctx, a.type, t.term, a.d_type, t.d_term),
             tm_eq(ctx, t.term, t.term, a.type))
        )
        refl = derive.refl_ty(ctx, a.type, a.d_type)
        items.append(
            (derive.sym_ty(ctx, a.type, a.type, a.d_type, a.d_type, refl),
             ty_eq(ctx, a.type, a.type))
        )
        items.append(
            (derive.trans_ty(ctx, a.type, a.type, a.type, a.d_type, a.d_type, a.d_type, refl, refl),
             ty_eq(ctx, a.type, a.type))
        )
        wrapped = conv_wrap(t)
        add_term(wrapped)

    # lambda typed at a nested Pi
    a = unit_at(e)
    ctx_a = extend(e, a)
    b_in = unit_at(ctx_a)
    inner_pi = pi(b_in, unit_at(extend(ctx_a, b_in)))
    inner_lam = lam(b_in, unit_at(extend(ctx_a, b_in)), tt_at(extend(ctx_a, b_in)))
    outer = lam(a, inner_pi, inner_lam)
    add_term(outer)
    items.append((outer.d_type, is_type(e, outer.type)))
    items.append((inner_pi.d_type, is_type(ctx_a, inner_pi.type)))

    # constant functions at several argument types
    for ctx in [e, ctx1]:
        a = unit_at(ctx)
        ctx_a = extend(ctx, a)
        b = unit_at(ctx_a)
        const = lam(a, b, tt_at(ctx_a))
        add_term(const)
        ap = app(a, b, const, tt_at(ctx))
        add_term(ap)
        items.append((derive.refl_tm(ctx, a.type, ap.term, a.d_type, ap.d_term),
                      tm_eq(ctx, ap.term, ap.term, a.type)))
        wrapped = conv_wrap(ap)
        add_term(wrapped)

    assert len(items) >= 50, len(items)
    return items


def newest_position(outer_scope: int) -> int:
    return KIND.inr(outer_scope, 1, 0)


def pi_over(b: TypedType) -> TypedType:
    """Pi of unit over b's context (b treated as the codomain family)."""
    a = unit_at(b.ctx)
    return pi(a, unit_at(extend(b.ctx, a)))


def _derive_type_in(ctx: RawContext, entry) -> TheoryDerivation:
    """Re-derive a context entry type in place (unit and Pi towers only)."""
    from gtt.syntax import SymApp

    assert isinstance(entry, SymApp)
    name = SIG.symbol(entry.sym).name
    if name == "unit":
        return unit_at(ctx).d_type
    if name == "Pi":
        a_e, b_e = entry.args
        a = TypedType(ctx, a_e, _derive_type_in(ctx, a_e))
        ctx2 = extend(ctx, a)
        b = TypedType(ctx2, b_e, _derive_type_in(ctx2, b_e))
        return pi(a, b).d_type
    raise AssertionError(name)


def substitution_corpus() -> list[tuple[TheoryDerivation, Judgement]]:
    """Derivations that genuinely use substitution and equality-substitution nodes."""
    items: list[tuple[TheoryDerivation, Judgement]] = []
    e = EMPTY_CONTEXT
    u0 = unit_at(e)
    ctx1 = extend(e, u0)
    u1 = unit_at(ctx1)

    # weakening a closed judgement
    t = tt_at(e)
    j = is_term(e, t.term, t.type)
    t1 = tt_at(ctx1)
    items.append((derive.weaken_closed(ctx1, j, t.d_term), is_term(ctx1, t1.term, u1.type)))

    # single-variable substitution [tt/x] into x:unit |- x : unit
    x = var(ctx1, 0, u1.d_type)
    f = Substitution(0, 1, (tt_at(e).term,))
    sub = derive.subst(
        f, e, frozenset(), is_term(ctx1, x.term, u1.type), x.d_term, (t.d_term,)
    )
    items.append((sub, is_term(e, t.term, u0.type)))

    # app's derived type via an explicit substitution node
    a = u0
    b = unit_at(ctx1)
    ctx_a = ctx1
    x0 = var(ctx_a, 0, unit_at(ctx_a).d_type)
    idf = lam(a, b, x0)
    ap = app(a, b, idf, t)
    items.append((ap.d_type, is_type(e, ap.type)))

    # equality substitution: [tt/x] == [app(id,tt)/x] into x:unit |- unit type
    ap_term = ap
    eq_beta, eq_j = beta_eq(a, b, x0, t)
    f1 = Substitution(0, 1, (ap_term.term,))
    f2 = Substitution(0, 1, (t.term,))
    eq_term = tm_eq(e, ap_term.term, t.term, u0.type)
    d_eq_term = eq_beta  # beta: app(unit,unit,lam(...),tt) == tt : unit
    triple = (ap_term.d_term, t.d_term, d_eq_term)
    eqsub = derive.eq_subst(
        f1, f2, e, frozenset(), is_type(ctx1, u1.type), u1.d_type, (triple,)
    )
    items.append((eqsub, ty_eq(e, u0.type, u0.type)))
    return items


def _outer_lam_tower(ctx: RawContext) -> TypedTerm:
    """lam y:unit. lam z:Pi(unit, unit). x over ``ctx``, x its newest variable:
    a body that uses a variable from outside the binders."""
    y_ty = unit_at(ctx)
    ctx_y = extend(ctx, y_ty)
    z_ty = pi_over(unit_at(ctx_y))
    ctx_z = extend(ctx_y, z_ty)
    x = KIND.inl(ctx_y.scope, 1, KIND.inl(ctx.scope, 1, newest_position(ctx.scope - 1)))
    body = var(ctx_z, x, _derive_type_in(ctx_z, ctx_z.type_at(x)))
    inner = lam(z_ty, unit_at(ctx_z), body)
    return lam(y_ty, TypedType(ctx_y, inner.type, inner.d_type), inner)


def variable_typing(ctx: RawContext, p: int) -> TheoryDerivation:
    return var(ctx, p, _derive_type_in(ctx, ctx.type_at(p))).d_term


def _stack_weakenings(
    ctx, term, ty, d, k: int, trivial_at, typing=variable_typing
) -> tuple[TheoryDerivation, Judgement]:
    """k weakening subst nodes stacked over d : ctx |- term : ty.

    Each step adds a unit or a Pi(unit, unit) entry.  Step s marks the
    source positions in ``trivial_at(s, n)`` trivial (n the source scope) and
    gives each other position i the typing ``typing(target, inl(i))``, which
    elimination must carry under the binders of d.
    """
    for step in range(k):
        n = ctx.scope
        entry = unit_at(ctx) if step % 3 else pi_over(unit_at(ctx))
        target = extend(ctx, entry)
        inl = [KIND.inl(n, 1, i) for i in range(n)]
        f = Substitution(n + 1, n, tuple(Var(p, n + 1) for p in inl))
        trivial = trivial_at(step, n)
        typings = tuple(typing(target, inl[i]) for i in range(n) if i not in trivial)
        d = derive.subst(f, target, trivial, is_term(ctx, term, ty), d, typings)
        ctx, term, ty = target, substitute_expr(KIND, f, term), substitute_expr(KIND, f, ty)
    return d, is_term(ctx, term, ty)


def _all_or_none(step: int, n: int) -> frozenset[int]:
    return frozenset(range(n)) if step % 2 == 0 else frozenset()


def weakening_chain(k: int) -> tuple[TheoryDerivation, Judgement]:
    """k stacked weakening subst nodes over ``_outer_lam_tower`` at x : unit.

    Even steps mark every position trivial; odd steps mark none.
    """
    ctx = extend(EMPTY_CONTEXT, unit_at(EMPTY_CONTEXT))
    t = _outer_lam_tower(ctx)
    return _stack_weakenings(ctx, t.term, t.type, t.d_term, k, _all_or_none)


def mixed_weakening_chain(k: int) -> tuple[TheoryDerivation, Judgement]:
    """As ``weakening_chain``, but every step marks the source positions i
    with i % 3 != 0 trivial and types the others.  So one node holds both
    kinds of position, and folding two stacked nodes meets a trivial
    position sent to a trivial one and a trivial position sent to a typed
    one (in either scope kind, which number the positions in opposite
    orders).  A typing is a variable converted along reflexivity of its
    type, so that the image of a typed position differs from the variable a
    trivial one becomes."""
    ctx = extend(EMPTY_CONTEXT, unit_at(EMPTY_CONTEXT))
    t = _outer_lam_tower(ctx)

    def every_third_typed(step: int, n: int) -> frozenset[int]:
        return frozenset(i for i in range(n) if i % 3)

    def converted_variable(target: RawContext, p: int) -> TheoryDerivation:
        return conv_wrap(var(target, p, _derive_type_in(target, target.type_at(p)))).d_term

    return _stack_weakenings(ctx, t.term, t.type, t.d_term, k, every_third_typed, converted_variable)


def substituted_weakening_chain(k: int) -> tuple[TheoryDerivation, Judgement]:
    """[tt/x] into x : unit |- ``_outer_lam_tower``, under k weakenings as in
    ``weakening_chain``.  The bottom substitution is not a weakening, so
    the composite of the chain sends x to a term that is not a variable."""
    ctx1 = extend(EMPTY_CONTEXT, unit_at(EMPTY_CONTEXT))
    t = _outer_lam_tower(ctx1)
    tt = tt_at(EMPTY_CONTEXT)
    f = Substitution(0, 1, (tt.term,))
    d = derive.subst(f, EMPTY_CONTEXT, frozenset(), is_term(ctx1, t.term, t.type), t.d_term, (tt.d_term,))
    term, ty = substitute_expr(KIND, f, t.term), substitute_expr(KIND, f, t.type)
    return _stack_weakenings(EMPTY_CONTEXT, term, ty, d, k, _all_or_none)


def weakened_lam_over_weakening() -> tuple[TheoryDerivation, Judgement]:
    """lam y:unit. t over x : unit, weakened by one entry as in
    ``weakening_chain``, where t is ``_outer_lam_tower`` weakened from x : unit
    to x : unit, y : unit: a substitution node under a binder in the body of
    another.  Both mark every position trivial."""
    ctx1 = extend(EMPTY_CONTEXT, unit_at(EMPTY_CONTEXT))
    t = _outer_lam_tower(ctx1)
    y = unit_at(ctx1)
    ctx_y = extend(ctx1, y)
    f = Substitution(ctx_y.scope, ctx1.scope, (Var(KIND.inl(1, 1, 0), ctx_y.scope),))
    term, ty = substitute_expr(KIND, f, t.term), substitute_expr(KIND, f, t.type)
    d_body = derive.subst(f, ctx_y, frozenset({0}), is_term(ctx1, t.term, t.type), t.d_term)
    body = TypedTerm(ctx_y, term, ty, _derive_type_in(ctx_y, ty), d_body)
    outer = lam(y, TypedType(ctx_y, ty, body.d_type), body)
    return _stack_weakenings(ctx1, outer.term, outer.type, outer.d_term, 1, _all_or_none)


def equality_substitutions_under_binders() -> list[TheoryDerivation]:
    """Equality-substitution nodes into x : unit |- ``_outer_lam_tower``: one
    along [app(id, tt)/x] == [tt/x] with a typing triple, used under two
    binders, and one along the identity with x trivial."""
    e = EMPTY_CONTEXT
    u0 = unit_at(e)
    ctx1 = extend(e, u0)
    t = tt_at(e)
    x0 = var(ctx1, 0, unit_at(ctx1).d_type)
    u1 = unit_at(ctx1)
    ap = app(u0, u1, lam(u0, u1, x0), t)
    d_beta, _ = beta_eq(u0, u1, x0, t)
    tower = _outer_lam_tower(ctx1)
    j = is_term(ctx1, tower.term, tower.type)
    f, g = Substitution(0, 1, (ap.term,)), Substitution(0, 1, (t.term,))
    ident = Substitution.identity(1)
    return [
        derive.eq_subst(f, g, e, frozenset(), j, tower.d_term, ((ap.d_term, t.d_term, d_beta),)),
        derive.eq_subst(ident, ident, ctx1, frozenset({0}), j, tower.d_term),
    ]


def equality_substitution_into_nested_pi(n: int) -> TheoryDerivation:
    """[app(id, tt)/x] == [tt/x] into x : unit |- a nested Pi with n binders:
    every premise of the Pi tower below the root is under a binder."""
    e = EMPTY_CONTEXT
    u0 = unit_at(e)
    ctx1 = extend(e, u0)
    t = tt_at(e)
    u1 = unit_at(ctx1)
    x0 = var(ctx1, 0, u1.d_type)
    ap = app(u0, u1, lam(u0, u1, x0), t)
    d_beta, _ = beta_eq(u0, u1, x0, t)
    p = nested_pi(ctx1, n)
    f, g = Substitution(0, 1, (ap.term,)), Substitution(0, 1, (t.term,))
    triple = (ap.d_term, t.d_term, d_beta)
    return derive.eq_subst(f, g, e, frozenset(), is_type(ctx1, p.type), p.d_type, (triple,))


def hypothetical_app_rule():
    """The hypothetical form of application: its rule and a derivation of it
    from the universal form, using substitution nodes."""
    from gtt.judgements import extend_context
    from gtt.rules import RawRule
    from gtt.syntax import mv_extend_signature, mk_meta, weaken_expr

    ext = mv_extend_signature(SIG, PI_ARITY, ("A", "B"))
    A0 = mk_meta(ext, "A", (), 0)
    A1 = mk_meta(ext, "A", (), 1)
    A2 = mk_meta(ext, "A", (), 2)
    B1 = mk_meta(ext, "B", (Var(0, 1),), 1)
    pi0 = mk_sym(ext, "Pi", (A0, B1), 0)
    ctx_x = RawContext(1, (A1,))
    ctx_xy = extend_context(KIND, ctx_x, (weaken_expr(KIND, pi0, 2),))
    x = Var(KIND.inl(1, 1, 0), 2)
    y = Var(KIND.inr(1, 1, 0), 2)
    B2 = mk_meta(ext, "B", (x,), 2)
    app_e = mk_sym(ext, "app", (A2, mk_meta(ext, "B", (Var(0, 3),), 3), y, x), 2)
    rule = RawRule(
        PI_ARITY,
        (is_type(EMPTY_CONTEXT, A0), is_type(ctx_x, B1)),
        is_term(ctx_xy, app_e, B2),
        ("A", "B"),
    )

    # witness: instantiate the universal rule at s := y, t := x over ctx_xy,
    # with the premises carried into ctx_xy by weakening substitutions
    a_w = derive.weaken_closed(ctx_xy, is_type(EMPTY_CONTEXT, A0), Hyp(0))
    # [x:A, y:Pi] |- B(x') type for the bound x' of an extended context:
    ctx_xy_a = extend_context(KIND, ctx_xy, (weaken_expr(KIND, A2, 1),))
    fb = Substitution(3, 1, (Var(KIND.inr(2, 1, 0), 3),))
    b_w = SubstInst(
        fb, ctx_xy_a, frozenset(), is_type(ctx_x, B1),
        (
            Hyp(1),
            VariableInst(
                ctx_xy_a, KIND.inr(2, 1, 0),
                (derive.weaken_closed(ctx_xy_a, is_type(EMPTY_CONTEXT, A0), Hyp(0)),),
            ),
        ),
    )
    pi_w = derive.weaken_closed(ctx_xy, is_type(EMPTY_CONTEXT, pi0), _pi_meta_derivation())
    y_w = VariableInst(ctx_xy, y.pos, (pi_w,))
    x_w = VariableInst(ctx_xy, x.pos, (a_w,))
    inst = Instantiation(APP_ARITY, 2, (A2, mk_meta(ext, "B", (Var(0, 3),), 3), y, x))
    witness = RuleInst(APP_ELIM, inst, ctx_xy, (a_w, b_w, y_w, x_w))
    return rule, witness


def _pi_meta_derivation() -> TheoryDerivation:
    """|- Pi(A, B(x)) type from the two hypothetical premises."""
    from gtt.syntax import mv_extend_signature, mk_meta

    ext = mv_extend_signature(SIG, PI_ARITY, ("A", "B"))
    inst = Instantiation(
        PI_ARITY, 0, (mk_meta(ext, "A", (), 0), mk_meta(ext, "B", (Var(0, 1),), 1))
    )
    return RuleInst(PI_FORM, inst, EMPTY_CONTEXT, (Hyp(0), Hyp(1)))
