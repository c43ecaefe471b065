"""Contexts, judgement forms, boundaries, and presuppositions."""

import random

import pytest

from genexpr import LAW_SIGNATURE, gen_arity, gen_expr, gen_instantiation, gen_subst
from gtt.errors import HeadForbidden, HeadRequired
from gtt.judgements import (
    EMPTY_CONTEXT,
    Boundary,
    Judgement,
    JudgementForm,
    RawContext,
    boundary_of,
    complete_boundary,
    extend_context,
    instantiate_context,
    instantiate_judgement,
    is_term,
    is_type,
    presuppositions,
    substitute_judgement,
    tm_eq,
    translate_judgement,
    ty_eq,
)
from gtt.syntax import (
    TM,
    TY,
    Instantiation,
    SignatureMap,
    mk_sym,
    mk_var,
    mv_extend_signature,
    weaken_expr,
)

SIG = LAW_SIGNATURE
KIND = SIG.kind


def b(scope=0):
    return mk_sym(SIG, "b", (), scope)


def el(t):
    return mk_sym(SIG, "el", (t,), t.scope)


def ctx_of(*types):
    """Build a context from position-indexed types."""
    return RawContext(len(types), tuple(types))


def test_extend_context_empty_is_identity():
    g = ctx_of(b(1))
    assert extend_context(KIND, g, ()) == g


def test_extend_context_shifts_as_in_walkthrough():
    # scope 3 extended by 2: old entries are weakened by 2 and sit at 2,3,4
    g = ctx_of(b(3), el(mk_var(3, 0)), b(3))
    new = (el(mk_var(5, 0)), b(5))
    out = extend_context(KIND, g, new)
    assert out.scope == 5
    assert out.type_at(0) == el(mk_var(5, 0))
    assert out.type_at(1) == b(5)
    assert out.type_at(2) == weaken_expr(KIND, b(3), 2)
    assert out.type_at(3) == weaken_expr(KIND, el(mk_var(3, 0)), 2)
    assert out.type_at(4) == b(5)


def test_extend_empty_context():
    # extension types live in the sum scope already
    out = extend_context(KIND, EMPTY_CONTEXT, (b(2), el(mk_var(2, 1))))
    assert out == ctx_of(b(2), el(mk_var(2, 1)))


APP_ARITY = tuple()


def test_instantiate_context_cases():
    from gtt.syntax import arity

    alpha = arity((TY, 0),)
    ext = mv_extend_signature(SIG, alpha, ("A",))
    g = ctx_of(b(2), b(2))
    I = Instantiation(alpha, 2, (b(2),))
    # an empty extension returns the context itself, not a copy
    assert instantiate_context(KIND, I, g, EMPTY_CONTEXT) is g
    from gtt.syntax import mk_meta

    inner = RawContext(1, (mk_meta(ext, "A", (), 1),))
    out = instantiate_context(KIND, I, g, inner)
    assert out.scope == 3
    assert out.type_at(0) == b(3)          # the instantiated entry
    assert out.type_at(1) == b(3)
    assert out.type_at(2) == b(3)


def test_judgement_head_discipline():
    with pytest.raises(HeadRequired):
        Judgement(EMPTY_CONTEXT, JudgementForm.IS_TY, (), None)
    with pytest.raises(HeadForbidden):
        Judgement(EMPTY_CONTEXT, JudgementForm.TY_EQ, (b(0), b(0)), b(0))


def test_boundary_roundtrip():
    rng = random.Random(30)
    for _ in range(200):
        scope = rng.randrange(3)
        ctx = ctx_of(*(b(scope) for _ in range(scope)))
        form = rng.choice(list(JudgementForm))
        boundary = tuple(gen_expr(rng, SIG, scope, c, 2) for c in form.boundary_classes)
        head = gen_expr(rng, SIG, scope, form.head_class, 2) if form.head_class else None
        j = Judgement(ctx, form, boundary, head)
        bdy, h = boundary_of(j)
        assert complete_boundary(bdy, h) == j


def test_complete_boundary_cases():
    eqb = Boundary(EMPTY_CONTEXT, JudgementForm.TY_EQ, (b(0), b(0)))
    j = complete_boundary(eqb, None)
    assert j == ty_eq(EMPTY_CONTEXT, b(0), b(0))
    tb = Boundary(EMPTY_CONTEXT, JudgementForm.IS_TM, (b(0),))
    t = mk_sym(SIG, "lam", (b(0), b(1), mk_var(1, 0)), 0)
    assert complete_boundary(tb, t) == is_term(EMPTY_CONTEXT, t, b(0))
    with pytest.raises(HeadRequired):
        complete_boundary(tb, None)
    with pytest.raises(HeadForbidden):
        complete_boundary(eqb, t)


def test_presupposition_clauses():
    g = ctx_of(b(1))
    x = mk_var(1, 0)
    assert presuppositions(is_type(g, b(1))) == ()
    assert presuppositions(is_term(g, x, b(1))) == (is_type(g, b(1)),)
    assert presuppositions(ty_eq(g, b(1), el(x))) == (
        is_type(g, b(1)),
        is_type(g, el(x)),
    )
    assert presuppositions(tm_eq(g, x, x, b(1))) == (
        is_type(g, b(1)),
        is_term(g, x, b(1)),
        is_term(g, x, b(1)),
    )


def twin_map():
    from gtt.syntax import Signature, Symbol, arity

    twin = Signature(
        (
            Symbol("b2", TY, ()),
            Symbol("el2", TY, arity((TM, 0))),
            Symbol("pi2", TY, arity((TY, 0), (TY, 1))),
            Symbol("lam2", TM, arity((TY, 0), (TY, 1), (TM, 1))),
            Symbol("app2", TM, arity((TY, 0), (TY, 1), (TM, 0), (TM, 0))),
        )
    )
    return SignatureMap(SIG, twin, (0, 1, 2, 3, 4))


def random_judgement(rng, sig, scope, depth=2):
    ctx = RawContext(scope, tuple(gen_expr(rng, sig, scope, TY, depth) for _ in range(scope)))
    form = rng.choice(list(JudgementForm))
    boundary = tuple(gen_expr(rng, sig, scope, c, depth) for c in form.boundary_classes)
    head = gen_expr(rng, sig, scope, form.head_class, depth) if form.head_class else None
    return Judgement(ctx, form, boundary, head)


def test_presuppositions_commute_with_translation():
    rng = random.Random(31)
    F = twin_map()
    for _ in range(300):
        j = random_judgement(rng, SIG, rng.randrange(3))
        lhs = presuppositions(translate_judgement(F, j))
        rhs = tuple(translate_judgement(F, p) for p in presuppositions(j))
        assert lhs == rhs


def test_presuppositions_commute_with_instantiation():
    rng = random.Random(32)
    for _ in range(300):
        alpha = gen_arity(rng)
        ext = mv_extend_signature(SIG, alpha)
        gamma, delta = rng.randrange(3), rng.randrange(3)
        ctx = RawContext(gamma, tuple(gen_expr(rng, SIG, gamma, TY, 2) for _ in range(gamma)))
        I = gen_instantiation(rng, SIG, alpha, gamma)
        j = random_judgement(rng, ext, delta)
        lhs = presuppositions(instantiate_judgement(KIND, I, ctx, j))
        rhs = tuple(instantiate_judgement(KIND, I, ctx, p) for p in presuppositions(j))
        assert lhs == rhs


def test_presuppositions_commute_with_substitution():
    rng = random.Random(33)
    for _ in range(300):
        gamma, delta = rng.randrange(3), rng.randrange(1, 3)
        target = RawContext(gamma, tuple(gen_expr(rng, SIG, gamma, TY, 2) for _ in range(gamma)))
        j = random_judgement(rng, SIG, delta)
        f = gen_subst(rng, SIG, gamma, delta)
        lhs = presuppositions(substitute_judgement(KIND, f, target, j))
        rhs = tuple(substitute_judgement(KIND, f, target, p) for p in presuppositions(j))
        assert lhs == rhs


def test_translate_then_complete_is_natural():
    rng = random.Random(34)
    F = twin_map()
    for _ in range(200):
        scope = rng.randrange(3)
        ctx = RawContext(scope, tuple(gen_expr(rng, SIG, scope, TY, 2) for _ in range(scope)))
        form = rng.choice(list(JudgementForm))
        boundary = tuple(gen_expr(rng, SIG, scope, c, 2) for c in form.boundary_classes)
        bdy = Boundary(ctx, form, boundary)
        head = gen_expr(rng, SIG, scope, form.head_class, 2) if form.head_class else None
        from gtt.judgements import translate_boundary
        from gtt.syntax import translate_expr

        lhs = translate_judgement(F, complete_boundary(bdy, head))
        rhs = complete_boundary(
            translate_boundary(F, bdy), None if head is None else translate_expr(F, head)
        )
        assert lhs == rhs


def test_nested_judgement_instantiation_exact():
    # the double-instantiation equation, exact under strict scopes
    rng = random.Random(35)
    for _ in range(200):
        alpha = gen_arity(rng)
        beta = gen_arity(rng)
        ext_a = mv_extend_signature(SIG, alpha)
        ext_ab = mv_extend_signature(ext_a, beta)
        gamma, delta, theta = rng.randrange(3), rng.randrange(3), rng.randrange(3)
        G = RawContext(gamma, tuple(gen_expr(rng, SIG, gamma, TY, 2) for _ in range(gamma)))
        D = RawContext(delta, tuple(gen_expr(rng, ext_a, delta, TY, 2) for _ in range(delta)))
        I = gen_instantiation(rng, SIG, alpha, gamma)
        K = gen_instantiation(rng, ext_a, beta, delta)
        j = random_judgement(rng, ext_ab, theta)
        from gtt.syntax import inst_act_inst

        lhs = instantiate_judgement(KIND, I, G, instantiate_judgement(KIND, K, D, j))
        rhs = instantiate_judgement(
            KIND, inst_act_inst(KIND, I, K), instantiate_context(KIND, I, G, D), j
        )
        assert lhs == rhs
