"""Contexts, judgement forms, boundaries, and presuppositions."""

import copy
import dataclasses
import pickle
import random
from functools import partial

import pytest

from genexpr import LAW_SIGNATURE, arity, compound_map, gen_arity, gen_expr, gen_instantiation, gen_subst, twin_map
from gtt.errors import ClassMismatch, HeadForbidden, HeadRequired, ScopeMismatch
from gtt.foundations import ClosureRule
from gtt.maps import apply_syntax_map, map_judgement
from gtt.presentation import complete_boundary
from gtt.judgements import (
    EMPTY_CONTEXT,
    Boundary,
    Judgement,
    JudgementForm,
    RawContext,
    extend_context,
    instantiate_context,
    instantiate_judgement,
    is_term,
    is_type,
    presuppositions,
    substitute_judgement,
    tm_eq,
    ty_eq,
)
from gtt.scopes import ScopeKind
from gtt.syntax import (
    TM,
    TY,
    Instantiation,
    MetaApp,
    Substitution,
    SymApp,
    Var,
    _shift,
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
        bdy, h = Boundary(j.context, j.form, j.boundary), j.head
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


def random_judgement(rng, sig, scope, depth=2):
    ctx = RawContext(scope, tuple(gen_expr(rng, sig, scope, TY, depth) for _ in range(scope)))
    form = rng.choice(list(JudgementForm))
    boundary = tuple(gen_expr(rng, sig, scope, c, depth) for c in form.boundary_classes)
    head = gen_expr(rng, sig, scope, form.head_class, depth) if form.head_class else None
    return Judgement(ctx, form, boundary, head)


def test_presuppositions_commute_with_translation():
    rng = random.Random(31)
    for F in (twin_map(), compound_map()):
        for _ in range(300):
            j = random_judgement(rng, SIG, rng.randrange(3))
            lhs = presuppositions(map_judgement(F, j))
            rhs = tuple(map_judgement(F, p) for p in presuppositions(j))
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
    for F in (twin_map(), compound_map()):
        fn = partial(apply_syntax_map, F)
        for _ in range(200):
            scope = rng.randrange(3)
            ctx = RawContext(scope, tuple(gen_expr(rng, SIG, scope, TY, 2) for _ in range(scope)))
            form = rng.choice(list(JudgementForm))
            boundary = tuple(gen_expr(rng, SIG, scope, c, 2) for c in form.boundary_classes)
            bdy = Boundary(ctx, form, boundary)
            head = gen_expr(rng, SIG, scope, form.head_class, 2) if form.head_class else None
            lhs = map_judgement(F, complete_boundary(bdy, head))
            mapped = Boundary(ctx.map_exprs(fn), form, tuple(map(fn, boundary)))
            assert lhs == complete_boundary(mapped, None if head is None else fn(head))


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
        from gtt.metatheory import inst_act_inst

        lhs = instantiate_judgement(KIND, I, G, instantiate_judgement(KIND, K, D, j))
        rhs = instantiate_judgement(
            KIND, inst_act_inst(KIND, I, K), instantiate_context(KIND, I, G, D), j
        )
        assert lhs == rhs


def test_extend_context_weakens_the_old_block_in_both_scope_kinds():
    # the definition: old entry i goes to inl(i), weakened; new entry j to inr(j)
    rng = random.Random(41)
    for kind in ScopeKind:
        for _ in range(100):
            n, delta = rng.randrange(4), rng.randrange(4)
            ctx = RawContext(n, tuple(gen_expr(rng, SIG, n, TY, 3) for _ in range(n)))
            new = tuple(gen_expr(rng, SIG, n + delta, TY, 3) for _ in range(delta))
            table = [None] * (n + delta)
            for i, t in enumerate(ctx.types):
                table[kind.inl(n, delta, i)] = weaken_expr(kind, t, delta)
            for j, t in enumerate(new):
                table[kind.inr(n, delta, j)] = t
            assert extend_context(kind, ctx, new) == RawContext(n + delta, tuple(table))


def _subexpressions(e):
    yield e
    for a in getattr(e, "args", ()):
        yield from _subexpressions(a)


def _binds_and_has_a_free_variable(t):
    """Whether ``t`` has a binder and, read in indices, a free variable."""
    subs = list(_subexpressions(t))
    free = any(type(s) is Var and s.pos >= s.scope - t.scope for s in subs)
    return free and any(type(s) is SymApp and any(a.scope > s.scope for a in s.args) for s in subs)


def test_one_weakening_memo_weakens_each_type_as_a_fresh_shift():
    # One memo shared by the extensions of many contexts in both scope kinds
    # gives the contexts that a fresh _shift of each old type gives.  The
    # contexts draw from a few types per scope, so types repeat within and
    # across contexts, and the two kinds weaken the same type differently:
    # every entry must be the shift its key (kind, type, cut, delta) names.
    rng = random.Random(44)
    pool = {}
    for n in (1, 2, 3):
        pool[n] = []
        while len(pool[n]) < 4:
            t = gen_expr(rng, SIG, n, TY, 3)
            if _binds_and_has_a_free_variable(t):
                pool[n].append(t)
    memo, weakened = {}, 0
    for _ in range(200):
        n, delta = rng.randrange(1, 4), rng.randrange(1, 3)
        ctx = RawContext(n, tuple(rng.choice(pool[n]) for _ in range(n)))
        for kind in ScopeKind:
            new = tuple(gen_expr(rng, SIG, n + delta, TY, 2) for _ in range(delta))
            old = tuple(_shift(kind, t, 0 if kind is ScopeKind.INDICES else n, delta) for t in ctx.types)
            fresh = new + old if kind is ScopeKind.INDICES else old + new
            assert extend_context(kind, ctx, new, memo) == RawContext(n + delta, fresh)
            weakened += n
    assert all(w == _shift(*key) for key, w in memo.items())
    assert {key[0] for key in memo} == set(ScopeKind)
    assert len(memo) <= weakened / 4, (len(memo), weakened)


# --- contexts, judgements, boundaries and closure rules are tuple records -----

def _records():
    u = SymApp(0, (), 1, TY)
    ctx = RawContext(1, (u,))
    j = Judgement(ctx, JudgementForm.IS_TM, (u,), MetaApp(2, (Var(0, 1),), 1, TM))
    return (ctx, j, Boundary(ctx, JudgementForm.IS_TM, (u,)), ClosureRule((j,), j))


def test_records_of_different_classes_are_unequal():
    ctx, j, bd, _ = _records()
    # equal fields, different classes
    assert RawContext(0, ()) != ClosureRule(0, ())
    assert len({RawContext(0, ()), ClosureRule(0, ())}) == 2
    # nor is a record equal to a tuple of its fields
    assert bd != (ctx, j.form, j.boundary)


def test_equal_records_have_equal_hashes():
    for r in _records():
        twin = type(r)(*(getattr(r, f) for f in type(r).__match_args__))
        assert twin == r and twin is not r
        assert hash(twin) == hash(r)


def test_record_fields_cannot_be_assigned():
    for r in _records():
        for f in type(r).__match_args__:
            with pytest.raises(AttributeError):
                setattr(r, f, None)
        with pytest.raises(AttributeError):
            r.note = "extra"


def test_records_copy_deepcopy_and_pickle():
    for r in _records():
        for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(twin) is type(r)
            assert twin == r


def test_record_reprs():
    # the strings the frozen dataclasses printed
    ctx = "RawContext(scope=1, types=(SymApp(sym=0, args=(), scope=1, cls=<SyntacticClass.TY: 'Ty'>),))"
    slots = (
        f"context={ctx}, form=<JudgementForm.IS_TM: 'IsTm'>, "
        "boundary=(SymApp(sym=0, args=(), scope=1, cls=<SyntacticClass.TY: 'Ty'>),)"
    )
    j = (
        f"Judgement({slots}, "
        "head=MetaApp(idx=2, args=(Var(pos=0, scope=1),), scope=1, cls=<SyntacticClass.TM: 'Tm'>))"
    )
    assert list(map(repr, _records())) == [
        ctx, j, f"Boundary({slots})", f"ClosureRule(premises=({j},), conclusion={j})",
    ]


def test_class_patterns_bind_record_fields():
    ctx, j, bd, rule = _records()
    match j:
        case Judgement(context=c, form=JudgementForm.IS_TM, head=h):
            assert (c, h) == (ctx, j.head)
        case _:
            pytest.fail("keyword pattern did not match")
    match rule:
        case ClosureRule(premises=(p,), conclusion=c):
            assert p == c == j
        case _:
            pytest.fail("keyword pattern did not match")
    match bd:
        case Judgement():
            pytest.fail("a Boundary matched Judgement")
        case Boundary(context=c):
            assert c == ctx


def test_records_that_break_their_invariants_are_rejected():
    u1 = b(1)
    with pytest.raises(ScopeMismatch):
        RawContext(2, (b(2),))
    with pytest.raises(ScopeMismatch):
        RawContext(1, (b(0),))
    with pytest.raises(ClassMismatch):
        RawContext(1, (mk_var(1, 0),))
    ctx = RawContext(1, (u1,))
    with pytest.raises(HeadRequired):
        Judgement(ctx, JudgementForm.IS_TM, (u1,), None)
    with pytest.raises(HeadForbidden):
        Judgement(ctx, JudgementForm.TY_EQ, (u1, u1), mk_var(1, 0))
    with pytest.raises(ClassMismatch):
        Judgement(ctx, JudgementForm.IS_TM, (u1,), u1)
    with pytest.raises(ScopeMismatch):
        Judgement(ctx, JudgementForm.IS_TY, (), b(0))
    with pytest.raises(ClassMismatch):
        Boundary(ctx, JudgementForm.IS_TM, (mk_var(1, 0),))
    # copies are built through the constructor, so they are checked too
    assert copy.deepcopy(ctx) == ctx


def test_post_init_runs_on_every_construction(monkeypatch):
    # looked up on the class when a record is built, so a hook set later sees it
    seen = []
    for cls in (RawContext, Judgement, Boundary):
        original = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, original=original: seen.append(self) or original(self))
    ctx, j, bd, _ = _records()
    assert seen == [ctx, j, bd]
    seen.clear()
    extend_context(KIND, ctx, (b(2),))
    twin = pickle.loads(pickle.dumps(j))
    assert [type(r) for r in seen] == [RawContext, RawContext, Judgement] and seen[-1] == twin


def test_judgement_values_are_not_dataclasses():
    assert not any(dataclasses.is_dataclass(c) for c in (RawContext, Judgement, Boundary, ClosureRule))


# --- refusals of the judgement operations ---------------------------------------------

UNIT = SymApp(0, (), 0, TY)


def test_instantiating_over_a_context_of_another_scope_is_refused():
    inst = Instantiation((), 1, ())
    for instantiate in (instantiate_context, instantiate_judgement):
        inner = EMPTY_CONTEXT if instantiate is instantiate_context else is_type(EMPTY_CONTEXT, UNIT)
        with pytest.raises(ScopeMismatch, match="^instantiation over scope 1, context scope 0$"):
            instantiate(ScopeKind.INDICES, inst, EMPTY_CONTEXT, inner)


def test_substituting_along_a_substitution_between_other_contexts_is_refused():
    weaken = Substitution(1, 0, ())  # from a context of one entry into the empty one
    with pytest.raises(ScopeMismatch, match="^substitution endpoints do not match the contexts$"):
        substitute_judgement(ScopeKind.INDICES, weaken, EMPTY_CONTEXT, is_type(EMPTY_CONTEXT, UNIT))


def test_a_head_of_the_other_class_does_not_complete_a_boundary():
    with pytest.raises(ClassMismatch, match="^head of class SyntacticClass.TM, boundary wants SyntacticClass.TY$"):
        complete_boundary(Boundary(EMPTY_CONTEXT, JudgementForm.IS_TY, ()), SymApp(0, (), 0, TM))


def test_presuppositions_refuse_a_form_that_is_none_of_the_four():
    class Forged:
        """What the checks of a judgement's slots read of a form, and none of the four forms."""
        value, boundary_classes, head_class = "Forged", (), None

    with pytest.raises(TypeError, match="Forged"):
        presuppositions(Judgement(EMPTY_CONTEXT, Forged, (), None))
