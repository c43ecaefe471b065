"""The substitution algebra and the instantiation equations.

Every law is asserted as exact structural equality on randomly generated
well-scoped expressions; strict de Bruijn scopes make even the
associativity of instantiation hold on the nose.  The renaming and
substitution laws run in both scope systems: indices and levels share the
tree but not the arithmetic under binders.
"""

import copy
import dataclasses
import pickle
import random
from functools import partial

import pytest

from genexpr import (
    LAW_SIGNATURE,
    arity,
    compound_map,
    gen_expr,
    gen_instantiation,
    gen_renaming,
    gen_subst,
    gen_template,
    generic_occurrence,
    twin_map,
)
from naive import (
    identity_renaming,
    inr_renaming,
    naive_extend,
    naive_instantiate,
    naive_rename,
    naive_substitute,
    table_instantiate,
)
from gtt.errors import ArityMismatch, ClassMismatch, IndexOutOfRange, ScopeMismatch
from gtt.judgements import EMPTY_CONTEXT
from gtt.maps import apply_syntax_map, compose_syntax_maps, identity_syntax_map
from gtt.metatheory import (
    compose_subst,
    inst_act_inst,
    inst_act_subst,
    subst_act_inst,
)
from gtt.presentation import map_expr, relabel_metas
from gtt.scopes import Renaming, ScopeKind, inl_renaming
from gtt.syntax import (
    TM,
    TY,
    Argument,
    Instantiation,
    MetaApp,
    Signature,
    Substitution,
    Symbol,
    SymApp,
    Var,
    extend_substitution,
    generic_instantiation,
    instantiate_expr,
    mk_meta,
    mk_sym,
    mk_var,
    mv_extend_signature,
    simple_arity,
    substitute_expr,
    validate_expr,
    weaken_expr,
)

SIG = LAW_SIGNATURE
KIND = SIG.kind

# The law signature in each scope system: same symbols, different arithmetic.
KIND_SIGS = tuple((kind, Signature(SIG.symbols, kind)) for kind in ScopeKind)


def b(scope=0):
    return mk_sym(SIG, "b", (), scope)


def el(t):
    return mk_sym(SIG, "el", (t,), t.scope)


# --- constructors validate ----------------------------------------------------

def test_constructor_validation():
    with pytest.raises(IndexOutOfRange):
        mk_var(0, 0)
    with pytest.raises(ArityMismatch):
        mk_sym(SIG, "pi", (b(0),), 0)
    with pytest.raises(ClassMismatch):
        mk_sym(SIG, "el", (b(0),), 0)
    with pytest.raises(ScopeMismatch):
        mk_sym(SIG, "pi", (b(0), b(0)), 0)
    pi = mk_sym(SIG, "pi", (b(0), b(1)), 0)
    validate_expr(SIG, pi, 0, TY)


def test_substitution_table_validation():
    # one entry per position of dst, each a term over src
    with pytest.raises(ScopeMismatch, match="table of length 0"):
        Substitution(1, 1, ())
    with pytest.raises(ClassMismatch, match="must be terms"):
        Substitution(0, 1, (b(0),))
    with pytest.raises(ScopeMismatch, match="entry in scope 2, expected 1"):
        Substitution(1, 1, (mk_var(2, 0),))
    Substitution(1, 1, (mk_var(1, 0),))


def test_generator_produces_valid_trees():
    rng = random.Random(0)
    for _ in range(300):
        scope = rng.randrange(4)
        cls = rng.choice([TY, TM])
        e = gen_expr(rng, SIG, scope, cls, 4)
        validate_expr(SIG, e, scope, cls)


# --- renaming -----------------------------------------------------------------

def test_rename_identity_and_simple():
    rng = random.Random(1)
    for _ in range(100):
        e = gen_expr(rng, SIG, 3, rng.choice([TY, TM]), 3)
        assert substitute_expr(KIND, Substitution.of_renaming(identity_renaming(3)), e) == e
    r = Renaming(1, 2, (1,))
    assert substitute_expr(KIND, Substitution.of_renaming(r), mk_var(1, 0)) == mk_var(2, 1)


def test_rename_against_depth_tracking_oracle():
    for kind, sig in KIND_SIGS:
        rng = random.Random(2)
        for _ in range(300):
            src = rng.randrange(1, 4)
            dst = rng.randrange(1, 4)
            k = rng.randrange(3)
            r = gen_renaming(rng, src, dst)
            e = gen_expr(rng, sig, src + k, rng.choice([TY, TM]), 3)
            assert substitute_expr(kind, Substitution.of_renaming(r), e, k) == naive_rename(kind, r, e, k), kind


def test_substitute_against_table_oracle():
    # (f, lift k) applied on lookup agrees with the table extended per binder
    for kind, sig in KIND_SIGS:
        rng = random.Random(3)
        for _ in range(1100):
            src, dst, k = rng.randrange(4), rng.randrange(4), rng.randrange(3)
            f = gen_subst(rng, sig, src, dst)
            e = gen_expr(rng, sig, dst + k, rng.choice([TY, TM]), 3)
            assert substitute_expr(kind, f, e, k) == naive_substitute(kind, naive_extend(kind, f, k), e), kind


def test_weakening_shifts_free_keeps_bound():
    for kind, sig in KIND_SIGS:
        def pi_el(scope, pos):
            # pi(b, el(x)) in ``scope``; x is a position of scope + 1
            return mk_sym(sig, "pi", (b(scope), el(mk_var(scope + 1, pos))), scope)

        # pi(b, el(x0)) in scope 1; weakening by 2 shifts the free variable only
        free = kind.inl(1, 1, 0)
        w = weaken_expr(kind, pi_el(1, free), 2)
        assert w == pi_el(3, kind.inl(3, 1, kind.inl(1, 2, 0))), kind
        # the variable bound by pi keeps its binder
        bound = kind.inr(1, 1, 0)
        w2 = weaken_expr(kind, pi_el(1, bound), 1)
        assert w2 == pi_el(2, kind.inr(2, 1, 0)), kind
        assert weaken_expr(kind, pi_el(1, bound), 1) == naive_rename(kind, inl_renaming(kind, 1, 1), pi_el(1, bound))


# --- the five substitution laws (exact, >= 1000 cases each run) ----------------

N_LAW_CASES = 1100


def law_cases(seed):
    rng = random.Random(seed)
    for _ in range(N_LAW_CASES):
        gamma = rng.randrange(4)
        delta = rng.randrange(4)
        theta = rng.randrange(4)
        yield rng, gamma, delta, theta


def test_law_substitution_generalises_renaming():
    for kind, sig in KIND_SIGS:
        for rng, gamma, delta, _ in law_cases(10):
            if gamma == 0 and delta > 0:
                gamma = 1
            r = gen_renaming(rng, delta, gamma)
            e = gen_expr(rng, sig, delta, rng.choice([TY, TM]), 3)
            assert substitute_expr(kind, Substitution.of_renaming(r), e) == naive_rename(kind, r, e)


def test_law_identity_substitution():
    for kind, sig in KIND_SIGS:
        for rng, gamma, _, _ in law_cases(11):
            e = gen_expr(rng, sig, gamma, rng.choice([TY, TM]), 3)
            assert substitute_expr(kind, Substitution.identity(gamma), e) == e


def test_law_substitution_commutes_with_renaming():
    for kind, sig in KIND_SIGS:
        for rng, gamma, delta, theta in law_cases(12):
            # act r (tca f e) = tca (i -> act r f(i)) e
            gp = max(1, theta)
            f = gen_subst(rng, sig, gamma, delta)
            r = gen_renaming(rng, gamma, gp)
            e = gen_expr(rng, sig, delta, rng.choice([TY, TM]), 2)
            sr = Substitution.of_renaming(r)
            lhs = substitute_expr(kind, sr, substitute_expr(kind, f, e))
            rf = Substitution(gp, delta, tuple(substitute_expr(kind, sr, f(i)) for i in range(delta)))
            assert lhs == substitute_expr(kind, rf, e)

            # tca f (act r e) = tca (i -> f(r(i))) e  with r into f's target scope
            if delta == 0:
                continue
            r2_src = max(1, gamma)
            f2 = gen_subst(rng, sig, theta, delta)
            r2 = gen_renaming(rng, r2_src, delta)
            e2 = gen_expr(rng, sig, r2_src, rng.choice([TY, TM]), 2)
            lhs2 = substitute_expr(kind, f2, substitute_expr(kind, Substitution.of_renaming(r2), e2))
            fr = Substitution(theta, r2_src, tuple(f2(r2(i)) for i in range(r2_src)))
            assert lhs2 == substitute_expr(kind, fr, e2)


def test_law_substitution_respects_composition():
    for kind, sig in KIND_SIGS:
        for rng, gamma, delta, theta in law_cases(13):
            f = gen_subst(rng, sig, gamma, delta)
            g = gen_subst(rng, sig, delta, theta)
            e = gen_expr(rng, sig, theta, rng.choice([TY, TM]), 2)
            assert substitute_expr(kind, f, substitute_expr(kind, g, e)) == substitute_expr(
                kind, compose_subst(kind, g, f), e
            )


def test_law_composition_unital_associative():
    for kind, sig in KIND_SIGS:
        for rng, gamma, delta, theta in law_cases(14):
            f = gen_subst(rng, sig, gamma, delta)
            assert compose_subst(kind, f, Substitution.identity(gamma)) == f
            assert compose_subst(kind, Substitution.identity(delta), f) == f
            eta = rng.randrange(4)
            g = gen_subst(rng, sig, delta, theta)
            h = gen_subst(rng, sig, theta, eta)
            lhs = compose_subst(kind, h, compose_subst(kind, g, f))
            rhs = compose_subst(kind, compose_subst(kind, h, g), f)
            assert lhs == rhs


def test_extend_substitution_clauses():
    for kind, sig in KIND_SIGS:
        rng = random.Random(15)
        # identity extends to identity; extension by zero is the map itself
        for gamma in range(4):
            for eta in range(3):
                assert extend_substitution(kind, Substitution.identity(gamma), eta) == Substitution.identity(gamma + eta)
        f = Substitution(0, 1, (mk_sym(sig, "lam", (b(0), b(1), mk_var(1, 0)), 0),))
        ext = extend_substitution(kind, f, 1)
        assert ext.src == 1 and ext.dst == 2
        # bound position keeps itself, old entry is weakened
        assert ext(kind.inr(1, 1, 0)) == mk_var(1, kind.inr(0, 1, 0))
        assert ext(kind.inl(1, 1, 0)) == weaken_expr(kind, f(0), 1)
        for _ in range(200):
            g = gen_subst(rng, sig, rng.randrange(3), rng.randrange(3))
            assert extend_substitution(kind, g, 0) == g
            eta = rng.randrange(1, 3)
            assert extend_substitution(kind, g, eta) == naive_extend(kind, g, eta), kind


# --- metavariable extensions and instantiation ---------------------------------

APP_ARITY = arity((TY, 0), (TY, 1), (TM, 0), (TM, 0))
LAM_ARITY = arity((TY, 0), (TY, 1), (TM, 1))


def test_mv_extend_signature_lambda():
    ext = mv_extend_signature(SIG, LAM_ARITY, ("A", "B", "t"))
    assert ext.base_count == SIG.base_count and ext.mv_count == 3
    assert ext.mv_class(0) is TY and ext.mv_binder(0) == 0
    assert ext.mv_class(1) is TY and ext.mv_binder(1) == 1
    assert ext.mv_class(2) is TM and ext.mv_binder(2) == 1
    assert [ext.mv_name(i) for i in range(3)] == ["A", "B", "t"]


def test_mv_extend_empty_arity():
    ext = mv_extend_signature(SIG, ())
    assert ext.base_count == SIG.base_count and ext.mv_count == 0


def test_simple_arity():
    assert simple_arity(0) == ()
    assert simple_arity(1) == (Argument(TM, 0),)
    assert simple_arity(3) == (Argument(TM, 0),) * 3


@pytest.mark.parametrize("kind", list(ScopeKind))
def test_a_value_that_is_not_an_expression_is_refused(kind):
    # a context where an expression belongs: it has a scope, so it passes
    # the scope checks, and then matches none of the expression classes
    with pytest.raises(TypeError, match="not an expression: RawContext"):
        weaken_expr(kind, EMPTY_CONTEXT, 1)
    with pytest.raises(TypeError, match="not an expression: RawContext"):
        substitute_expr(kind, Substitution(0, 0, ()), EMPTY_CONTEXT)
    with pytest.raises(TypeError, match="not an expression: RawContext"):
        instantiate_expr(kind, Instantiation((), 0, ()), EMPTY_CONTEXT)


def test_instantiate_app_conclusion_type():
    # over Sigma+arity(app): the conclusion type B(t); instantiating with
    # (A, B, s, t) must give B with t substituted for the bound variable
    ext = mv_extend_signature(SIG, APP_ARITY, ("A", "B", "s", "t"))
    b_of_t = mk_meta(ext, "B", (mk_meta(ext, "t", (), 0),), 0)
    A = b(0)
    B = el(mk_var(1, 0))  # el(x) over scope 1
    s = mk_sym(SIG, "lam", (b(0), b(1), mk_var(1, 0)), 0)
    t = mk_sym(SIG, "lam", (b(0), b(1), mk_var(1, 0)), 0)
    I = Instantiation(APP_ARITY, 0, (A, B, s, t))
    out = instantiate_expr(KIND, I, b_of_t)
    assert out == el(t)  # B[t/x] computed by hand


def test_instantiate_expr_without_metas_weakens():
    for kind, sig in KIND_SIGS:
        rng = random.Random(16)
        for _ in range(200):
            gamma, delta = rng.randrange(3), rng.randrange(3)
            e = gen_expr(rng, sig, delta, rng.choice([TY, TM]), 3)
            I = gen_instantiation(rng, sig, APP_ARITY, gamma)
            out = instantiate_expr(kind, I, e)
            # no metavariables: the action is exactly the right coproduct inclusion
            assert out == substitute_expr(kind, Substitution.of_renaming(inr_renaming(kind, gamma, delta)), e), kind


def ext_sig(alpha, names=(), sig=SIG):
    return mv_extend_signature(sig, alpha, names)


def gen_over_ext(rng, alpha, scope, depth=3, sig=SIG):
    return gen_expr(rng, ext_sig(alpha, sig=sig), scope, rng.choice([TY, TM]), depth)


# --- instantiation against the table-per-occurrence oracle -----------------------

def is_generic(e):
    return type(e) is MetaApp and e.args == tuple(Var(j, e.scope) for j in range(e.scope))


def subterms(e):
    yield e
    if type(e) is not Var:
        for a in e.args:
            yield from subterms(a)


def test_instantiate_against_table_oracle():
    from genexpr import gen_arity

    for kind, sig in KIND_SIGS:
        rng = random.Random(27)
        generic = 0
        for _ in range(1100):
            alpha = gen_arity(rng)
            ext = ext_sig(alpha, sig=sig)
            gamma = rng.randrange(3)
            # half the templates sit in the scope of one metavariable's binder
            delta = rng.choice(alpha).binder if alpha and rng.random() < 0.5 else rng.randrange(3)
            e = gen_template(rng, ext, delta, rng.choice([TY, TM]), 3)
            I = gen_instantiation(rng, sig, alpha, gamma)
            generic += any(map(is_generic, subterms(e)))
            assert instantiate_expr(kind, I, e) == naive_instantiate(kind, I, e), kind
        assert generic >= 400, generic


def is_weakening(e):
    """M(x_0 ... x_{b-1}) in a scope larger than its b arguments."""
    if type(e) is not MetaApp:
        return False
    b = len(e.args)
    return e.scope > b and e.args == tuple(Var(j, e.scope) for j in range(b))


def test_weakening_occurrences_against_the_table_oracle():
    # An occurrence M(x_0 ... x_{b-1}) in a scope delta > b is instantiated
    # by one shift of its entry; building and substituting its table
    # (table_instantiate) gives the same tree, and so does the textbook
    # oracle.
    from genexpr import gen_arity

    for kind, sig in KIND_SIGS:
        rng = random.Random(30)
        weakening = bound = 0
        for _ in range(600):
            alpha = gen_arity(rng)
            ext = ext_sig(alpha, sig=sig)
            gamma, delta = rng.randrange(3), rng.randrange(4)
            e = gen_template(rng, ext, delta, rng.choice([TY, TM]), 3, weakening=True)
            I = gen_instantiation(rng, sig, alpha, gamma)
            found = [s for s in subterms(e) if is_weakening(s)]
            weakening += len(found)
            bound += sum(1 for s in found if s.args)
            got = instantiate_expr(kind, I, e)
            assert got == table_instantiate(kind, I, e), kind
            assert got == naive_instantiate(kind, I, e), kind
        assert weakening >= 400 and bound >= 200, (weakening, bound)


def test_generic_occurrence_returns_its_entry():
    alpha = arity((TY, 0), (TY, 1), (TM, 2))
    for kind, sig in KIND_SIGS:
        rng = random.Random(28)
        ext = ext_sig(alpha, sig=sig)
        for _ in range(50):
            I = gen_instantiation(rng, sig, alpha, rng.randrange(3))
            for m, slot in enumerate(alpha):
                assert instantiate_expr(kind, I, generic_occurrence(ext, m, slot.binder)) is I(m)


def outcome(fn, *args):
    """The value of a call, or the class of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared with the oracle's failure
        return type(exc)


def test_near_generic_occurrence_substitutes():
    # Each template misses the generic pattern in one way and must give
    # what the table gives, value or failure, not the entry itself.
    alpha = arity((TY, 0), (TM, 1), (TY, 2))
    for kind, sig in KIND_SIGS:
        ext = ext_sig(alpha, sig=sig)
        rng = random.Random(29)
        for _ in range(50):
            gamma = rng.randrange(3)
            I = gen_instantiation(rng, sig, alpha, gamma, depth=3)
            near = [
                # swapped arguments
                mk_meta(ext, 2, (mk_var(2, 1), mk_var(2, 0)), 2),
                # a scope other than the binder, delta != binder: a weakening
                mk_meta(ext, 0, (), 1),
                mk_meta(ext, 1, (mk_var(2, 0),), 2),
                mk_meta(ext, 2, (mk_var(3, 0), mk_var(3, 1)), 3),
                # fewer arguments than the binder (malformed: no mk_meta)
                MetaApp(2, (mk_var(2, 0),), 2, TY),
                MetaApp(1, (), 1, TM),
            ]
            for e in near:
                got = outcome(instantiate_expr, kind, I, e)
                assert got == outcome(naive_instantiate, kind, I, e), (kind, e)
                assert got is not I(e.idx)


# --- the instantiation boilerplate (>= 500 tuples) ------------------------------

N_BOILER = 520


def boiler_cases(seed, n=N_BOILER):
    rng = random.Random(seed)
    from genexpr import gen_arity

    for _ in range(n):
        alpha = gen_arity(rng)
        gamma = rng.randrange(3)
        delta = rng.randrange(3)
        yield rng, alpha, gamma, delta


def syntax_maps(sig=SIG):
    """A simple map (onto the twin signature) and a non-simple one, each with
    its number of boilerplate cases: the non-simple map doubles the body of
    every pi, so its images grow fast with depth and it runs a quarter."""
    return (twin_map(sig), N_BOILER), (compound_map(sig), N_BOILER // 4)


def test_boilerplate_translation_functorial():
    # the identity map fixes every instantiation; a composite acts as its
    # two maps in turn, here the twin map after the non-simple map
    for kind, sig in KIND_SIGS:
        idm = identity_syntax_map(sig)
        (F, _), (C, n) = syntax_maps(sig)
        assert compose_syntax_maps(F, idm).exprs == F.exprs
        assert compose_syntax_maps(C, idm).exprs == C.exprs
        FC = compose_syntax_maps(F, C)
        for k, (rng, alpha, gamma, _) in enumerate(boiler_cases(20)):
            I = gen_instantiation(rng, sig, alpha, gamma)
            assert I.map_exprs(partial(apply_syntax_map, idm)) == I
            if k < n:
                once = I.map_exprs(partial(apply_syntax_map, C)).map_exprs(partial(apply_syntax_map, F))
                assert I.map_exprs(partial(apply_syntax_map, FC)) == once


def test_boilerplate_naturality_wrt_signature_maps():
    # a syntax map fixes the metavariables of an extension, so the same map
    # acts on expressions over the base and over the extension
    from genexpr import gen_arity

    for kind, sig in KIND_SIGS:
        for F, n in syntax_maps(sig):
            fn = partial(apply_syntax_map, F)
            for rng, alpha, gamma, delta in boiler_cases(21, n):
                I = gen_instantiation(rng, sig, alpha, gamma)
                FI = I.map_exprs(fn)
                e = gen_over_ext(rng, alpha, delta, sig=sig)
                assert fn(instantiate_expr(kind, I, e)) == instantiate_expr(kind, FI, fn(e))
                dp = rng.randrange(3)
                f = gen_subst(rng, ext_sig(alpha, sig=sig), dp, delta)
                assert inst_act_subst(kind, I, f).map_exprs(fn) == inst_act_subst(kind, FI, f.map_exprs(fn))
                beta = gen_arity(rng)
                J = gen_instantiation(rng, ext_sig(alpha, sig=sig), beta, delta)
                assert inst_act_inst(kind, I, J).map_exprs(fn) == inst_act_inst(kind, FI, J.map_exprs(fn))
                g = gen_subst(rng, sig, dp, gamma)
                assert subst_act_inst(kind, g, I).map_exprs(fn) == subst_act_inst(kind, g.map_exprs(fn), FI)


def test_boilerplate_substitution_action_functorial():
    for kind, sig in KIND_SIGS:
        for rng, alpha, gamma, delta in boiler_cases(22):
            I = gen_instantiation(rng, sig, alpha, gamma)
            assert subst_act_inst(kind, Substitution.identity(gamma), I) == I
            theta = rng.randrange(3)
            f = gen_subst(rng, sig, delta, gamma)
            g = gen_subst(rng, sig, theta, delta)
            lhs = subst_act_inst(kind, compose_subst(kind, f, g), I)
            rhs = subst_act_inst(kind, g, subst_act_inst(kind, f, I))
            assert lhs == rhs


def test_boilerplate_naturality_wrt_substitutions():
    for kind, sig in KIND_SIGS:
        for rng, alpha, gamma, delta in boiler_cases(23):
            I = gen_instantiation(rng, sig, alpha, gamma)
            e = gen_over_ext(rng, alpha, delta, sig=sig)
            gp = rng.randrange(3)
            f = gen_subst(rng, sig, gp, gamma)
            lhs = instantiate_expr(kind, subst_act_inst(kind, f, I), e)
            rhs = substitute_expr(kind, extend_substitution(kind, f, delta), instantiate_expr(kind, I, e))
            assert lhs == rhs
            dp = rng.randrange(3)
            g = gen_subst(rng, ext_sig(alpha, sig=sig), dp, delta)
            lhs2 = instantiate_expr(kind, I, substitute_expr(kind, g, e))
            rhs2 = substitute_expr(kind, inst_act_subst(kind, I, g), instantiate_expr(kind, I, e))
            assert lhs2 == rhs2


def test_boilerplate_associativity_exact():
    from genexpr import gen_arity

    for kind, sig in KIND_SIGS:
        for rng, alpha, gamma, delta in boiler_cases(24):
            beta = gen_arity(rng)
            theta = rng.randrange(3)
            I = gen_instantiation(rng, sig, alpha, gamma)
            J = gen_instantiation(rng, ext_sig(alpha, sig=sig), beta, delta)
            sig_two = mv_extend_signature(ext_sig(alpha, sig=sig), beta)
            e = gen_expr(rng, sig_two, theta, rng.choice([TY, TM]), 2)
            lhs = instantiate_expr(kind, inst_act_inst(kind, I, J), e)
            rhs = instantiate_expr(kind, I, instantiate_expr(kind, J, e))
            assert lhs == rhs


def test_generic_instantiation_is_identity():
    from genexpr import gen_arity

    for kind, sig in KIND_SIGS:
        rng = random.Random(25)
        for _ in range(200):
            alpha = gen_arity(rng)
            ext = ext_sig(alpha, sig=sig)
            delta = rng.randrange(3)
            e = gen_expr(rng, ext, delta, rng.choice([TY, TM]), 3)
            I = generic_instantiation(alpha)
            assert I.scope == 0
            assert instantiate_expr(kind, I, e) == e
            assert map_expr(e, lambda v: v, lambda m: m, 0) == e
            assert I.exprs == tuple(generic_occurrence(ext, m, a.binder) for m, a in enumerate(alpha))


def test_shifted_generic_instantiation_relabels_into_the_second_copy():
    # shifted by n, the generic instantiation sends each metavariable m of
    # alpha to metavariable m + n of alpha + alpha and changes nothing else
    from genexpr import gen_arity

    def shift(e, n):
        if isinstance(e, MetaApp):
            return MetaApp(e.idx + n, tuple(shift(a, n) for a in e.args), e.scope, e.cls)
        if isinstance(e, SymApp):
            return e._replace(args=tuple(shift(a, n) for a in e.args))
        return e

    for kind, sig in KIND_SIGS:
        rng = random.Random(27)
        for _ in range(200):
            alpha = gen_arity(rng)
            n = len(alpha)
            e = gen_expr(rng, ext_sig(alpha, sig=sig), rng.randrange(3), rng.choice([TY, TM]), 3)
            out = instantiate_expr(kind, generic_instantiation(alpha, n), e)
            assert out == shift(e, n) == relabel_metas(e, lambda m: m + n)
            validate_expr(ext_sig(alpha + alpha, sig=sig), out, e.scope, e.cls)


def test_translate_commutes_with_rename():
    rng = random.Random(26)
    for F, n in syntax_maps():
        for _ in range(300 * n // N_BOILER):
            src = rng.randrange(1, 4)
            dst = rng.randrange(1, 4)
            r = gen_renaming(rng, src, dst)
            e = gen_expr(rng, SIG, src, rng.choice([TY, TM]), 3)
            sr = Substitution.of_renaming(r)
            assert apply_syntax_map(F, substitute_expr(KIND, sr, e)) == substitute_expr(
                KIND, sr, apply_syntax_map(F, e)
            )


# --- expressions are tuple records -------------------------------------------

def _expressions():
    v = Var(0, 1)
    return (v, SymApp(0, (), 1, TY), MetaApp(2, (v,), 1, TM))


def test_records_of_different_classes_are_unequal():
    assert SymApp(0, (), 0, TY) != MetaApp(0, (), 0, TY)
    assert len({SymApp(0, (), 0, TY), MetaApp(0, (), 0, TY)}) == 2
    # nor is a record equal to a tuple of its fields
    assert Var(0, 1) != (0, 1)


def test_equal_records_have_equal_hashes():
    for e in _expressions():
        twin = type(e)(*(getattr(e, f) for f in type(e).__match_args__))
        assert twin == e and twin is not e
        assert hash(twin) == hash(e)


def test_record_fields_cannot_be_assigned():
    for e in _expressions():
        for f in type(e).__match_args__:
            with pytest.raises(AttributeError):
                setattr(e, f, 0)
            with pytest.raises(AttributeError):
                delattr(e, f)
        with pytest.raises(AttributeError):
            e.note = "extra"


def test_records_copy_deepcopy_and_pickle():
    for e in _expressions():
        for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert type(twin) is type(e)
            assert twin == e


def test_expression_reprs():
    # the strings the frozen dataclasses printed
    assert list(map(repr, _expressions())) == [
        "Var(pos=0, scope=1)",
        "SymApp(sym=0, args=(), scope=1, cls=<SyntacticClass.TY: 'Ty'>)",
        "MetaApp(idx=2, args=(Var(pos=0, scope=1),), scope=1, cls=<SyntacticClass.TM: 'Tm'>)",
    ]


def test_class_patterns_bind_record_fields():
    v, s, m = _expressions()
    match SymApp(3, (v,), 1, TY):
        case SymApp(sym=sym, args=args):
            assert (sym, args) == (3, (v,))
        case _:
            pytest.fail("keyword pattern did not match")
    match v:
        case Var(p, n):
            assert (p, n) == (0, 1)
        case _:
            pytest.fail("positional pattern did not match")
    match m:
        case SymApp():
            pytest.fail("a MetaApp matched SymApp")
        case MetaApp(idx=i, scope=n, cls=c):
            assert (i, n, c) == (2, 1, TM)
    assert v.cls is TM


def test_expressions_are_not_dataclasses():
    assert not any(dataclasses.is_dataclass(c) for c in (Var, SymApp, MetaApp))


# --- the signature's refusals -------------------------------------------------------

def test_a_signature_refuses_a_repeated_symbol_and_a_name_list_of_another_length():
    unit = Symbol("unit", TY, ())
    with pytest.raises(ArityMismatch) as caught:
        Signature((unit, unit))
    assert str(caught.value) == "duplicate symbol names in signature: ['unit', 'unit']"
    with pytest.raises(ArityMismatch, match="^metavariable name list does not match arity length$"):
        mv_extend_signature(Signature((unit,)), arity((TM, 0), (TY, 1)), ("x",))


def test_a_signature_refuses_an_unknown_symbol_name_and_metavariable():
    sig = mv_extend_signature(Signature((Symbol("unit", TY, ()),)), arity((TM, 0)), ("x",))
    with pytest.raises(IndexOutOfRange, match="^no symbol named 'tt'$"):
        sig.symbol_index("tt")
    for read in (sig.mv_class, sig.mv_binder, sig.mv_name):
        with pytest.raises(IndexOutOfRange, match="^metavariable 1 of 1$"):
            read(1)
    with pytest.raises(IndexOutOfRange, match="^metavariable 0 of 0$"):
        Signature(()).mv_class(0)
