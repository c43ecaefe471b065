"""Syntax maps, theory maps, and the replacement."""

import random

import pytest

from corpus import THEORY, build_corpus, tt_at
from genexpr import LAW_SIGNATURE, arity, gen_expr, identity_theory_map
from gtt import derive
from gtt.bundled import mltt_base, mltt_pi, type_in_type
from gtt.errors import ArityMismatch, IndexOutOfRange, MissingWitness, WitnessFailure
from gtt.judgements import EMPTY_CONTEXT, JudgementForm, ty_eq
from gtt.maps import (
    EquationStep,
    RawSyntaxMap,
    ReplacementBuilder,
    SymbolStep,
    apply_syntax_map,
    apply_theory_map_derivation,
    compose_syntax_maps,
    identity_syntax_map,
    section_s,
    sequential_boundary_spec,
)
from gtt.metatheory import theory_tightness
from gtt.rules import RawRule, generic_application
from gtt.scopes import ScopeKind
from gtt.syntax import (
    TM,
    TY,
    Instantiation,
    MetaApp,
    Signature,
    Symbol,
    SymApp,
    Var,
    mk_meta,
    mk_sym,
    mv_extend_signature,
)
from gtt.theories import Hyp, RuleInst, check_theory_derivation

KIND = ScopeKind.INDICES


def test_identity_syntax_map_is_identity():
    rng = random.Random(50)
    sig = LAW_SIGNATURE
    m = identity_syntax_map(sig)
    for _ in range(200):
        e = gen_expr(rng, sig, rng.randrange(3), rng.choice([TY, TM]), 3)
        assert apply_syntax_map(m, e) == e


def test_syntax_map_rewrites_constant():
    # the type-in-type example: send a type constant U to El(u)
    tit, _ = type_in_type()
    src = Signature((Symbol("U", TY, ()),) + tit.signature.symbols)
    el_of_u = mk_sym(tit.signature, "El", (mk_sym(tit.signature, "u", (), 0),), 0)
    m = RawSyntaxMap(
        src,
        tit.signature,
        (el_of_u,)
        + tuple(generic_application(tit.signature, s) for s in range(2)),
    )
    u_at = mk_sym(src, "U", (), 0)
    el_of_U = mk_sym(src, "El", (mk_sym(src, "u", (), 0),), 0)
    assert apply_syntax_map(m, u_at) == el_of_u
    assert apply_syntax_map(m, el_of_U) == el_of_u


def test_a_syntax_map_built_on_a_prefix_validates_only_what_follows_it():
    # the prefix map's interpretations were validated when it was built; the
    # new ones are validated here, and a prefix that does not begin the map,
    # in its target, its symbols or its interpretations, is refused
    tit, _ = type_in_type()
    sig = tit.signature
    el_of_u = mk_sym(sig, "El", (mk_sym(sig, "u", (), 0),), 0)
    one = Signature((Symbol("U", TY, ()),), sig.kind)
    two = Signature(one.symbols + (Symbol("V", TY, ()),), sig.kind)
    prefix = RawSyntaxMap(one, sig, (el_of_u,))
    assert RawSyntaxMap(two, sig, (el_of_u, el_of_u), prefix) == RawSyntaxMap(two, sig, (el_of_u, el_of_u))
    bad = SymApp(99, (), 0, TY)
    with pytest.raises(IndexOutOfRange, match="^symbol 99 of 2$"):
        RawSyntaxMap(two, sig, (el_of_u, bad), prefix)
    other = Signature((Symbol("W", TY, ()),) + two.symbols, sig.kind)
    for args in ((two, two, (el_of_u, el_of_u)), (other, sig, (el_of_u,) * 3), (two, sig, (bad, el_of_u))):
        with pytest.raises(ArityMismatch, match="^the prefix map does not begin this map$"):
            RawSyntaxMap(*args, prefix)


def test_syntax_map_composition_functorial():
    rng = random.Random(51)
    sig = LAW_SIGNATURE
    ident = identity_syntax_map(sig)
    comp = compose_syntax_maps(ident, ident)
    assert comp == ident
    for _ in range(200):
        e = gen_expr(rng, sig, rng.randrange(3), rng.choice([TY, TM]), 3)
        assert apply_syntax_map(comp, e) == apply_syntax_map(ident, apply_syntax_map(ident, e))


def test_identity_theory_map_on_corpus():
    f = identity_theory_map(THEORY)
    assert f.check()
    for d, j in build_corpus()[:20]:
        out = apply_theory_map_derivation(f, d)
        assert check_theory_derivation(THEORY, (), out) == j


def test_theory_map_missing_rule_derivation():
    f = identity_theory_map(THEORY)
    partial = f.__class__(f.syntax, f.src, f.dst, {})
    t = tt_at(EMPTY_CONTEXT)
    with pytest.raises(MissingWitness):
        apply_theory_map_derivation(partial, t.d_term)


def test_symbol_step_mltt():
    # the boundary (A type; x:A |- B type) |- [] type is realised by Pi(A, B):
    # the witness derives the image of the new symbol's rule
    sig = THEORY.signature
    ext = mv_extend_signature(sig, arity((TY, 0), (TY, 1)), ("A", "B"))
    A0 = mk_meta(ext, "A", (), 0)
    B1 = mk_meta(ext, "B", (Var(0, 1),), 1)
    spec = sequential_boundary_spec(
        (((), JudgementForm.IS_TY, ()), ((A0,), JudgementForm.IS_TY, ())),
        JudgementForm.IS_TY,
        (),
        ("A", "B"),
    )
    pi = mk_sym(ext, "Pi", (A0, B1), 0)
    witness = RuleInst(
        THEORY.rule_index("Pi-form"),
        Instantiation(arity((TY, 0), (TY, 1)), 0, (A0, B1)),
        EMPTY_CONTEXT,
        (Hyp(0), Hyp(1)),
    )
    builder = ReplacementBuilder(THEORY)
    # a wrong-class realiser is refused, and nothing is committed
    a_term = mk_sym(ext, "lam", (A0, B1, Var(0, 1)), 0)
    with pytest.raises(WitnessFailure, match="^step Pi: realiser witness fails in the target$"):
        builder.add_symbol(SymbolStep("Pi", spec, a_term, witness))
    assert builder.rules == () and builder.syntax.exprs == ()
    assert builder.add_symbol(SymbolStep("Pi", spec, pi, witness)) == 0
    assert builder.syntax.exprs == (pi,)
    assert builder.rule_names == ("Pi", "Pi-cong")


def test_symbol_step_refuses_an_equality_boundary():
    # (A type) |- A == A: the step would name no realiser, whatever it is given
    builder = ReplacementBuilder(THEORY)
    a = MetaApp(0, (), 0, TY)
    boundary = sequential_boundary_spec((((), JudgementForm.IS_TY, ()),), JudgementForm.TY_EQ, (a, a), ("A",))
    with pytest.raises(WitnessFailure, match="^step E: realiser witness fails in the target$"):
        builder.add_symbol(SymbolStep("E", boundary, a, derive.refl_ty(EMPTY_CONTEXT, a, Hyp(0))))
    assert builder.syntax.src.symbols == ()


def test_replacement_script_type_in_type():
    """The worked example: adjoin U, El', u', and the equation U == El'(u')."""
    tit, _ = type_in_type()
    sig = tit.signature
    builder = ReplacementBuilder(tit)

    # step 1: U names the realiser El(u) of the empty type boundary
    el_of_u = mk_sym(sig, "El", (mk_sym(sig, "u", (), 0),), 0)
    d_u = RuleInst(0, Instantiation((), 0, ()), EMPTY_CONTEXT, ())
    d_el_u = RuleInst(
        2, Instantiation(arity((TM, 0)), 0, (mk_sym(sig, "u", (), 0),)), EMPTY_CONTEXT, (d_u,)
    )
    u_boundary = sequential_boundary_spec((), JudgementForm.IS_TY, ())
    U = builder.add_symbol(SymbolStep("U", u_boundary, el_of_u, d_el_u))

    # step 2: El' over a : U, realised by the generic application of El
    bsig = builder.syntax.src
    U_at = SymApp(U, (), 0, TY)
    elp_boundary = sequential_boundary_spec(
        (((), JudgementForm.IS_TM, (U_at,)),),
        JudgementForm.IS_TY,
        (),
        ("a",),
    )
    ext = mv_extend_signature(sig, arity((TM, 0)), ("a",))
    gen_el = generic_application(sig, 1)
    d_el_a = RuleInst(
        2, Instantiation(arity((TM, 0)), 0, (mk_meta(ext, "a", (), 0),)), EMPTY_CONTEXT, (Hyp(0),)
    )
    Elp = builder.add_symbol(SymbolStep("El'", elp_boundary, gen_el, d_el_a))

    # step 3: u', realised by the generic application of u
    up_boundary = sequential_boundary_spec((), JudgementForm.IS_TM, (SymApp(U, (), 0, TY),))
    up = builder.add_symbol(SymbolStep("u'", up_boundary, generic_application(sig, 0), d_u))

    # step 4: the equation U == El'(u')
    bsig = builder.syntax.src
    lhs = SymApp(U, (), 0, TY)
    rhs = SymApp(Elp, (SymApp(up, (), 0, TM),), 0, TY)
    eq_rule = RawRule((), (), ty_eq(EMPTY_CONTEXT, lhs, rhs))
    from gtt import derive

    refl = derive.refl_ty(EMPTY_CONTEXT, el_of_u, d_el_u)
    builder.add_equation(EquationStep("U-unfold", eq_rule, refl))

    assert [s.name for s in builder.syntax.src.symbols] == ["U", "El'", "u'"]
    assert builder.rule_names == ("U", "U-cong", "El'", "El'-cong", "u'", "u'-cong", "U-unfold")
    assert builder.check_well_founded()
    # the factorisation commutes: mapping the new symbols into the target
    t = builder.syntax
    assert apply_syntax_map(t, lhs) == el_of_u
    assert apply_syntax_map(t, rhs) == el_of_u


def test_replacement_rejects_bad_witness():
    tit, _ = type_in_type()
    builder = ReplacementBuilder(tit)
    boundary = sequential_boundary_spec((), JudgementForm.IS_TY, ())
    el_of_u = mk_sym(tit.signature, "El", (mk_sym(tit.signature, "u", (), 0),), 0)
    bad_witness = Hyp(0)
    with pytest.raises(WitnessFailure):
        builder.add_symbol(SymbolStep("U", boundary, el_of_u, bad_witness))


def test_empty_step_list_builder():
    tit, _ = type_in_type()
    builder = ReplacementBuilder(tit)
    assert builder.theory().rules == ()
    assert builder.syntax.exprs == ()
    assert builder.check_well_founded()


@pytest.mark.parametrize("fn", [mltt_pi, mltt_base, type_in_type])
def test_section_exists_and_splits(fn):
    theory, witnesses = fn()
    builder, s = section_s(theory, witnesses)
    t = builder.syntax
    assert compose_syntax_maps(t, s.syntax) == identity_syntax_map(theory.signature)
    assert builder.check_well_founded()


def test_section_type_in_type_names_the_paper_symbols():
    theory, witnesses = type_in_type()
    builder, s_map = section_s(theory, witnesses)
    s = s_map.syntax
    names = [sym.name for sym in builder.syntax.src.symbols]
    # the first symbol is the type constant for El(u), the paper's U
    assert names[0] == "c.u-intro.ty"
    el_of_u = mk_sym(theory.signature, "El", (mk_sym(theory.signature, "u", (), 0),), 0)
    assert builder.syntax.exprs[0] == el_of_u
    # s sends El to the generic application of its c-symbol
    el_image = s.exprs[1]
    assert isinstance(el_image, SymApp)
    assert builder.syntax.src.symbol(el_image.sym).name == "c.El"
    assert apply_syntax_map(builder.syntax, el_image) == generic_application(
        theory.signature, 1
    )


def test_section_derives_symbol_rules():
    # d maps a derivable |- A type boundary to a symbol rule of the builder:
    # every c-symbol's rule is a symbol rule by construction
    theory, witnesses = type_in_type()
    builder, _ = section_s(theory, witnesses)
    built = builder.theory()
    beta = theory_tightness(built)
    assert set(beta.values()) == {
        i for i, r in enumerate(built.rules) if r.is_object
    }
