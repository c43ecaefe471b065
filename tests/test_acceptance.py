"""The acceptance suite: one test per criterion, at the stated tolerances.

Every expected value here is either computed by an independent oracle,
verified against the worked examples, or asserted exactly; timing bounds
are enforced with a monotonic clock.
"""

import json
import pathlib
import random
import time
from functools import partial

import pytest

from corpus import (
    THEORY,
    WITNESSES,
    build_corpus,
    hypothetical_app_rule,
    substitution_corpus,
)
from genexpr import (
    LAW_SIGNATURE,
    compound_map,
    gen_arity,
    gen_expr,
    gen_instantiation,
    gen_renaming,
    gen_subst,
    twin_map,
)
from naive import naive_rename
from gtt import derive
from gtt import bundled
from gtt.bundled import (
    cyclic_quantifier,
    mltt_base,
    mltt_pi,
    mltt_pi_presented,
    type_in_type,
)
from gtt.judgements import EMPTY_CONTEXT, JudgementForm, is_term, presuppositions, ty_eq
from gtt.jsonio import dumps
from gtt.maps import apply_syntax_map, identity_syntax_map
from gtt.metatheory import (
    check_acceptable_theory,
    check_presuppositive,
    check_well_founded_theory,
    compose_subst,
    derive_presuppositions,
    eliminate_substitution,
    inst_act_inst,
    inst_act_subst,
    invert,
    is_canonical_inversion,
    is_substitution_free,
    is_tight,
    natural_type,
    subst_act_inst,
    unique_typing,
    unique_typing_acceptable,
)
from gtt.presentation import elaborate_theory
from gtt.scopes import ScopeKind
from gtt.syntax import (
    TM,
    TY,
    Substitution,
    extend_substitution,
    instantiate_expr,
    mv_extend_signature,
    substitute_expr,
)
from gtt.theories import check_theory_derivation

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
KIND = ScopeKind.INDICES
SIG = LAW_SIGNATURE


@pytest.mark.criterion(1, "substitution algebra")
def test_criterion_1_substitution_laws():
    rng = random.Random(2026)
    start = time.monotonic()
    cases = 0
    while cases < 1000:
        gamma, delta, theta = rng.randrange(4), rng.randrange(1, 4), rng.randrange(4)
        e = gen_expr(rng, SIG, delta, rng.choice([TY, TM]), 4)
        f = gen_subst(rng, SIG, gamma, delta)
        # law 1: substitution generalises renaming
        r = gen_renaming(rng, delta, max(1, gamma))
        assert substitute_expr(KIND, Substitution.of_renaming(r), e) == naive_rename(KIND, r, e)
        # law 2: identity
        assert substitute_expr(KIND, Substitution.identity(delta), e) == e
        # law 3: commutation with renaming, both ways
        r2 = gen_renaming(rng, gamma, max(1, theta))
        sr2 = Substitution.of_renaming(r2)
        lhs = substitute_expr(KIND, sr2, substitute_expr(KIND, f, e))
        rf = Substitution(max(1, theta), delta, tuple(substitute_expr(KIND, sr2, f(i)) for i in range(delta)))
        assert lhs == substitute_expr(KIND, rf, e)
        r3 = gen_renaming(rng, max(1, gamma), delta)
        e3 = gen_expr(rng, SIG, max(1, gamma), rng.choice([TY, TM]), 3)
        f3 = gen_subst(rng, SIG, theta, delta)
        fr = Substitution(theta, max(1, gamma), tuple(f3(r3(i)) for i in range(max(1, gamma))))
        renamed = substitute_expr(KIND, Substitution.of_renaming(r3), e3)
        assert substitute_expr(KIND, f3, renamed) == substitute_expr(KIND, fr, e3)
        # law 4: composition
        g = gen_subst(rng, SIG, delta, theta)
        e4 = gen_expr(rng, SIG, theta, rng.choice([TY, TM]), 3)
        assert substitute_expr(KIND, f, substitute_expr(KIND, g, e4)) == substitute_expr(
            KIND, compose_subst(KIND, g, f), e4
        )
        # law 5: unitality and associativity of composition
        assert compose_subst(KIND, f, Substitution.identity(gamma)) == f
        assert compose_subst(KIND, Substitution.identity(delta), f) == f
        eta = rng.randrange(3)
        h = gen_subst(rng, SIG, theta, eta)
        assert compose_subst(KIND, h, compose_subst(KIND, g, f)) == compose_subst(
            KIND, compose_subst(KIND, h, g), f
        )
        cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


@pytest.mark.criterion(2, "instantiation boilerplate")
def test_criterion_2_instantiation_boilerplate():
    rng = random.Random(2027)
    start = time.monotonic()
    # a simple map, and on every fourth case a map that is not simple; both
    # fix metavariables, so one map acts over the base and the extension
    simple, compound = twin_map(), compound_map()
    identity = partial(apply_syntax_map, identity_syntax_map(SIG))
    cases = 0
    while cases < 500:
        alpha = gen_arity(rng)
        beta = gen_arity(rng)
        gamma, delta, theta = rng.randrange(3), rng.randrange(3), rng.randrange(3)
        ext = mv_extend_signature(SIG, alpha)
        I = gen_instantiation(rng, SIG, alpha, gamma)
        e = gen_expr(rng, ext, delta, rng.choice([TY, TM]), 2)
        f = gen_subst(rng, SIG, rng.randrange(3), gamma)
        g = gen_subst(rng, ext, rng.randrange(3), delta)
        J = gen_instantiation(rng, ext, beta, delta)
        # functoriality of syntax maps
        assert I.map_exprs(identity) == I
        for F in (simple, compound) if cases % 4 == 0 else (simple,):
            fn = partial(apply_syntax_map, F)
            FI = I.map_exprs(fn)
            # the four naturality squares
            assert fn(instantiate_expr(KIND, I, e)) == instantiate_expr(KIND, FI, fn(e))
            assert inst_act_subst(KIND, I, g).map_exprs(fn) == inst_act_subst(KIND, FI, g.map_exprs(fn))
            assert inst_act_inst(KIND, I, J).map_exprs(fn) == inst_act_inst(KIND, FI, J.map_exprs(fn))
            assert subst_act_inst(KIND, f, I).map_exprs(fn) == subst_act_inst(KIND, f.map_exprs(fn), FI)
        # substitution-action functoriality
        assert subst_act_inst(KIND, Substitution.identity(gamma), I) == I
        g2 = gen_subst(rng, SIG, rng.randrange(3), f.src)
        assert subst_act_inst(KIND, compose_subst(KIND, f, g2), I) == subst_act_inst(
            KIND, g2, subst_act_inst(KIND, f, I)
        )
        # naturality with respect to substitutions
        assert instantiate_expr(KIND, subst_act_inst(KIND, f, I), e) == substitute_expr(
            KIND, extend_substitution(KIND, f, delta), instantiate_expr(KIND, I, e)
        )
        assert instantiate_expr(KIND, I, substitute_expr(KIND, g, e)) == substitute_expr(
            KIND, inst_act_subst(KIND, I, g), instantiate_expr(KIND, I, e)
        )
        # associativity, exact under strict scopes
        sig2 = mv_extend_signature(ext, beta)
        e2 = gen_expr(rng, sig2, theta, rng.choice([TY, TM]), 2)
        assert instantiate_expr(KIND, inst_act_inst(KIND, I, J), e2) == instantiate_expr(
            KIND, I, instantiate_expr(KIND, J, e2)
        )
        cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@pytest.mark.criterion(3, "app-rule fixture classification")
def test_criterion_3_fixture_classification():
    from test_metatheory import app_variants, variant_witnesses

    variants = app_variants()
    witnesses = variant_witnesses()
    tight = {k for k, rule in variants.items() if is_tight(rule)}
    assert tight == {1, 2, 3, 6}
    presup = {
        k
        for k, rule in variants.items()
        if check_presuppositive(THEORY, rule, witnesses.get(k))
    }
    assert presup == {1, 2, 4, 6}


@pytest.mark.criterion(4, "congruence generation byte-for-byte")
def test_criterion_4_congruence_bytes(capsys):
    from gtt.cli import main

    code = main(["congruence", str(FIXTURES / "mltt_pi.json"), "Pi-form"])
    out = capsys.readouterr().out
    assert code == 0
    # the hand-encoded six-premise congruence rule of product formation:
    # left copies, right copies, and the two equations, concluding the
    # equation between the two product formations
    def m(name, *args):
        return {"meta": name, "args": list(args)}

    v0 = {"var": 0}
    hand = {
        "name": "Pi-form-cong",
        "arity": [["Ty", 0], ["Ty", 1], ["Ty", 0], ["Ty", 1]],
        "metas": ["A'", "B'", "A''", "B''"],
        "premises": [
            {"cxt": [], "form": "IsTy", "slots": {"head": m("A'")}},
            {"cxt": [m("A'")], "form": "IsTy", "slots": {"head": m("B'", v0)}},
            {"cxt": [], "form": "IsTy", "slots": {"head": m("A''")}},
            {"cxt": [m("A''")], "form": "IsTy", "slots": {"head": m("B''", v0)}},
            {"cxt": [], "form": "TyEq", "slots": {"lhs": m("A'"), "rhs": m("A''")}},
            {
                "cxt": [m("A'")],
                "form": "TyEq",
                "slots": {"lhs": m("B'", v0), "rhs": m("B''", v0)},
            },
        ],
        "conclusion": {
            "cxt": [],
            "form": "TyEq",
            "slots": {
                "lhs": {"sym": "Pi", "args": [m("A'"), m("B'", v0)]},
                "rhs": {"sym": "Pi", "args": [m("A''"), m("B''", v0)]},
            },
        },
    }
    assert out == dumps(hand) + "\n"


@pytest.mark.criterion(5, "acceptability and well-foundedness verdicts")
def test_criterion_5_acceptability():
    theory, witnesses = mltt_pi()
    assert check_acceptable_theory(theory, witnesses).acceptable
    tit, tit_w = type_in_type()
    assert check_acceptable_theory(tit, tit_w).acceptable
    wf = check_well_founded_theory(tit, bundled.order("type_in_type"), tit_w)
    assert not wf.ok
    assert any("u-intro" in d and "El-form" in d and "cycle" in d for d in wf.diagnostics)
    cq, cq_w = cyclic_quantifier()
    wf2 = check_well_founded_theory(cq, None, cq_w, beta={0: 0})
    assert not wf2.ok
    assert any("itself" in d for d in wf2.diagnostics)
    spec = mltt_pi_presented()
    elaborated, elaborated_w = elaborate_theory(spec)
    assert check_acceptable_theory(elaborated, elaborated_w).acceptable
    assert check_well_founded_theory(elaborated, None, elaborated_w).ok


@pytest.mark.criterion(6, "presuppositions theorem on the corpus")
def test_criterion_6_presuppositions():
    start = time.monotonic()
    items = build_corpus()
    assert len(items) >= 50
    for d, j in items:
        outs = derive_presuppositions(THEORY, d, WITNESSES)
        targets = presuppositions(j)
        assert len(outs) == len(targets)
        for out, target in zip(outs, targets):
            assert check_theory_derivation(THEORY, (), out) == target
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@pytest.mark.criterion(7, "elimination of substitution")
def test_criterion_7_elimination():
    rule6, witness6 = hypothetical_app_rule()
    # the hypothetical-form app rule is derivable via substitution nodes
    got = check_theory_derivation(THEORY, rule6.premises, witness6, rule6.arity)
    assert got == rule6.conclusion
    for d, j in build_corpus() + substitution_corpus():
        out = eliminate_substitution(THEORY, d)
        assert check_theory_derivation(THEORY, (), out) == j
        assert is_substitution_free(out)
        assert eliminate_substitution(THEORY, out) == out


@pytest.mark.criterion(8, "uniqueness of typing")
def test_criterion_8_uniqueness():
    count = 0
    for d, j in build_corpus():
        if j.form is not JudgementForm.IS_TM:
            continue
        d_a = derive_presuppositions(THEORY, d, WITNESSES)[0]
        refl = derive.refl_ty(j.context, j.boundary[0], d_a)
        d2 = derive.conv(j.context, j.boundary[0], j.boundary[0], j.head, d_a, d_a, d, refl)
        want = ty_eq(j.context, j.boundary[0], j.boundary[0])
        out = unique_typing(THEORY, d_a, d_a, d, d2)
        assert check_theory_derivation(THEORY, (), out) == want
        out2 = unique_typing_acceptable(THEORY, d, d2, WITNESSES)
        assert check_theory_derivation(THEORY, (), out2) == want
        count += 1
    assert count >= 20


@pytest.mark.criterion(9, "inversion principle")
def test_criterion_9_inversion():
    for d, j in build_corpus():
        if j.form not in (JudgementForm.IS_TM, JudgementForm.IS_TY):
            continue
        out = invert(THEORY, d, WITNESSES)
        assert check_theory_derivation(THEORY, (), out) == j
        assert is_canonical_inversion(THEORY, out)
        if j.form is JudgementForm.IS_TM:
            penultimate = check_theory_derivation(THEORY, (), out.children[2])
            assert penultimate == is_term(
                j.context, j.head, natural_type(THEORY, j.context, j.head)
            )
    # natural_type(app(A, B, s, t)) is B with t substituted
    from corpus import app, extend, lam, newest_position, tt_at, unit_at, var

    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    b = unit_at(ctx1)
    x0 = var(ctx1, newest_position(0), unit_at(ctx1).d_type)
    idf = lam(u, b, x0)
    ap = app(u, b, idf, tt_at(EMPTY_CONTEXT))
    assert natural_type(THEORY, EMPTY_CONTEXT, ap.term) == ap.type
    assert ap.type == u.type  # B[t/x] for a weakened B collapses to unit


@pytest.mark.criterion(10, "sequential-context definitions coincide")
def test_criterion_10_sequential_equivalence():
    from test_presentation import enumerate_flat_contexts
    from gtt.presentation import (
        flatten_sequential_context,
        is_sequential_flat_context,
        sequential_by_occurrence,
        sequential_by_peeling,
    )

    start = time.monotonic()
    total = 0
    for ctx in enumerate_flat_contexts(3, 2):
        total += 1
        seq = is_sequential_flat_context(KIND, ctx)
        d1 = seq is not None
        d2 = sequential_by_occurrence(KIND, ctx)
        d3 = sequential_by_peeling(KIND, ctx)
        assert d1 == d2 == d3
        if seq is not None:
            assert flatten_sequential_context(KIND, seq) == ctx
    assert total == 76
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@pytest.mark.criterion(11, "well-founded replacement and section")
def test_criterion_11_replacement(capsys):
    from gtt.cli import main

    code = main(
        [
            "replace-step",
            str(FIXTURES / "type_in_type.json"),
            str(FIXTURES / "type_in_type_replacement.json"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert [s["name"] for s in data["theory"]["signature"]] == ["U", "El'", "u'"]
    rules = {r["name"]: r for r in data["theory"]["rules"]}
    assert "U-unfold" in rules
    eq = rules["U-unfold"]["conclusion"]
    assert eq["form"] == "TyEq"
    assert eq["slots"]["lhs"] == {"sym": "U", "args": []}
    assert eq["slots"]["rhs"] == {"sym": "El'", "args": [{"sym": "u'", "args": []}]}
    assert data["well_founded"] is True

    from gtt.maps import compose_syntax_maps, section_s

    for fn in (mltt_pi, mltt_base, type_in_type):
        theory, witnesses = fn()
        builder, s = section_s(theory, witnesses)
        t = builder.syntax
        assert compose_syntax_maps(t, s.syntax) == identity_syntax_map(theory.signature)
        assert builder.check_well_founded()
