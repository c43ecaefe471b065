"""Tightness, presuppositivity, acceptability, and the four metatheorems."""

import re

import pytest

from corpus import (
    KIND,
    SIG,
    THEORY,
    WITNESSES,
    app,
    build_corpus,
    conv_wrap,
    extend,
    hypothetical_app_rule,
    lam,
    lam_tower,
    newest_position,
    pi,
    pi_over,
    substitution_corpus,
    tt_at,
    unit_at,
    var,
)
from genexpr import arity
from gtt import derive
from gtt import bundled
from gtt.bundled import cyclic_quantifier, mltt_base, mltt_pi, type_in_type
from gtt.congruence_witnesses import congruence_witnesses
from gtt.errors import ClassMismatch, MissingWitness, NoBijection, NotObjectRule, NotTight, TrivialityViolated
from gtt.judgements import (
    EMPTY_CONTEXT,
    JudgementForm,
    RawContext,
    extend_context,
    is_term,
    is_type,
    presuppositions,
    tm_eq,
    ty_eq,
)
from gtt.jsonio import theory_from_json
from gtt.metatheory import (
    check_acceptable_theory,
    check_presuppositive,
    check_tight,
    check_well_founded_theory,
    derivation_nodes,
    derive_presuppositions,
    eliminate_substitution,
    invert,
    is_canonical_inversion,
    is_substitution_free,
    is_tight,
    natural_type,
    rename_derivation,
    substitute_derivation,
    substitute_equal_derivation,
    theory_tightness,
    unique_typing,
    unique_typing_acceptable,
)
from gtt.rules import RawRule
from gtt.syntax import (
    Instantiation,
    Renaming,
    Substitution,
    Var,
    mk_meta,
    mk_sym,
    mv_extend_signature,
    weaken_expr,
)
from gtt.theories import (
    EqSubstInst,
    Hyp,
    RuleInst,
    RuleWitnesses,
    SubstInst,
    VariableInst,
    check_theory_derivation,
)
from naive import identity_renaming
from reference_transformers import rename_derivation as reference_rename_derivation


# --- the app-rule variants of the acceptability discussion ---------------------

def app_variants():
    """Rules (1)-(6): the application rule and its five modifications."""
    sig = mltt_pi()[0].signature
    A = sig.symbol(0).arity  # unused marker
    from gtt.syntax import TM, TY

    app_arity = arity((TY, 0), (TY, 1), (TM, 0), (TM, 0))
    ext = mv_extend_signature(sig, app_arity, ("A", "B", "f", "a"))
    A0, A1 = mk_meta(ext, "A", (), 0), mk_meta(ext, "A", (), 1)
    B1 = mk_meta(ext, "B", (Var(0, 1),), 1)
    f0 = mk_meta(ext, "f", (), 0)
    a0 = mk_meta(ext, "a", (), 0)
    pi0 = mk_sym(ext, "Pi", (A0, B1), 0)
    app0 = mk_sym(ext, "app", (A0, B1, f0, a0), 0)
    b_of_a = mk_meta(ext, "B", (a0,), 0)
    ctx_a = RawContext(1, (A1,))
    p_A = is_type(EMPTY_CONTEXT, A0)
    p_B = is_type(ctx_a, B1)
    p_f_pi = is_term(EMPTY_CONTEXT, f0, pi0)
    p_f_a = is_term(EMPTY_CONTEXT, f0, A0)
    p_a_A = is_term(EMPTY_CONTEXT, a0, A0)
    p_a_pi = is_term(EMPTY_CONTEXT, a0, pi0)
    conclusion = is_term(EMPTY_CONTEXT, app0, b_of_a)
    names = ("A", "B", "f", "a")
    r1 = RawRule(app_arity, (p_A, p_B, p_f_pi, p_a_A), conclusion, names)
    r2 = RawRule(app_arity, (p_A, p_B, p_f_a, p_a_A), conclusion, names)
    r3 = RawRule(app_arity, (p_A, p_B, p_f_pi, p_a_pi), conclusion, names)
    r4 = RawRule(app_arity, (p_A, p_B, p_f_pi, p_a_A, p_a_pi), conclusion, names)
    r5 = RawRule(app_arity, (p_f_pi, p_a_A), conclusion, names)
    r6, _ = hypothetical_app_rule()
    return {1: r1, 2: r2, 3: r3, 4: r4, 5: r5, 6: r6}


def variant_witnesses():
    """Presupposition witnesses for the variants that have them."""
    from gtt.syntax import TM, TY

    sig = mltt_pi()[0].signature
    app_arity = arity((TY, 0), (TY, 1), (TM, 0), (TM, 0))
    ext = mv_extend_signature(sig, app_arity, ("A", "B", "f", "a"))
    a0 = mk_meta(ext, "a", (), 0)
    A1 = mk_meta(ext, "A", (), 1)
    B1 = mk_meta(ext, "B", (Var(0, 1),), 1)
    ctx_a = RawContext(1, (A1,))
    pi_inst = Instantiation(
        mltt_pi()[0].signature.symbol(0).arity, 0, (mk_meta(ext, "A", (), 0), B1)
    )
    d_pi = RuleInst(0, pi_inst, EMPTY_CONTEXT, (Hyp(0), Hyp(1)))

    def b_of_a(premise_idx, typing_idx):
        f = Substitution(0, 1, (a0,))
        return SubstInst(
            f, EMPTY_CONTEXT, frozenset(), is_type(ctx_a, B1),
            (Hyp(premise_idx), Hyp(typing_idx)),
        )

    w1 = RuleWitnesses(
        conclusion={0: b_of_a(1, 3)},
        premises={(2, 0): d_pi, (3, 0): Hyp(0)},
    )
    w2 = RuleWitnesses(
        conclusion={0: b_of_a(1, 3)},
        premises={(2, 0): Hyp(0), (3, 0): Hyp(0)},
    )
    w4 = RuleWitnesses(
        conclusion={0: b_of_a(1, 3)},
        premises={(2, 0): d_pi, (3, 0): Hyp(0), (4, 0): d_pi},
    )
    # rule 6: conclusion presupposition [x:A, y:Pi] |- B(x) type
    rule6, witness6 = hypothetical_app_rule()
    ctx_xy = rule6.conclusion.context
    fb = Substitution(2, 1, (Var(KIND.inl(1, 1, 0), 2),))
    x_typing = VariableInst(
        ctx_xy, KIND.inl(1, 1, 0),
        (derive.weaken_closed(ctx_xy, is_type(EMPTY_CONTEXT, mk_meta(mv_extend_signature(sig, mltt_pi()[0].signature.symbol(0).arity, ("A", "B")), "A", (), 0)), Hyp(0)),),
    )
    ext6 = mv_extend_signature(sig, mltt_pi()[0].signature.symbol(0).arity, ("A", "B"))
    w6 = RuleWitnesses(
        conclusion={
            0: SubstInst(
                fb, ctx_xy, frozenset(), is_type(RawContext(1, (mk_meta(ext6, "A", (), 1),)), mk_meta(ext6, "B", (Var(0, 1),), 1)),
                (Hyp(1), x_typing),
            )
        },
        premises={},
    )
    return {1: w1, 2: w2, 4: w4, 6: w6}


def test_app_variant_tightness_verdicts():
    variants = app_variants()
    tight = {k for k, r in variants.items() if is_tight(r)}
    assert tight == {1, 2, 3, 6}


def test_check_tight_gives_the_premise_introducing_each_argument():
    pi_form = mltt_pi()[0].rule(0)
    assert check_tight(pi_form) == (0, 1)
    # listing x:A |- B type before A type moves the introductions with it
    swapped = pi_form._replace(premises=pi_form.premises[::-1])
    assert check_tight(swapped) == (1, 0)


def one_symbol_theory(fault: str):
    """The theory of one type symbol ``S(A)`` with ``fault`` planted in it:
    a rule ``S-form`` without its premise ``A type``, with two premises
    ``A type`` and two arguments, concluding ``A type`` or ``S(S(A)) type``,
    given twice, or left out."""
    a = {"meta": "A", "args": []}

    def s(e):
        return {"sym": "S", "args": [e]}

    def is_ty(e):
        return {"cxt": [], "form": "IsTy", "slots": {"head": e}}

    rule = {"name": "S-form", "arity": [["Ty", 0]], "metas": ["A"], "premises": [is_ty(a)], "conclusion": is_ty(s(a))}
    rules = [rule]
    if fault == "no premise":
        rule["premises"] = []
    elif fault == "shared head":
        rule.update(arity=[["Ty", 0], ["Ty", 0]], metas=["A", "B"], premises=[is_ty(a), is_ty(a)])
    elif fault == "meta conclusion":
        rule["conclusion"] = is_ty(a)
    elif fault == "nested conclusion":
        rule["conclusion"] = is_ty(s(s(a)))
    elif fault == "two rules":
        rules.append({**rule, "name": "S-again"})
    elif fault == "no rule":
        rules = []
    signature = [{"name": "S", "class": "Ty", "arity": [["Ty", 0]]}]
    return theory_from_json({"signature": signature, "rules": rules})[0]


@pytest.mark.parametrize("fault, message", [
    ("no premise", "1 arguments but 0 object premises"),
    ("shared head", "no introducing premise for argument 1"),
])
def test_check_tight_refuses_a_rule_without_its_bijection(fault, message):
    with pytest.raises(NoBijection, match=f"^{re.escape(message)}$"):
        check_tight(one_symbol_theory(fault).rule(0))


@pytest.mark.parametrize("fault, message", [
    ("no premise", "rule S-form is not tight"),
    ("meta conclusion", "object rule S-form does not conclude a symbol application"),
    ("nested conclusion", "rule S-form is not a symbol rule"),
    ("two rules", "symbol S has two rules: S-form and S-again"),
    ("no rule", "symbols without rules: S"),
])
def test_theory_tightness_refuses_each_fault(fault, message):
    with pytest.raises(NotTight, match=f"^{re.escape(message)}$"):
        theory_tightness(one_symbol_theory(fault))


def test_app_variant_presuppositivity_verdicts():
    variants = app_variants()
    witnesses = variant_witnesses()
    verdicts = {}
    for k, rule in variants.items():
        verdicts[k] = check_presuppositive(THEORY, rule, witnesses.get(k))
    assert {k for k, ok in verdicts.items() if ok} == {1, 2, 4, 6}


def test_every_type_expression_rule_is_not_tight():
    from gtt.syntax import TY

    ext = mv_extend_signature(mltt_pi()[0].signature, arity((TY, 0)), ("A",))
    rule = RawRule(
        arity((TY, 0)), (), is_type(EMPTY_CONTEXT, mk_meta(ext, "A", (), 0)), ("A",)
    )
    assert not is_tight(rule)


def test_symmetry_variants():
    from gtt.syntax import TY
    from gtt.rules import BuiltinRule

    ext = mv_extend_signature(mltt_pi()[0].signature, arity((TY, 0), (TY, 0)), ("A", "B"))
    A0, B0 = mk_meta(ext, "A", (), 0), mk_meta(ext, "B", (), 0)
    lhs = RawRule(
        arity((TY, 0), (TY, 0)),
        (ty_eq(EMPTY_CONTEXT, A0, B0),),
        ty_eq(EMPTY_CONTEXT, B0, A0),
        ("A", "B"),
    )
    assert not is_tight(lhs)
    w = RuleWitnesses(conclusion={0: Hyp(1), 1: Hyp(0)},
                      premises={(0, 0): Hyp(0), (0, 1): Hyp(1)})
    # not presuppositive: the premises cannot type A and B
    assert not check_presuppositive(THEORY, lhs, RuleWitnesses({}, {}))
    # but weakly presuppositive with boundary hypotheses available
    weak_w = RuleWitnesses(conclusion={0: Hyp(2), 1: Hyp(1)}, premises={})
    assert check_presuppositive(THEORY, lhs, weak_w, weak=True)
    # the right-hand variant is the structural rule, tight and presuppositive
    assert is_tight(BuiltinRule.EQUIV_TY_SYM.rule)


# --- theory-level acceptability -------------------------------------------------

def test_mltt_pi_acceptable():
    theory, witnesses = mltt_pi()
    report = check_acceptable_theory(theory, witnesses)
    assert report.acceptable, report.diagnostics


def test_type_in_type_acceptable():
    theory, witnesses = type_in_type()
    report = check_acceptable_theory(theory, witnesses)
    assert report.acceptable, report.diagnostics


def test_missing_symbol_rule_breaks_tightness():
    theory, witnesses = mltt_pi()
    smaller = theory.__class__(
        theory.signature, theory.rules[:-3], theory.rule_names[:-3]
    )
    # a failure is not remembered: every call raises the same error, and
    # uniqueness of typing raises it before it does any work
    messages = []
    for _ in range(2):
        with pytest.raises(NotTight) as raised:
            theory_tightness(smaller)
        messages.append(str(raised.value))
    assert messages[0] == messages[1] != ""
    d = tt_at(EMPTY_CONTEXT).d_term
    with pytest.raises(NotTight, match=re.escape(messages[0])):
        unique_typing(smaller, d, d, d, d)
    report = check_acceptable_theory(smaller, witnesses)
    assert not report.tight
    # a caller may change the bijection it gets; the next call does not see that
    beta = theory_tightness(theory)
    expected = dict(beta)
    beta.clear()
    assert theory_tightness(theory) == expected


@pytest.mark.parametrize("fn", [mltt_pi, mltt_base, type_in_type])
def test_congruence_witnesses_resynthesise_the_shipped_ones(fn):
    theory, witnesses = fn()
    objects = [i for i, rule in enumerate(theory.rules) if rule.is_object]
    assert objects
    for i in objects:
        name = theory.rule_name(i)
        assert congruence_witnesses(theory, i, witnesses[name]) == witnesses[f"{name}-cong"], name


def test_congruence_synthesis_refuses_what_it_cannot_handle():
    # lam-intro of mltt_pi with its shipped witnesses, but for the witness of the conclusion's type
    theory, witnesses = mltt_pi()
    i = theory.rule_index("lam-intro")
    rule, base = theory.rule(i), witnesses["lam-intro"]

    def synthesise(node):
        return congruence_witnesses(theory, i, RuleWitnesses({**base.conclusion, 0: node}, base.premises))

    ident = Substitution.identity(0)
    a_type = presuppositions(rule.conclusion)[0]
    with pytest.raises(MissingWitness, match="^congruence synthesis cannot handle EqSubstInst nodes$"):
        synthesise(EqSubstInst(ident, ident, EMPTY_CONTEXT, frozenset(), a_type, ()))
    # a substitution node into the body premise t : B(x), a term judgement
    body = rule.premises[2]
    only_types = "^congruence synthesis supports substitution nodes into type judgements only$"
    with pytest.raises(MissingWitness, match=only_types):
        synthesise(SubstInst(Substitution.identity(1), body.context, frozenset(), body, ()))


def test_congruence_synthesis_refuses_substitutions_it_cannot_chase():
    # app-elim of mltt_pi with its shipped witnesses, but for the witness of B(t) type
    theory, witnesses = mltt_pi()
    i = theory.rule_index("app-elim")
    rule, base = theory.rule(i), witnesses["app-elim"]

    def synthesise(node):
        return congruence_witnesses(theory, i, RuleWitnesses({**base.conclusion, 0: node}, base.premises))

    b, t = rule.premises[1], rule.premises[3].head
    checked = "^congruence synthesis supports substitution nodes only with no checked positions"
    # x : A |- B type into the target x : A, which mentions a metavariable
    with pytest.raises(MissingWitness, match=checked):
        synthesise(SubstInst(Substitution.identity(1), b.context, frozenset(), b, (Hyp(1), Hyp(0))))
    # into the empty target, with the position of x checked
    with pytest.raises(MissingWitness, match=checked):
        synthesise(SubstInst(Substitution(0, 1, (t,)), EMPTY_CONTEXT, frozenset({0}), b, (Hyp(1), Hyp(3))))
    # y : B(x), x : A |- A type by x, y := t, t: the entry B(x) becomes B(t) on
    # the left and B'(t') on the right, which no single substitution relates
    src = extend_context(theory.kind, b.context, (weaken_expr(theory.kind, b.head, 1),))
    a_under = src.type_at(1)
    with pytest.raises(MissingWitness, match="^congruence synthesis needs context entry types that close"):
        synthesise(SubstInst(Substitution(0, 2, (t, t)), EMPTY_CONTEXT, frozenset(), is_type(src, a_under),
                             (Hyp(0), Hyp(3), Hyp(3))))
    with pytest.raises(NotObjectRule, match="^congruence rules exist only for object rules$"):
        congruence_witnesses(theory, theory.rule_index("beta"), witnesses["beta"])


def test_well_founded_verdicts():
    theory, w = mltt_pi()
    assert check_well_founded_theory(theory, bundled.order("mltt_pi"), w).ok
    tit, wt = type_in_type()
    r = check_well_founded_theory(tit, bundled.order("type_in_type"), wt)
    assert not r.ok
    assert any("cycle" in d for d in r.diagnostics)
    cq, wq = cyclic_quantifier()
    r2 = check_well_founded_theory(cq, None, wq, beta={0: 0})
    assert not r2.ok
    assert any("itself" in d for d in r2.diagnostics)


# --- presuppositions theorem -----------------------------------------------------

def test_presuppositions_theorem_on_corpus():
    for d, j in build_corpus():
        outs = derive_presuppositions(THEORY, d, WITNESSES)
        targets = presuppositions(j)
        assert len(outs) == len(targets)
        for out, target in zip(outs, targets):
            assert check_theory_derivation(THEORY, (), out) == target


def test_presuppositions_of_type_judgement_empty():
    u = unit_at(EMPTY_CONTEXT)
    assert derive_presuppositions(THEORY, u.d_type, WITNESSES) == ()


def test_presupposition_after_substitution_node():
    for d, j in substitution_corpus():
        outs = derive_presuppositions(THEORY, d, WITNESSES)
        for out, target in zip(outs, presuppositions(j)):
            assert check_theory_derivation(THEORY, (), out) == target
            if isinstance(d, SubstInst):
                assert isinstance(out, SubstInst)


def test_presuppositions_need_witnesses():
    t = tt_at(EMPTY_CONTEXT)
    with pytest.raises(MissingWitness):
        derive_presuppositions(THEORY, t.d_term, {})


# --- admissibility of renaming and substitution ----------------------------------

def test_rename_identity():
    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    t = tt_at(ctx1)
    out = rename_derivation(THEORY, identity_renaming(1), ctx1, t.d_term)
    assert check_theory_derivation(THEORY, (), out) == is_term(ctx1, t.term, t.type)


def test_rename_weakening_closed_into_context():
    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    t = tt_at(EMPTY_CONTEXT)
    r = Renaming(0, 1, ())
    out = rename_derivation(THEORY, r, ctx1, t.d_term)
    t1 = tt_at(ctx1)
    assert check_theory_derivation(THEORY, (), out) == is_term(ctx1, t1.term, t1.type)
    assert is_substitution_free(out)


def test_rename_swap_independent_entries():
    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    ctx2 = extend(ctx1, unit_at(ctx1))
    x = var(ctx2, 0, unit_at(ctx2).d_type)
    swap = Renaming(2, 2, (1, 0))
    out = rename_derivation(THEORY, swap, ctx2, x.d_term)
    assert check_theory_derivation(THEORY, (), out) == is_term(
        ctx2, Var(1, 2), ctx2.type_at(1)
    )


def test_rename_rejects_a_renaming_that_does_not_respect_types():
    # x : unit, y : unit |- y : unit, renamed by the swap into a target whose
    # newest entry has type Pi(unit, unit): position 1 goes to position 0,
    # whose type is not unit.  Respecting types is acting trivially, so both
    # the kernel and the reference name the position in TrivialityViolated.
    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    ctx2 = extend(ctx1, unit_at(ctx1))
    x = var(ctx2, 0, unit_at(ctx2).d_type)
    target = extend(ctx1, pi_over(unit_at(ctx1)))
    assert target.type_at(0) != target.type_at(1)
    swap = Renaming(2, 2, (1, 0))
    for rename in (rename_derivation, reference_rename_derivation):
        with pytest.raises(TrivialityViolated, match="at position 1 ") as err:
            rename(THEORY, swap, target, x.d_term)
        assert err.value.position == 1


def test_substitute_single_variable():
    # x : unit |- B-like type over x; substitute tt for x
    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    a1 = unit_at(ctx1)
    p = pi(a1, unit_at(extend(ctx1, a1)))
    t = tt_at(EMPTY_CONTEXT)
    f = Substitution(0, 1, (t.term,))
    out = substitute_derivation(THEORY, f, EMPTY_CONTEXT, frozenset(), {0: t.d_term}, p.d_type)
    want = pi(unit_at(EMPTY_CONTEXT), unit_at(extend(EMPTY_CONTEXT, unit_at(EMPTY_CONTEXT))))
    assert check_theory_derivation(THEORY, (), out) == is_type(EMPTY_CONTEXT, want.type)
    assert is_substitution_free(out)


def test_substitute_identity_on_trivial_set():
    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    x = var(ctx1, 0, unit_at(ctx1).d_type)
    f = Substitution.identity(1)
    out = substitute_derivation(THEORY, f, ctx1, frozenset({0}), {}, x.d_term)
    assert check_theory_derivation(THEORY, (), out) == is_term(ctx1, x.term, x.type)


def test_substitute_variable_outside_trivial_set_uses_typing():
    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    x = var(ctx1, 0, unit_at(ctx1).d_type)
    t = tt_at(EMPTY_CONTEXT)
    f = Substitution(0, 1, (t.term,))
    out = substitute_derivation(THEORY, f, EMPTY_CONTEXT, frozenset(), {0: t.d_term}, x.d_term)
    assert out == t.d_term


def test_substitute_equal_basics():
    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    u1 = unit_at(ctx1)
    # f = [tt], g = [app(id, tt)] joined by the beta equation, into x:unit |- unit
    from corpus import beta_eq

    a = u
    ctx_a = ctx1
    x0 = var(ctx_a, newest_position(0), unit_at(ctx_a).d_type)
    idf = lam(a, u1, x0)
    ap = app(a, u1, idf, tt_at(EMPTY_CONTEXT))
    d_beta, j_beta = beta_eq(a, u1, x0, tt_at(EMPTY_CONTEXT))
    f = Substitution(0, 1, (ap.term,))
    g = Substitution(0, 1, (tt_at(EMPTY_CONTEXT).term,))
    triples = {0: (ap.d_term, tt_at(EMPTY_CONTEXT).d_term, d_beta)}
    d_f, d_g, d_eq = substitute_equal_derivation(
        THEORY, f, g, EMPTY_CONTEXT, frozenset(), triples, u1.d_type
    )
    assert check_theory_derivation(THEORY, (), d_f) == is_type(EMPTY_CONTEXT, u.type)
    assert check_theory_derivation(THEORY, (), d_g) == is_type(EMPTY_CONTEXT, u.type)
    assert check_theory_derivation(THEORY, (), d_eq) == ty_eq(EMPTY_CONTEXT, u.type, u.type)
    for out in (d_f, d_g, d_eq):
        assert is_substitution_free(out)


def test_substitute_equal_variable_case_inserts_conversion():
    # substitute into x : unit |- x : unit with K = {0} and equal context entry
    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    x = var(ctx1, 0, unit_at(ctx1).d_type)
    f = Substitution.identity(1)
    d_f, d_g, d_eq = substitute_equal_derivation(
        THEORY, f, f, ctx1, frozenset({0}), {}, x.d_term
    )
    u1 = unit_at(ctx1)
    assert check_theory_derivation(THEORY, (), d_eq) == tm_eq(ctx1, x.term, x.term, u1.type)


# --- elimination of substitution ---------------------------------------------------

def test_elimination_on_augmented_corpus():
    for d, j in build_corpus() + substitution_corpus():
        out = eliminate_substitution(THEORY, d)
        assert is_substitution_free(out)
        assert check_theory_derivation(THEORY, (), out) == j
        # a substitution-free derivation comes back as the same object
        assert eliminate_substitution(THEORY, out) is out


def test_elimination_nested_subst():
    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    ctx2 = extend(ctx1, unit_at(ctx1))
    inner = derive.weaken_closed(ctx1, is_type(EMPTY_CONTEXT, u.type), u.d_type)
    # nested: weaken a weakened judgement via a second substitution node
    f = Substitution(2, 1, (Var(0, 2),))
    nested = derive.subst(
        f, ctx2, frozenset(),
        is_type(ctx1, unit_at(ctx1).type), inner,
        (VariableInst(ctx2, 0, (unit_at(ctx2).d_type,)),),
    )
    out = eliminate_substitution(THEORY, nested)
    assert is_substitution_free(out)
    assert check_theory_derivation(THEORY, (), out) == is_type(ctx2, unit_at(ctx2).type)


def test_is_substitution_free():
    assert is_substitution_free(Hyp(0))
    for d, _ in substitution_corpus():
        if isinstance(d, SubstInst):
            assert not is_substitution_free(d)


def test_hypothetical_app_elimination():
    rule, witness = hypothetical_app_rule()
    got = check_theory_derivation(THEORY, rule.premises, witness, rule.arity)
    assert got == rule.conclusion
    # the witness itself uses substitution nodes; over hypotheses those
    # cannot be eliminated, which the transformer reports honestly
    assert not is_substitution_free(witness)


# --- uniqueness of typing -----------------------------------------------------------

def test_unique_typing_identical_inputs():
    t = tt_at(EMPTY_CONTEXT)
    d_a = derive_presuppositions(THEORY, t.d_term, WITNESSES)[0]
    out = unique_typing(THEORY, d_a, d_a, t.d_term, t.d_term)
    assert check_theory_derivation(THEORY, (), out) == ty_eq(
        EMPTY_CONTEXT, t.type, t.type
    )


def test_unique_typing_with_conversion():
    for d, j in build_corpus():
        if j.form is not JudgementForm.IS_TM:
            continue
        d_a = derive_presuppositions(THEORY, d, WITNESSES)[0]
        refl = derive.refl_ty(j.context, j.boundary[0], d_a)
        d2 = derive.conv(
            j.context, j.boundary[0], j.boundary[0], j.head, d_a, d_a, d, refl
        )
        out = unique_typing(THEORY, d_a, d_a, d, d2)
        want = ty_eq(j.context, j.boundary[0], j.boundary[0])
        assert check_theory_derivation(THEORY, (), out) == want
        out2 = unique_typing_acceptable(THEORY, d, d2, WITNESSES)
        assert check_theory_derivation(THEORY, (), out2) == want


def test_unique_typing_lambda_two_routes():
    u = unit_at(EMPTY_CONTEXT)
    ctx_a = extend(EMPTY_CONTEXT, u)
    b = unit_at(ctx_a)
    x0 = var(ctx_a, newest_position(0), unit_at(ctx_a).d_type)
    idf = lam(u, b, x0)
    wrapped = conv_wrap(idf)
    out = unique_typing(THEORY, idf.d_type, idf.d_type, idf.d_term, wrapped.d_term)
    assert check_theory_derivation(THEORY, (), out) == ty_eq(
        EMPTY_CONTEXT, idf.type, idf.type
    )


# --- natural types and inversion ------------------------------------------------------

def test_natural_type_clauses():
    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    assert natural_type(THEORY, ctx1, Var(0, 1)) == ctx1.type_at(0)
    t = tt_at(EMPTY_CONTEXT)
    assert natural_type(THEORY, EMPTY_CONTEXT, t.term) == u.type
    # app(A, B, s, t) gets B with t substituted
    a = u
    b = unit_at(ctx1)
    x0 = var(ctx1, 0, unit_at(ctx1).d_type)
    idf = lam(a, b, x0)
    ap = app(a, b, idf, t)
    assert natural_type(THEORY, EMPTY_CONTEXT, ap.term) == ap.type
    # lam(A, B, t) gets Pi(A, B)
    assert natural_type(THEORY, EMPTY_CONTEXT, idf.term) == idf.type


def test_natural_type_rejects_metavariable_heads():
    from gtt.syntax import TM

    ext = mv_extend_signature(SIG, arity((TM, 0)), ("s",))
    with pytest.raises(NotTight):
        natural_type(THEORY, EMPTY_CONTEXT, mk_meta(ext, "s", (), 0))


def test_natural_type_is_defined_for_terms_only():
    u = unit_at(EMPTY_CONTEXT)
    for ty in (u.type, pi(u, unit_at(extend(EMPTY_CONTEXT, u))).type):
        with pytest.raises(ClassMismatch, match="terms only"):
            natural_type(THEORY, EMPTY_CONTEXT, ty)


def test_inversion_on_corpus():
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


def test_inversion_of_a_lam_tower_builds_one_object_per_distinct_value():
    # Elimination returns the substitution-free tower as itself, so its
    # sharing survives into the output: each distinct subderivation of the
    # inversion is one object, however often the tree repeats it.
    for n in (1, 2, 4, 8):
        t = lam_tower(EMPTY_CONTEXT, n)
        out = invert(THEORY, t.d_term, WITNESSES)
        objects = {id(node): node for node in derivation_nodes(out)}
        assert len(objects) == len(set(objects.values())) < sum(1 for _ in derivation_nodes(out)), n
        assert check_theory_derivation(THEORY, (), out) == is_term(EMPTY_CONTEXT, t.term, t.type)


def test_inversion_merges_stacked_conversions():
    t = tt_at(EMPTY_CONTEXT)
    twice = conv_wrap(conv_wrap(t))
    out = invert(THEORY, twice.d_term, WITNESSES)
    assert is_canonical_inversion(THEORY, out)
    # exactly one conversion at the root; its term child is the symbol rule
    assert isinstance(out.children[2], RuleInst) and isinstance(out.children[2].ref, int)
    assert check_theory_derivation(THEORY, (), out) == is_term(
        EMPTY_CONTEXT, t.term, t.type
    )


def test_inversion_variable_gets_dummy_conversion():
    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    x = var(ctx1, 0, unit_at(ctx1).d_type)
    out = invert(THEORY, x.d_term, WITNESSES)
    assert is_canonical_inversion(THEORY, out)
    assert isinstance(out.children[2], VariableInst)


def test_inversion_type_judgement_ends_with_symbol_rule():
    u = unit_at(EMPTY_CONTEXT)
    p = pi(u, unit_at(extend(EMPTY_CONTEXT, u)))
    out = invert(THEORY, p.d_type, WITNESSES)
    assert isinstance(out, RuleInst)
    assert out.ref == THEORY.rule_index("Pi-form")


def test_presuppositions_of_eqsubst_on_term_judgement():
    from corpus import app, beta_eq, lam

    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    u1 = unit_at(ctx1)
    x = var(ctx1, 0, u1.d_type)
    idf = lam(u, u1, x)
    ap = app(u, u1, idf, tt_at(EMPTY_CONTEXT))
    d_beta, _ = beta_eq(u, u1, x, tt_at(EMPTY_CONTEXT))
    f = Substitution(0, 1, (ap.term,))
    g = Substitution(0, 1, (tt_at(EMPTY_CONTEXT).term,))
    node = derive.eq_subst(
        f, g, EMPTY_CONTEXT, frozenset(),
        is_term(ctx1, x.term, u1.type), x.d_term,
        ((ap.d_term, tt_at(EMPTY_CONTEXT).d_term, d_beta),),
    )
    j = check_theory_derivation(THEORY, (), node)
    outs = derive_presuppositions(THEORY, node, WITNESSES)
    targets = presuppositions(j)
    assert len(outs) == len(targets) == 3
    for out, target in zip(outs, targets):
        assert check_theory_derivation(THEORY, (), out) == target
