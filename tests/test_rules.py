"""Raw rules, structural closure rules, and congruence generation."""

import copy
import pickle
import random

import pytest

from corpus import extend, tt_at, unit_at
from genexpr import LAW_SIGNATURE, gen_arity, gen_expr, gen_instantiation, gen_template
from gtt.bundled import mltt_base, mltt_pi
from gtt.errors import ArityMismatch, DerivationError, IndexOutOfRange, NotObjectRule, ScopeMismatch, TrivialityViolated
from gtt.judgements import (
    EMPTY_CONTEXT,
    JudgementForm,
    RawContext,
    instantiate_judgement,
    is_term,
    is_type,
    ty_eq,
    validate_judgement,
)
from gtt.rules import (
    BuiltinRule,
    RawRule,
    congruence_copies,
    congruence_rule,
    assoc_equality_judgement,
    equality_substitution_rule,
    generic_application,
    instantiate_rule,
    substitution_rule,
    variable_rule,
)
from gtt.maps import RawSyntaxMap, map_rule
from gtt.scopes import ScopeKind
from gtt.theories import EqSubstInst, check_theory_derivation
from gtt.syntax import (
    TY,
    Instantiation,
    Substitution,
    Var,
    mk_meta,
    mk_sym,
    mv_extend_signature,
)

THEORY, _ = mltt_pi()
SIG = THEORY.signature
KIND = SIG.kind
BASE_SIGNATURE = mltt_base()[0].signature


def test_equivalence_rule_shapes():
    assert [ref.family for ref in BuiltinRule] == ["equiv"] * 6 + ["conv"] * 2
    # term reflexivity arity [(Ty,0),(Tm,0)]
    tm_refl = BuiltinRule.EQUIV_TM_REFL.rule
    assert [(a.cls.value, a.binder) for a in tm_refl.arity] == [("Ty", 0), ("Tm", 0)]
    # type transitivity has five premises
    assert len(BuiltinRule.EQUIV_TY_TRANS.rule.premises) == 5
    # all conclusions have empty contexts
    for ref in BuiltinRule:
        assert ref.rule.conclusion.context.scope == 0


def test_structural_rules_are_tight_and_presuppositive():
    from gtt.metatheory import BUILTIN_WITNESSES, check_presuppositive, is_tight

    assert set(BUILTIN_WITNESSES) == set(BuiltinRule)
    for ref in BuiltinRule:
        assert is_tight(ref.rule)
        assert check_presuppositive(THEORY, ref.rule, BUILTIN_WITNESSES[ref])


def test_builtin_rules_are_closed():
    """No ninth built-in rule can be made, and a copied or unpickled member
    is the member itself, so it still finds its witnesses."""
    from gtt.metatheory import BUILTIN_WITNESSES

    with pytest.raises(ValueError):
        BuiltinRule(("equiv", "ty-refl", BuiltinRule.CONV_TM.rule))
    with pytest.raises(TypeError):

        class MoreRules(BuiltinRule):
            EXTRA = ("equiv", "extra", BuiltinRule.CONV_TM.rule)

    for ref in BuiltinRule:
        for twin in (copy.copy(ref), copy.deepcopy(ref), pickle.loads(pickle.dumps(ref))):
            assert twin is ref
            assert BUILTIN_WITNESSES[twin] is BUILTIN_WITNESSES[ref]


def test_variable_rule():
    unit1 = mk_sym(BASE_SIGNATURE, "unit", (), 1)
    ctx = RawContext(1, (unit1,))
    rule = variable_rule(ctx, 0)
    assert rule.premises == (is_type(ctx, unit1),)
    assert rule.conclusion == is_term(ctx, Var(0, 1), unit1)
    with pytest.raises(IndexOutOfRange):
        variable_rule(ctx, 1)


def test_variable_rule_on_mutually_referencing_flat_context():
    BS = BASE_SIGNATURE
    # flatness: entries may mention any position, even their own
    ty0 = mk_sym(BS, "Pi", (mk_sym(BS, "unit", (), 2), mk_sym(BS, "unit", (), 3)), 2)
    ctx = RawContext(2, (ty0, ty0))
    rule = variable_rule(ctx, 1)
    assert rule.conclusion == is_term(ctx, Var(1, 2), ty0)


def test_instantiate_app_rule_gives_displayed_closure_rule():
    from gtt.syntax import weaken_expr

    BS = BASE_SIGNATURE
    theory, _ = mltt_base()
    app_rule = theory.rule(theory.rule_index("app-elim"))
    a = mk_sym(BS, "unit", (), 0)
    b = mk_sym(BS, "unit", (), 1)
    lam_id = mk_sym(BS, "lam", (a, b, Var(0, 1)), 0)
    t = mk_sym(BS, "tt", (), 0)
    inst = Instantiation(app_rule.arity, 0, (a, b, lam_id, t))
    closure = instantiate_rule(KIND, inst, EMPTY_CONTEXT, app_rule)
    assert closure.premise(0) == is_type(EMPTY_CONTEXT, a)
    assert closure.premise(1) == is_type(RawContext(1, (weaken_expr(KIND, a, 1),)), b)
    assert closure.premise(2) == is_term(EMPTY_CONTEXT, lam_id, mk_sym(BS, "Pi", (a, b), 0))
    assert closure.premise(3) == is_term(EMPTY_CONTEXT, t, a)
    # conclusion type is B with t substituted for the bound variable
    assert closure.conclusion == is_term(
        EMPTY_CONTEXT, mk_sym(BS, "app", (a, b, lam_id, t), 0), a
    )


def test_one_weakening_memo_gives_the_closure_rules_of_fresh_ones():
    # One memo shared by instantiate_rule calls in both scope kinds, and on
    # equal but distinct contexts, gives what a fresh memo per call gives.
    # The two kinds weaken the same type differently, at different cuts, so
    # the memo is keyed by both.
    rng = random.Random(43)
    memo = {}
    for _ in range(150):
        alpha = gen_arity(rng)
        ext = mv_extend_signature(LAW_SIGNATURE, alpha)
        premises = []
        for _ in range(rng.randrange(1, 4)):
            delta = rng.randrange(3)
            inner = RawContext(delta, tuple(gen_template(rng, ext, delta, TY, 2, True) for _ in range(delta)))
            premises.append(is_type(inner, gen_template(rng, ext, delta, TY, 2, True)))
        rule = RawRule(alpha, tuple(premises), is_type(EMPTY_CONTEXT, gen_expr(rng, ext, 0, TY, 1)))
        gamma = rng.randrange(1, 4)
        ctx = RawContext(gamma, tuple(gen_expr(rng, LAW_SIGNATURE, gamma, TY, 2) for _ in range(gamma)))
        inst = gen_instantiation(rng, LAW_SIGNATURE, alpha, gamma)
        for kind in ScopeKind:
            fresh = instantiate_rule(kind, inst, ctx, rule)
            for c in (ctx, copy.copy(ctx)):
                assert instantiate_rule(kind, inst, c, rule, memo) == fresh
    assert len(memo) >= 200, len(memo)


def test_instantiate_rule_axiom_case():
    theory, _ = mltt_base()
    unit_rule = theory.rule(theory.rule_index("unit-form"))
    closure = instantiate_rule(KIND, Instantiation((), 0, ()), EMPTY_CONTEXT, unit_rule)
    assert closure.premise_count == 0
    assert closure.conclusion == is_type(EMPTY_CONTEXT, mk_sym(theory.signature, "unit", (), 0))


def test_substitution_rule_shapes():
    theory, _ = mltt_base()
    sig = theory.signature
    unit = mk_sym(sig, "unit", (), 0)
    unit1 = mk_sym(sig, "unit", (), 1)
    ctx = RawContext(1, (unit1,))
    j = is_type(ctx, unit1)
    # K = all positions, identity substitution: single-premise rule
    f = Substitution.identity(1)
    rule = substitution_rule(KIND, f, ctx, frozenset({0}), j)
    assert rule.premises == (j,)
    assert rule.conclusion == j
    # K = empty: the typing premise appears
    rule2 = substitution_rule(KIND, Substitution(0, 1, (mk_sym(sig, "tt", (), 0),)), EMPTY_CONTEXT, frozenset(), j)
    assert rule2.premises == (j, is_term(EMPTY_CONTEXT, mk_sym(sig, "tt", (), 0), unit))
    # triviality violations are checked
    with pytest.raises(TrivialityViolated):
        substitution_rule(
            KIND, Substitution(0, 1, (mk_sym(sig, "tt", (), 0),)), EMPTY_CONTEXT, frozenset({0}), j
        )


def test_equality_substitution_rule_reflexive_shape():
    theory, _ = mltt_base()
    sig = theory.signature
    unit1 = mk_sym(sig, "unit", (), 1)
    ctx = RawContext(1, (unit1,))
    j = is_type(ctx, unit1)
    f = Substitution.identity(1)
    rule = equality_substitution_rule(KIND, f, f, ctx, frozenset({0}), j)
    assert rule.premises == (j,)
    assert rule.conclusion == ty_eq(ctx, unit1, unit1)
    with pytest.raises(NotObjectRule):
        equality_substitution_rule(KIND, f, f, ctx, frozenset({0}), ty_eq(ctx, unit1, unit1))


def test_assoc_equality_judgement():
    pi_rule = THEORY.rule(THEORY.rule_index("Pi-form"))
    left, right = congruence_copies(pi_rule)
    j = pi_rule.conclusion
    eq = assoc_equality_judgement(KIND, left, right, j)
    assert eq.form is JudgementForm.TY_EQ
    # left side mentions the primed copy, right side the double-primed copy
    assert eq.boundary[0] != eq.boundary[1]
    term_j = THEORY.rule(THEORY.rule_index("lam-intro")).conclusion
    l2, r2 = congruence_copies(THEORY.rule(THEORY.rule_index("lam-intro")))
    eq2 = assoc_equality_judgement(KIND, l2, r2, term_j)
    assert eq2.form is JudgementForm.TM_EQ
    with pytest.raises(NotObjectRule):
        assoc_equality_judgement(KIND, left, right, eq)


def test_congruence_copies_are_the_two_generic_instantiations():
    # the left copy keeps each metavariable m of the rule, the right copy
    # sends it to m + n; both are closed and land over the doubled arity
    for name in ("Pi-form", "lam-intro", "app-elim"):
        rule = THEORY.rule(THEORY.rule_index(name))
        n = len(rule.arity)
        left, right = congruence_copies(rule)
        assert left.arity == right.arity == rule.arity
        assert left.scope == right.scope == 0
        doubled = mv_extend_signature(SIG, rule.arity + rule.arity)
        for m, a in enumerate(rule.arity):
            generic = tuple(Var(j, a.binder) for j in range(a.binder))
            assert left(m) == mk_meta(doubled, m, generic, a.binder)
            assert right(m) == mk_meta(doubled, m + n, generic, a.binder)
        for p in rule.premises:
            assert instantiate_judgement(KIND, left, EMPTY_CONTEXT, p) == p
            moved = instantiate_judgement(KIND, right, EMPTY_CONTEXT, p)
            validate_judgement(doubled, moved)
            assert moved.form is p.form and moved.context.scope == p.context.scope


def test_pi_congruence_rule_shape():
    pi_rule = THEORY.rule(THEORY.rule_index("Pi-form"))
    cong = congruence_rule(KIND, pi_rule)
    assert len(cong.premises) == 6
    assert len(cong.arity) == 4
    assert cong.conclusion.form is JudgementForm.TY_EQ
    assert cong == THEORY.rule(THEORY.rule_index("Pi-form-cong"))
    # order: left block, right block, equation block
    assert cong.premises[0].form is JudgementForm.IS_TY
    assert cong.premises[4].form is JudgementForm.TY_EQ
    assert cong.premises[5].form is JudgementForm.TY_EQ


def test_congruence_of_zero_premise_rule():
    theory, _ = mltt_base()
    unit_rule = theory.rule(theory.rule_index("unit-form"))
    cong = congruence_rule(theory.kind, unit_rule)
    assert cong.premises == ()
    u = mk_sym(theory.signature, "unit", (), 0)
    assert cong.conclusion == ty_eq(EMPTY_CONTEXT, u, u)


def test_congruence_not_defined_for_equality_rules():
    beta = THEORY.rule(THEORY.rule_index("beta"))
    with pytest.raises(NotObjectRule):
        congruence_rule(KIND, beta)


def compound_map() -> RawSyntaxMap:
    """A non-simple map from the Pi signature into the base one:
    Pi(A, x.B) goes to Pi(A, x.Pi(unit, y.B[x])), lam and app stay."""
    ext = mv_extend_signature(BASE_SIGNATURE, SIG.symbol(0).arity)
    body = mk_sym(ext, "Pi", (mk_sym(ext, "unit", (), 1), mk_meta(ext, 1, (Var(1, 2),), 2)), 1)
    pi_image = mk_sym(ext, "Pi", (mk_meta(ext, 0, (), 0), body), 0)
    return RawSyntaxMap(SIG, BASE_SIGNATURE, (pi_image,) + tuple(
        generic_application(BASE_SIGNATURE, s) for s in (1, 2)
    ))


def test_congruence_commutes_with_translation():
    # the Pi signature embeds into the base signature at the same indices
    inclusion = RawSyntaxMap(SIG, BASE_SIGNATURE, tuple(generic_application(BASE_SIGNATURE, s) for s in range(3)))
    for m in (inclusion, compound_map()):
        for name in ("Pi-form", "lam-intro", "app-elim"):
            rule = THEORY.rule(THEORY.rule_index(name))
            lhs = map_rule(m, congruence_rule(KIND, rule))
            rhs = congruence_rule(KIND, map_rule(m, rule))
            assert lhs == rhs


def test_generic_application():
    pi = generic_application(SIG, 0)
    assert pi == mk_sym(
        mv_extend_signature(SIG, SIG.symbol(0).arity),
        "Pi",
        (
            mk_meta(mv_extend_signature(SIG, SIG.symbol(0).arity), 0, (), 0),
            mk_meta(mv_extend_signature(SIG, SIG.symbol(0).arity), 1, (Var(0, 1),), 1),
        ),
        0,
    )


def test_a_rule_needs_one_metavariable_name_per_argument():
    # a rule built in Python with too few or too many names is refused when
    # it is built, not later when the theory is written out
    app_elim = THEORY.rule(THEORY.rule_index("app-elim"))
    assert len(app_elim.meta_names) == len(app_elim.arity) == 4
    for names in (app_elim.meta_names[:1], app_elim.meta_names + ("extra",)):
        with pytest.raises(ArityMismatch, match="metavariable name list"):
            app_elim._replace(meta_names=names)
        with pytest.raises(ArityMismatch):
            RawRule(app_elim.arity, app_elim.premises, app_elim.conclusion, names)
    assert app_elim._replace(meta_names=()).metas == ("?0", "?1", "?2", "?3")


def test_equality_substitution_between_other_contexts_is_refused():
    # x : unit |- unit type, along two substitutions into the empty context,
    # one of them from scope 1
    ctx1 = extend(EMPTY_CONTEXT, unit_at(EMPTY_CONTEXT))
    u1 = unit_at(ctx1)
    j = is_type(ctx1, u1.type)
    good = Substitution(0, 1, (tt_at(EMPTY_CONTEXT).term,))
    bad = Substitution(1, 1, (tt_at(ctx1).term,))
    for f, g in ((bad, good), (good, bad)):
        with pytest.raises(ScopeMismatch, match="^substitution endpoints do not match the contexts$"):
            equality_substitution_rule(ScopeKind.INDICES, f, g, EMPTY_CONTEXT, frozenset(), j)
    # the node of a derivation that cites it
    with pytest.raises(DerivationError) as caught:
        check_theory_derivation(mltt_base()[0], (), EqSubstInst(bad, good, EMPTY_CONTEXT, frozenset(), j, (u1.d_type,)))
    assert caught.value.path == () and str(caught.value.cause) == "substitution endpoints do not match the contexts"
