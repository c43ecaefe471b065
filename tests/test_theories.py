"""The kernel checker, derivation translation, and instantiation."""

import pytest

from corpus import (
    KIND,
    SIG,
    THEORY,
    build_corpus,
    extend,
    hypothetical_app_rule,
    pi,
    unit_at,
)
from gtt.bundled import mltt_base, mltt_pi
from gtt.errors import DerivationError, KernelError, PremiseMismatch
from gtt.judgements import EMPTY_CONTEXT, RawContext, is_type
from gtt.syntax import Instantiation, SignatureMap, Var, mk_meta, mk_sym, mv_extend_signature
from gtt.theories import (
    Hyp,
    RawTypeTheory,
    RuleInst,
    SimpleTheoryMap,
    check_admissible_instance,
    check_derived_rule,
    check_theory_derivation,
    instantiate_derivation,
    translate_derivation,
)


def test_hypothesis_case():
    j = is_type(EMPTY_CONTEXT, mk_sym(SIG, "unit", (), 0))
    assert check_theory_derivation(THEORY, (j,), Hyp(0)) == j


def test_corpus_checks():
    for d, j in build_corpus():
        assert check_theory_derivation(THEORY, (), d) == j


def test_pi_formation_three_node_derivation():
    u = unit_at(EMPTY_CONTEXT)
    p = pi(u, unit_at(extend(EMPTY_CONTEXT, u)))
    assert check_theory_derivation(THEORY, (), p.d_type) == is_type(EMPTY_CONTEXT, p.type)


def test_premise_mismatch_reports_path():
    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    good = pi(u, unit_at(ctx1))
    # swap the two children: premise 0 then gets a scope-1 conclusion
    bad = RuleInst(good.d_type.ref, good.d_type.inst, good.d_type.context,
                   (good.d_type.children[1], good.d_type.children[0]))
    with pytest.raises(PremiseMismatch) as exc:
        check_theory_derivation(THEORY, (), bad)
    assert exc.value.path == (0,)


def test_bad_indices_are_derivation_errors():
    with pytest.raises(DerivationError):
        check_theory_derivation(THEORY, (), Hyp(3))
    with pytest.raises(DerivationError):
        check_theory_derivation(
            THEORY, (), RuleInst(99, Instantiation((), 0, ()), EMPTY_CONTEXT, ())
        )


def test_hand_built_rules_are_validated_when_the_theory_is_built():
    # a rule is a template over the signature extended by its arity; the
    # checker trusts it, so the theory validates it: a negative metavariable
    # index must not reach Python's negative indexing, nor an unknown symbol
    from gtt.rules import RawRule
    from gtt.syntax import TY, MetaApp, SymApp, arity

    bad_meta = is_type(EMPTY_CONTEXT, MetaApp(-1, (), 0, TY))
    alpha = arity((TY, 0))
    rules = [
        RawRule((), (), bad_meta),
        RawRule(alpha, (is_type(EMPTY_CONTEXT, MetaApp(0, (), 0, TY)),), bad_meta, ("M",)),
        RawRule((), (), is_type(EMPTY_CONTEXT, SymApp(99, (), 0, TY))),
    ]
    for rule in rules:
        with pytest.raises(KernelError):
            RawTypeTheory(SIG, THEORY.rules + (rule,), THEORY.rule_names + ("bad",))


def test_checking_over_metavariable_extension():
    # over Sigma+(Ty,0): the metavariable is a type; derive |- M type from it
    from gtt.syntax import arity
    from gtt.syntax import TY

    alpha = arity((TY, 0))
    ext = mv_extend_signature(THEORY.signature, alpha, ("M",))
    m = mk_meta(ext, "M", (), 0)
    j = is_type(EMPTY_CONTEXT, m)
    assert check_theory_derivation(THEORY, (j,), Hyp(0), alpha, ("M",)) == j


def test_translate_derivation_inclusion():
    pi_theory, _ = mltt_pi()
    base_theory, _ = mltt_base()
    fmap = SignatureMap(pi_theory.signature, base_theory.signature, (0, 1, 2))
    tmap = SimpleTheoryMap(fmap, pi_theory, base_theory, tuple(range(7)))
    # a derivation with hypotheses: Pi(A, B) type from |- A type and x:A |- B type
    ext = mv_extend_signature(pi_theory.signature, pi_theory.rule(0).arity, ("A", "B"))
    A0 = mk_meta(ext, "A", (), 0)
    A1 = mk_meta(ext, "A", (), 1)
    B1 = mk_meta(ext, "B", (Var(0, 1),), 1)
    hyps = (is_type(EMPTY_CONTEXT, A0), is_type(RawContext(1, (A1,)), B1))
    inst = Instantiation(pi_theory.rule(0).arity, 0, (A0, B1))
    d = RuleInst(0, inst, EMPTY_CONTEXT, (Hyp(0), Hyp(1)))
    conclusion = check_theory_derivation(pi_theory, hyps, d, pi_theory.rule(0).arity)
    out = translate_derivation(tmap, d, pi_theory.rule(0).arity)
    from gtt.judgements import translate_judgement

    ext_map = SignatureMap(
        ext, mv_extend_signature(base_theory.signature, pi_theory.rule(0).arity, ("A", "B")),
        (0, 1, 2), (0, 1),
    )
    new_hyps = tuple(translate_judgement(ext_map, h) for h in hyps)
    got = check_theory_derivation(base_theory, new_hyps, out, pi_theory.rule(0).arity)
    assert got == translate_judgement(ext_map, conclusion)


def test_a_theory_map_matches_rules_up_to_metavariable_names():
    # the rule check compares translations by shape; a map onto a copy of
    # the theory whose rules leave their metavariables unnamed is accepted,
    # and one that sends a rule to a different rule is not
    unnamed = THEORY._replace(rules=tuple(r._replace(meta_names=()) for r in THEORY.rules))
    assert unnamed.rules != THEORY.rules
    fmap = SignatureMap.identity(THEORY.signature)
    SimpleTheoryMap(fmap, THEORY, unnamed, tuple(range(len(THEORY.rules))))
    swapped = (1, 0) + tuple(range(2, len(THEORY.rules)))
    with pytest.raises(KernelError, match="does not translate"):
        SimpleTheoryMap(fmap, THEORY, unnamed, swapped)


def test_translate_derivation_identity_and_composite():
    idmap = SimpleTheoryMap.identity(THEORY)
    for d, j in build_corpus()[:10]:
        once = translate_derivation(idmap, d)
        assert once == d
        assert translate_derivation(idmap, once) == once


def test_instantiate_derivation_trivial_arity():
    for d, j in build_corpus()[:8]:
        out = instantiate_derivation(THEORY, Instantiation((), 0, ()), EMPTY_CONTEXT, d)
        assert check_theory_derivation(THEORY, (), out) == j


def test_instantiate_generic_pi_derivation():
    # the generic Pi-formation derivation over Sigma+(A,B), instantiated at
    # concrete closed types, yields the closed Pi derivation
    from gtt.judgements import instantiate_judgement

    pi_rule = THEORY.rule(THEORY.rule_index("Pi-form"))
    alpha = pi_rule.arity
    ext = mv_extend_signature(SIG, alpha, ("A", "B"))
    A0, A1 = mk_meta(ext, "A", (), 0), mk_meta(ext, "A", (), 1)
    B1 = mk_meta(ext, "B", (Var(0, 1),), 1)
    hyps = (is_type(EMPTY_CONTEXT, A0), is_type(RawContext(1, (A1,)), B1))
    generic = RuleInst(
        THEORY.rule_index("Pi-form"),
        Instantiation(alpha, 0, (A0, B1)),
        EMPTY_CONTEXT,
        (Hyp(0), Hyp(1)),
    )
    conclusion = check_theory_derivation(THEORY, hyps, generic, alpha)

    u = unit_at(EMPTY_CONTEXT)
    inst = Instantiation(alpha, 0, (u.type, unit_at(extend(EMPTY_CONTEXT, u)).type))
    lowered = instantiate_derivation(THEORY, inst, EMPTY_CONTEXT, generic)
    new_hyps = tuple(
        instantiate_judgement(KIND, inst, EMPTY_CONTEXT, h) for h in hyps
    )
    got = check_theory_derivation(THEORY, new_hyps, lowered)
    assert got == instantiate_judgement(KIND, inst, EMPTY_CONTEXT, conclusion)
    # hypothesis nodes map to (instantiated) hypotheses
    assert lowered.children == (Hyp(0), Hyp(1))


def test_instantiate_derivation_closed_subtrees():
    # instantiating a closed derivation: conclusions instantiate pointwise
    from gtt.judgements import instantiate_judgement
    from gtt.syntax import arity, TY

    alpha = arity((TY, 0))
    for d, j in build_corpus()[:12]:
        inst = Instantiation(alpha, 0, (unit_at(EMPTY_CONTEXT).type,))
        out = instantiate_derivation(THEORY, inst, EMPTY_CONTEXT, d)
        got = check_theory_derivation(THEORY, (), out)
        assert got == instantiate_judgement(KIND, inst, EMPTY_CONTEXT, j)


def test_any_rule_derivable_via_generic_witness():
    from gtt.syntax import MetaApp

    for idx in range(len(THEORY.rules)):
        rule = THEORY.rule(idx)
        exprs = tuple(
            MetaApp(i, tuple(Var(j, a.binder) for j in range(a.binder)), a.binder, a.cls)
            for i, a in enumerate(rule.arity)
        )
        witness = RuleInst(
            idx, Instantiation(rule.arity, 0, exprs), EMPTY_CONTEXT,
            tuple(Hyp(k) for k in range(len(rule.premises))),
        )
        assert check_derived_rule(THEORY, rule, witness)


def test_hypothetical_app_rule_derivable():
    rule, witness = hypothetical_app_rule()
    assert check_derived_rule(THEORY, rule, witness)


def test_derived_rule_conclusion_mismatch():
    rule, witness = hypothetical_app_rule()
    wrong = rule.__class__(rule.arity, rule.premises, rule.premises[0], rule.meta_names)
    assert not check_derived_rule(THEORY, wrong, witness)


def test_admissible_instance():
    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    pi_rule_idx = THEORY.rule_index("Pi-form")
    rule = THEORY.rule(pi_rule_idx)
    inst = Instantiation(rule.arity, 0, (u.type, unit_at(ctx1).type))
    witness = RuleInst(pi_rule_idx, inst, EMPTY_CONTEXT, (Hyp(0), Hyp(1)))
    assert check_admissible_instance(THEORY, rule, inst, EMPTY_CONTEXT, witness)
