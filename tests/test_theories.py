"""The kernel checker, derivations along theory maps, and instantiation."""

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
from genexpr import arity, identity_theory_map, relabelling
from gtt.bundled import mltt_base, mltt_pi
from gtt.errors import ArityMismatch, DerivationError, IndexOutOfRange, KernelError, PremiseMismatch
from gtt.judgements import EMPTY_CONTEXT, RawContext, is_type
from gtt.maps import (
    RawSyntaxMap,
    RawTheoryMap,
    apply_theory_map_derivation,
    check_derived_rule,
    map_judgement,
    map_rule,
)
from gtt.metatheory import generic_rule_instance, instantiate_derivation
from gtt.rules import generic_application, instantiate_rule
from gtt.syntax import (
    Instantiation,
    Substitution,
    Var,
    mk_meta,
    mk_sym,
    mv_extend_signature,
)
from gtt.theories import (
    Hyp,
    RawTypeTheory,
    RuleInst,
    SubstInst,
    check_theory_derivation,
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
    # checker trusts it, so a negative metavariable index must not reach
    # Python's negative indexing, nor an unknown symbol: the rule checks its
    # metavariables against its arity when it is built, the theory validates
    # the rest
    from gtt.rules import RawRule
    from gtt.syntax import TY, MetaApp, SymApp

    bad_meta = is_type(EMPTY_CONTEXT, MetaApp(-1, (), 0, TY))
    alpha = arity((TY, 0))
    rules = [
        lambda: RawRule((), (), bad_meta),
        lambda: RawRule(alpha, (is_type(EMPTY_CONTEXT, MetaApp(0, (), 0, TY)),), bad_meta, ("M",)),
        lambda: RawRule((), (), is_type(EMPTY_CONTEXT, SymApp(99, (), 0, TY))),
    ]
    for rule in rules:
        with pytest.raises(KernelError):
            RawTypeTheory(SIG, THEORY.rules + (rule(),), THEORY.rule_names + ("bad",))


def test_checking_over_metavariable_extension():
    # over Sigma+(Ty,0): the metavariable is a type; derive |- M type from it
    from gtt.syntax import TY

    alpha = arity((TY, 0))
    ext = mv_extend_signature(THEORY.signature, alpha, ("M",))
    m = mk_meta(ext, "M", (), 0)
    j = is_type(EMPTY_CONTEXT, m)
    assert check_theory_derivation(THEORY, (j,), Hyp(0), alpha, ("M",)) == j


def simple_theory_map(src, dst, sym_table, rule_table) -> RawTheoryMap:
    """A simple map as a raw theory map: the syntax map relabels symbols, and
    rule i goes to the generic instance of rule ``rule_table[i]``."""
    return RawTheoryMap(
        relabelling(src.signature, dst.signature, sym_table), src, dst,
        {i: generic_rule_instance(j, src.rule(i)) for i, j in enumerate(rule_table)},
    )


def pi_over_hypotheses(theory):
    """Pi(A, x.B) type from |- A type and x:A |- B type, over the metavariable
    extension by the arity of Pi-form: the hypotheses, the derivation and
    its conclusion."""
    alpha = theory.rule(0).arity
    ext = mv_extend_signature(theory.signature, alpha, ("A", "B"))
    A0 = mk_meta(ext, "A", (), 0)
    A1 = mk_meta(ext, "A", (), 1)
    B1 = mk_meta(ext, "B", (Var(0, 1),), 1)
    hyps = (is_type(EMPTY_CONTEXT, A0), is_type(RawContext(1, (A1,)), B1))
    d = RuleInst(0, Instantiation(alpha, 0, (A0, B1)), EMPTY_CONTEXT, (Hyp(0), Hyp(1)))
    return hyps, d, check_theory_derivation(theory, hyps, d, alpha)


def test_translate_derivation_inclusion():
    pi_theory, _ = mltt_pi()
    base_theory, _ = mltt_base()
    tmap = simple_theory_map(pi_theory, base_theory, (0, 1, 2), tuple(range(7)))
    assert tmap.check()
    hyps, d, conclusion = pi_over_hypotheses(pi_theory)
    out = apply_theory_map_derivation(tmap, d)
    # the inclusion keeps every index, so the tree is the same
    assert out == d
    new_hyps = tuple(map_judgement(tmap.syntax, h) for h in hyps)
    got = check_theory_derivation(base_theory, new_hyps, out, pi_theory.rule(0).arity)
    assert got == map_judgement(tmap.syntax, conclusion)


def test_theory_map_along_a_compound_interpretation():
    # Pi(A, x.B) goes to Pi(A, x.Pi(unit, y.B[x])); Pi-form goes to a
    # derivation of its image that weakens the hypothesis on B by y
    pi_theory, _ = mltt_pi()
    base, _ = mltt_base()
    alpha = pi_theory.rule(0).arity
    ext = mv_extend_signature(base.signature, alpha)
    A = [mk_meta(ext, 0, (), s) for s in range(3)]
    x_at_2 = Var(1, 2)
    B_x = mk_meta(ext, 1, (x_at_2,), 2)
    unit1 = mk_sym(ext, "unit", (), 1)
    inner = mk_sym(ext, "Pi", (unit1, B_x), 1)
    syntax = RawSyntaxMap(
        pi_theory.signature, base.signature,
        (mk_sym(ext, "Pi", (A[0], inner), 0),)
        + tuple(generic_application(base.signature, s) for s in (1, 2)),
    )
    x_a = RawContext(1, (A[1],))
    x_a_y_unit = RawContext(2, (mk_sym(ext, "unit", (), 2), A[2]))
    weaken = Substitution(2, 1, (x_at_2,))
    d_b = SubstInst(weaken, x_a_y_unit, frozenset({0}), pi_theory.rule(0).premises[1], (Hyp(1),))
    d_unit = RuleInst(base.rule_index("unit-form"), Instantiation((), 1, ()), x_a, ())
    d_inner = RuleInst(0, Instantiation(alpha, 1, (unit1, B_x)), x_a, (d_unit, d_b))
    pi_form = RuleInst(0, Instantiation(alpha, 0, (A[0], inner)), EMPTY_CONTEXT, (Hyp(0), d_inner))
    tmap = RawTheoryMap(syntax, pi_theory, base, {0: pi_form})
    assert tmap.check()
    hyps, d, conclusion = pi_over_hypotheses(pi_theory)
    out = apply_theory_map_derivation(tmap, d)
    new_hyps = tuple(map_judgement(syntax, h) for h in hyps)
    assert check_theory_derivation(base, new_hyps, out, alpha) == map_judgement(syntax, conclusion)
    assert map_judgement(syntax, conclusion).head == mk_sym(ext, "Pi", (A[0], inner), 0)


def test_a_theory_map_matches_rules_up_to_metavariable_names():
    # a map onto a copy of the theory whose rules leave their metavariables
    # unnamed checks, and one that sends a rule to a different rule does not
    unnamed = THEORY._replace(rules=tuple(r._replace(meta_names=()) for r in THEORY.rules))
    assert unnamed.rules != THEORY.rules
    n = len(THEORY.rules)
    assert simple_theory_map(THEORY, unnamed, tuple(range(SIG.base_count)), tuple(range(n))).check()
    swapped = (1, 0) + tuple(range(2, n))
    diagnostics: list[str] = []
    tmap = simple_theory_map(THEORY, unnamed, tuple(range(SIG.base_count)), swapped)
    assert not tmap.check(diagnostics)
    cause = "at node []: instantiation arity differs from rule arity"
    assert diagnostics == [
        f"rule {THEORY.rule_name(0)}: witness fails to check: {cause}",
        f"rule {THEORY.rule_name(1)}: witness fails to check: {cause}",
    ]
    # a stored derivation that checks but derives a premise, not the rule
    diagnostics = []
    assert not tmap._replace(rule_derivations={0: Hyp(0)}).check(diagnostics)
    rule = map_rule(tmap.syntax, THEORY.rule(0))
    assert diagnostics == [
        f"rule {THEORY.rule_name(0)}: witness derives {rule.premises[0]!r}, wanted {rule.conclusion!r}"
    ]


def test_translate_derivation_identity_and_composite():
    idmap = identity_theory_map(THEORY)
    for d, j in build_corpus()[:10]:
        once = apply_theory_map_derivation(idmap, d)
        assert once == d
        assert apply_theory_map_derivation(idmap, once) == once


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
    from gtt.syntax import TY

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
    # the instance is admissible: the witness derives its conclusion from its premises
    closure = instantiate_rule(THEORY.kind, inst, EMPTY_CONTEXT, rule)
    premises = tuple(map(closure.premise, range(closure.premise_count)))
    assert check_theory_derivation(THEORY, premises, witness) == closure.conclusion


def test_a_theory_refuses_a_rule_name_list_of_another_length_and_a_name_it_does_not_have():
    with pytest.raises(ArityMismatch, match="^rule name list does not match rule count$"):
        RawTypeTheory(THEORY.signature, THEORY.rules, THEORY.rule_names[1:])
    with pytest.raises(IndexOutOfRange, match="^no rule named 'no-such-rule'$"):
        THEORY.rule_index("no-such-rule")
