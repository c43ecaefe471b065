"""Substitution under binders builds no per-binder table.

Counted, not timed: the entries of every ``Substitution`` and ``Renaming``
table built while checking a nested Pi, which are none, and the types
weakened while checking a nested Pi or a lam tower.  A check of depth n
meets n contexts whose types repeat across positions and depths, and
weakens each distinct (scope kind, type, cut, delta) once, so the
weakening grows linearly (a ratio of 2 per doubling); weakening every type
of a context at each extension makes it n^2, and again for every premise
and node that extends it faster still.  Likewise the validation calls: the
root's conclusion is validated once, and nothing is re-validated per node.
And elimination of substitution checks triviality once per substitution
node and builds no extended substitution table; it walks the body of a
chain of substitution nodes once, the body of a substitution node nested
under binders in another's body once, and each binder premise of an
equality substitution once per image it needs.  And the Python calls of a
check: a syntax walker spends one frame per expression node, its own
recursion.
And the conditions of a theory: its tightness bijection and congruence
indices are found once per theory object, however many metatheorem calls
read them.  And the presuppositions of a lam tower: the shipped witnesses
cite premises only, so one witness is instantiated per presupposition of
the root, whatever the depth, in one walk that grafts as it instantiates.
And a rule node instantiates only the templates its rule's plan keeps, and
a replacement validates each step's realiser once.
"""

import copy
import pickle
import sys
from collections import Counter

import pytest

from corpus import (
    THEORY,
    WITNESSES,
    app,
    conv_wrap,
    equality_substitution_into_nested_pi,
    equality_substitutions_under_binders,
    extend,
    lam,
    lam_tower,
    nested_pi,
    tt_at,
    unit_at,
    weakened_lam_over_weakening,
    weakening_chain,
)
from gtt.judgements import EMPTY_CONTEXT, presuppositions
from gtt.metatheory import derivation_nodes
from gtt.rules import BuiltinRule
from gtt.scopes import Renaming
from gtt.syntax import Substitution
from gtt.theories import Hyp, RawTypeTheory, RuleInst, SubstInst, check_theory_derivation


def test_nested_pi_table_entries_grow_quadratically(monkeypatch):
    derivations = {n: nested_pi(EMPTY_CONTEXT, n).d_type for n in (16, 32)}
    built = [0]
    for cls in (Substitution, Renaming):
        def post_init(self, original=cls.__post_init__):
            built[0] += len(self.table)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", post_init)
    entries = {}
    for n, d in derivations.items():
        built[0] = 0
        check_theory_derivation(THEORY, (), d)
        entries[n] = built[0]
    # a generic metavariable occurrence returns its entry and a weakening
    # occurrence (the domain A in the context of x : A |- B type) shifts
    # it, so no table is built at all
    assert entries == {16: 0, 32: 0}, entries


def patch_everywhere(monkeypatch, name, original, replacement):
    """Replace ``original`` by ``replacement`` in every ``gtt`` module that
    holds it under ``name``: the module defining it and those importing it."""
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("gtt.") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def count_weakening(monkeypatch):
    """Count the types extend_context weakens: ``run(f, *args)`` calls f and
    returns the number, after asserting that no (scope kind, type, cut,
    delta) was shifted twice."""
    from gtt import judgements

    per_key = Counter()

    def counted_shift(*key, original=judgements._shift):
        per_key[key] += 1
        return original(*key)

    monkeypatch.setattr(judgements, "_shift", counted_shift)

    def run(f, *args):
        per_key.clear()
        f(*args)
        again = [(kind, t.scope, cut, delta, count) for (kind, t, cut, delta), count in per_key.items() if count > 1]
        assert not again, again
        return sum(per_key.values())

    return run


def test_lam_tower_weakens_each_context_block_once_per_check(monkeypatch):
    # Counted, not timed: the types weakened by extend_context while checking
    # a lam tower.  One check weakens each distinct type once, however many
    # contexts, premises and nodes hold it, so the count grows at most as the
    # n contexts do, n^2 (a ratio of 4 per doubling); it is linear in fact,
    # see below.  Weakening once per node makes it n^3 (a ratio near 8).
    derivations = {n: lam_tower(EMPTY_CONTEXT, n).d_term for n in (16, 32)}
    run = count_weakening(monkeypatch)
    weakened = {n: run(check_theory_derivation, THEORY, (), d) for n, d in derivations.items()}
    assert weakened[16] > 0
    assert weakened[32] / weakened[16] <= 4.6, weakened


@pytest.mark.parametrize("build, depths", [
    (lambda n: nested_pi(EMPTY_CONTEXT, n).d_type, (16, 32, 64)),
    (lambda n: lam_tower(EMPTY_CONTEXT, n).d_term, (16, 32)),
], ids=["nested_pi", "lam_tower"])
def test_weakened_types_grow_linearly_in_the_depth(monkeypatch, build, depths):
    # Counted, not timed: the n contexts of a check repeat a few types (unit,
    # Pi(unit, unit), ...) across positions and depths, and one memo keyed by
    # type weakens each (kind, type, cut, delta) once: 15, 31, 63 types at
    # n = 16, 32, 64.  A memo keyed by the whole context weakens every type
    # of every new context, n^2/2 (120, 496, 2,016: a ratio of 4).
    run = count_weakening(monkeypatch)
    weakened = [run(check_theory_derivation, THEORY, (), build(n)) for n in depths]
    assert weakened[0] > 0
    assert all(big / small <= 2.2 for small, big in zip(weakened, weakened[1:])), weakened


def test_elimination_weakens_each_context_block_once_per_call(monkeypatch):
    # Counted, not timed: one eliminate_substitution call keeps one weakening
    # memo for every substitution it runs, the renamings of typings under
    # binders included, so each distinct type of a target context is
    # weakened once: 4 types for the chain and 7 for the equality
    # substitution into nested Pi.  With a fresh memo per extension they
    # weaken 14 and 42 (a memo keyed by context block weakened 19 and 28);
    # a fresh memo per renaming weakens a type of the app(id, tt) typing
    # twice.
    from gtt.metatheory import eliminate_substitution

    run = count_weakening(monkeypatch)
    for d in (
        weakening_chain(8)[0],
        equality_substitution_into_nested_pi(8),
        *equality_substitutions_under_binders(),
    ):
        assert run(eliminate_substitution, THEORY, d) > 0


def test_nested_pi_validates_each_expression_once(monkeypatch):
    # Counted, not timed: the root's conclusion is validated once, and every
    # inner node's context and shown entries are checked by equality with it.
    # Re-validating every node's context makes the visits grow as n^2.
    from gtt import judgements, syntax, theories

    d = nested_pi(EMPTY_CONTEXT, 32).d_type
    nodes = sum(1 for _ in derivation_nodes(d))
    calls = Counter()
    for name in ("validate_expr", "validate_context"):
        original = getattr(syntax, name, None) or getattr(judgements, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in (syntax, judgements, theories):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    check_theory_derivation(THEORY, (), d)
    assert calls["validate_context"] == 1, calls
    assert calls["validate_expr"] <= 2 * nodes, (calls, nodes)


def test_elimination_checks_triviality_once_per_subst_node(monkeypatch):
    # Counted, not timed: eliminating k = 8 stacked weakenings over a lam
    # tower checks the trivial positions of each subst node once, where the
    # substitution enters, and builds no extended substitution table.
    # Re-checking at every node and extending under every binder makes
    # both counts grow with the tree times the context.
    from gtt import metatheory, rules, syntax

    d, _ = weakening_chain(8)
    calls = Counter()
    for module, name in ((syntax, "extend_substitution"), (rules, "acts_trivially")):
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        patch_everywhere(monkeypatch, name, original, counted)
    metatheory.eliminate_substitution(THEORY, d)
    trivial = sum(len(n.trivial) for n in derivation_nodes(d) if isinstance(n, SubstInst))
    assert trivial > 0
    assert calls["extend_substitution"] == 0, calls
    assert calls["acts_trivially"] <= trivial, (calls, trivial)


def test_elimination_walks_a_chain_of_subst_nodes_once(monkeypatch):
    # Counted, not timed: the k stacked weakenings of a chain are folded into
    # one substitution, so the lam tower below them is walked once and the
    # contexts under its binders are built once, whatever k is.  Eliminating
    # the nodes one at a time walks the tower k times (56 and 112 calls).
    from gtt import judgements, metatheory

    calls = [0]

    def counted(*args, original=judgements.extend_context):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(judgements, "extend_context", counted)
    counts = {}
    for k in (8, 16):
        d, _ = weakening_chain(k)
        calls[0] = 0
        metatheory.eliminate_substitution(THEORY, d)
        counts[k] = calls[0]
    assert 0 < counts[8] == counts[16], counts


def test_elimination_walks_a_substitution_node_under_binders_once(monkeypatch):
    # Counted, not timed: a weakened lam whose body is a weakening.  The walk
    # of the outer substitution folds the inner node, met under the lam's
    # binder, and walks the inner body once: one instantiation per rule node
    # of the lam's tree.  Eliminating the inner node first walks its body a
    # second time, under the outer substitution.
    from gtt import metatheory

    calls = [0]

    def counted(*args, original=metatheory.subst_act_inst):
        calls[0] += 1
        return original(*args)

    patch_everywhere(monkeypatch, "subst_act_inst", metatheory.subst_act_inst, counted)
    d, _ = weakened_lam_over_weakening()
    lam_tree = d.children[0]
    (inner,) = [n for n in derivation_nodes(lam_tree) if isinstance(n, SubstInst)]
    rule_nodes = sum(isinstance(n, RuleInst) for n in derivation_nodes(lam_tree))
    assert sum(isinstance(n, RuleInst) for n in derivation_nodes(inner)) > 0
    metatheory.eliminate_substitution(THEORY, d)
    assert calls[0] == rule_nodes


def test_equality_substitution_walks_a_binder_premise_for_its_g_image_only(monkeypatch):
    # Counted, not timed: under a binder premise the child is walked for all
    # three images over the f-target, and again over the g-target for its
    # g-image alone.  The output grows from 49 to 161 nodes between n = 4 and
    # n = 8; walking both times for all three images doubles the work per
    # binder level (92 and 1,532 instantiations, 16.7x).
    from gtt import metatheory

    calls = [0]

    def counted(*args, original=metatheory.subst_act_inst):
        calls[0] += 1
        return original(*args)

    patch_everywhere(monkeypatch, "subst_act_inst", metatheory.subst_act_inst, counted)
    counts = {}
    for n in (4, 8):
        d = equality_substitution_into_nested_pi(n)
        calls[0] = 0
        metatheory.eliminate_substitution(THEORY, d)
        counts[n] = calls[0]
    assert 0 < counts[8] <= 5 * counts[4], counts


def test_presuppositions_instantiate_one_witness_per_presupposition_of_the_root(monkeypatch):
    # Counted, not timed: no witness of mltt_base or of the built-in rules
    # cites a premise's presuppositions, so none below the root is derived.
    # Deriving every premise's presuppositions instantiates a witness at
    # each lam node and at the tt below them: n + 1 at depth n.
    from gtt import metatheory

    calls = [0]

    def counted(*args, original=metatheory.instantiate_derivation):
        calls[0] += 1
        return original(*args)

    patch_everywhere(monkeypatch, "instantiate_derivation", metatheory.instantiate_derivation, counted)
    for n in range(2, 17):
        t = lam_tower(EMPTY_CONTEXT, n)
        calls[0] = 0
        assert metatheory.derive_presuppositions(THEORY, t.d_term, WITNESSES) == (t.d_type,)
        assert calls[0] == len(presuppositions(check_theory_derivation(THEORY, (), t.d_term))) == 1


def test_presuppositions_instantiate_and_graft_each_cited_witness_in_one_walk(monkeypatch):
    # Counted, not timed: a presupposition of the root is one rebuild of the
    # one witness it cites (lam-intro's ``Pi(A, B) type``), whose instantiating
    # step runs once per node object of that witness and whose leaf map grafts
    # the premises in the same walk; no second walk grafts the instantiated one.
    from gtt import derivation_ops, metatheory

    walks, steps = [], Counter()

    def counted(d, leaf, step, original=derivation_ops.rebuild):
        walks.append(d)

        def counted_step(node, children):
            steps[id(node)] += 1
            return step(node, children)

        return original(d, leaf, counted_step)

    patch_everywhere(monkeypatch, "rebuild", derivation_ops.rebuild, counted)
    (witness,) = WITNESSES[THEORY.rule_name(THEORY.rule_index("lam-intro"))].conclusion.values()
    nodes = {id(n) for n in derivation_nodes(witness) if not isinstance(n, Hyp)}
    for n in range(2, 17):
        t = lam_tower(EMPTY_CONTEXT, n)
        walks.clear()
        steps.clear()
        assert metatheory.derive_presuppositions(THEORY, t.d_term, WITNESSES) == (t.d_type,)
        assert walks == [witness]
        assert set(steps) == nodes and set(steps.values()) == {1}


def count_calls(f, *args) -> int:
    """The Python calls ``f(*args)`` makes, its own included: the ``call``
    events of ``sys.setprofile``, which a generator also sends when it resumes."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        f(*args)
    finally:
        sys.setprofile(previous)
    return calls[0]


@pytest.mark.parametrize("build, first, bound", [
    (lambda: nested_pi(EMPTY_CONTEXT, 16).d_type, 722, 666),
    (lambda: lam_tower(EMPTY_CONTEXT, 8).d_term, 837, 673),
    (lambda: weakening_chain(16)[0], 7280, 7128),
], ids=["nested_pi16", "lam_tower8", "weakening_chain16"])
def test_a_check_spends_one_python_frame_per_expression_node(build, first, bound):
    # Counted, not timed: walkers that spent 3 to 6 frames on an expression
    # node (a helper per check, per variable and per scope sum, and a
    # generator frame resumed per argument) made 1,543, 2,160 and 11,554
    # calls; one frame per node made 899, 898 and 7,359, and building each
    # rule node by its rule's plan makes 606, 612 and 6,480.  The first
    # check of rule objects that have no plan yet also compiles the plans of
    # the rules it cites, once per rule: 657, 761 and 6,619, against 937,
    # 964 and 7,359 for a first check before the node plan.  Both bounds
    # are 1.1x those counts.  The built-in rules are shared by every
    # theory, so their plans are compiled before counting.
    d = build()
    for ref in BuiltinRule:
        ref.rule.plan
    theory = RawTypeTheory(THEORY.signature, tuple(r._replace() for r in THEORY.rules), THEORY.rule_names)
    assert count_calls(check_theory_derivation, theory, (), d) <= first
    assert count_calls(check_theory_derivation, theory, (), d) <= bound


def test_a_rule_node_instantiates_only_the_templates_its_plan_keeps(monkeypatch):
    # Counted, not timed: checking a lam tower instantiates, at each rule
    # node, only the slots its rule's plan keeps as templates, each once,
    # and validates only the root's conclusion and the entries the plan
    # lists as hidden.  A slot the plan reads as an entry or as a symbol
    # over entries is never instantiated: instantiating every template
    # calls ``instantiate_expr`` 49 times here and the plan 15 times.
    from gtt import judgements, rules, syntax, theories

    d = lam_tower(EMPTY_CONTEXT, 8).d_term
    check_theory_derivation(THEORY, (), d)
    instantiated, validated = [], [0]

    def counted_instantiate(kind, inst, e, original=syntax.instantiate_expr):
        instantiated.append(e)
        return original(kind, inst, e)

    def counted_validate(*args, original=syntax.validate_expr):
        validated[0] += 1
        return original(*args)

    for module in (rules, judgements):
        monkeypatch.setattr(module, "instantiate_expr", counted_instantiate)
    for module in (judgements, theories):
        monkeypatch.setattr(module, "validate_expr", counted_validate)
    conclusion = check_theory_derivation(THEORY, (), d)
    nodes = {id(n): n for n in derivation_nodes(d) if isinstance(n, RuleInst)}.values()
    templates = Counter()
    for node in nodes:
        for _, c, boundary, head in THEORY.rule(node.ref).plan[1]:
            slots = (c if type(c) is tuple else ()) + boundary + (() if head is None else (head,))
            templates.update(id(s) for s in slots if type(s) not in (int, tuple))
    assert Counter(map(id, instantiated)) == templates and len(instantiated) == 15, instantiated
    root = conclusion.context.types + conclusion.boundary + (conclusion.head,)
    assert validated[0] == len(root) + sum(len(THEORY.rule(n.ref).plan[0]) for n in nodes), validated


def fresh_theory() -> RawTypeTheory:
    """A theory object equal to ``THEORY`` whose memo no other test filled."""
    return RawTypeTheory(THEORY.signature, THEORY.rules, THEORY.rule_names)


def test_a_theory_finds_its_tightness_and_congruences_once(monkeypatch):
    # Counted, not timed: 100 uniqueness-of-typing and 100 natural-type calls
    # check each rule's tightness once and match each object rule with its
    # symbol once; recomputing the bijection per call makes 100 times that.
    # An equal theory object finds its own, and so do congruence lookups.
    from gtt import rules, tightness
    from gtt.metatheory import eliminate_substitution, natural_type, unique_typing_acceptable

    calls = Counter()
    for module, name in ((tightness, "check_tight"), (tightness, "is_symbol_rule"), (rules, "congruence_rule")):
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        patch_everywhere(monkeypatch, name, original, counted)
    u = unit_at(EMPTY_CONTEXT)
    x_unit = extend(EMPTY_CONTEXT, u)
    typed = app(u, unit_at(x_unit), lam(u, unit_at(x_unit), tt_at(x_unit)), tt_at(EMPTY_CONTEXT))
    second = conv_wrap(typed).d_term
    theory = fresh_theory()
    objects = sum(rule.is_object for rule in theory.rules)
    for _ in range(100):
        unique_typing_acceptable(theory, typed.d_term, second, WITNESSES)
        assert natural_type(theory, EMPTY_CONTEXT, typed.term) == typed.type
    assert calls == Counter(check_tight=len(theory.rules), is_symbol_rule=objects), calls
    again = fresh_theory()
    natural_type(again, EMPTY_CONTEXT, typed.term)
    assert calls == Counter(check_tight=2 * len(theory.rules), is_symbol_rule=2 * objects), calls

    # elimination looks up the congruence rule of each object rule its
    # equality substitution meets, once per theory object
    d = equality_substitution_into_nested_pi(2)
    eliminate_substitution(theory, d)
    congruences = calls["congruence_rule"]
    assert congruences > 0
    for _ in range(9):
        eliminate_substitution(theory, d)
    eliminate_substitution(again, d)
    assert calls["congruence_rule"] == 2 * congruences, calls


def test_the_memo_is_not_a_field():
    from gtt.metatheory import find_congruence, theory_tightness

    theory = fresh_theory()
    beta = theory_tightness(theory)
    find_congruence(theory, THEORY.rule_index("Pi-form"))
    assert theory.memo
    twin = fresh_theory()
    assert theory == twin and hash(theory) == hash(twin) and repr(theory) == repr(twin)
    for copied in (copy.copy(theory), copy.deepcopy(theory), pickle.loads(pickle.dumps(theory)), theory._replace()):
        assert copied == theory
        assert vars(copied) == {}
        assert theory_tightness(copied) == beta


def test_replacement_steps_validate_each_realiser_once(monkeypatch):
    # Counted, not timed: the builder keeps one syntax map and grows it by
    # the realiser of each symbol step, validating that realiser alone, so
    # n closed steps realised by El(u) over type_in_type validate 2n
    # expressions, 500 and 1,000.  Rebuilding the map at each step validates
    # every earlier realiser again: 31,625 and 125,750.
    from gtt import syntax
    from gtt.bundled import type_in_type
    from gtt.judgements import JudgementForm
    from gtt.maps import ReplacementBuilder, SymbolStep, sequential_boundary_spec
    from gtt.syntax import Instantiation, mk_sym

    tit, _ = type_in_type()
    sig = tit.signature
    u = mk_sym(sig, "u", (), 0)
    el_of_u = mk_sym(sig, "El", (u,), 0)
    d_u = RuleInst(0, Instantiation((), 0, ()), EMPTY_CONTEXT, ())
    d_el_u = RuleInst(2, Instantiation(tit.rule(2).arity, 0, (u,)), EMPTY_CONTEXT, (d_u,))
    boundary = sequential_boundary_spec((), JudgementForm.IS_TY, ())
    calls = [0]

    def counted(*args, original=syntax.validate_expr):
        calls[0] += 1
        return original(*args)

    patch_everywhere(monkeypatch, "validate_expr", syntax.validate_expr, counted)
    counts = {}
    for n in (250, 500):
        builder = ReplacementBuilder(tit)
        calls[0] = 0
        for i in range(n):
            builder.add_symbol(SymbolStep(f"U{i}", boundary, el_of_u, d_el_u))
        counts[n] = calls[0]
        assert builder.syntax.exprs == (el_of_u,) * n
    assert 0 < counts[500] <= 2.1 * counts[250] and counts[250] <= 4 * 250, counts
