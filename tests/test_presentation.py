"""Sequential contexts, premise families, realisation, and elaboration."""

import itertools
import json
import pathlib
import random

import pytest

from genexpr import LAW_SIGNATURE, arity, gen_expr
from golden import self_spec, universe_spec
from gtt.acceptability import expr_symbols
from gtt.bundled import mltt_pi, mltt_pi_presented
from gtt.cli import main
from gtt.errors import ArityMismatch, MissingWitness, ParseError, StageViolation, SymbolArityMismatch, SymbolForbidden, SymbolRequired
from gtt.foundations import FinitePoset
from gtt.judgements import EMPTY_CONTEXT, JudgementForm, RawContext
from gtt.jsonio import load_theory_file, loads
from gtt.metatheory import check_acceptable_theory, check_well_founded_theory, is_tight
from gtt.presentation import (
    PremisesShape,
    WellFoundedPremiseFamily,
    WellPresentedTheorySpec,
    _occurring_outer,
    check_premise_family,
    elaborate_theory,
    flatten_premise_family,
    flatten_sequential_context,
    is_sequential_flat_context,
    realise_rule_boundary,
    sequential_by_occurrence,
    sequential_by_peeling,
    strengthen_expr,
)
from gtt.scopes import ScopeKind
from gtt.theories import RawTypeTheory, RuleWitnesses
from gtt.syntax import (
    TM,
    TY,
    MetaApp,
    Signature,
    Symbol,
    Var,
    mk_sym,
    mv_extend_signature,
    weaken_expr,
)

KIND = ScopeKind.INDICES
FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

# the two-symbol signature of the equivalence enumeration
TWO_SIG = Signature((Symbol("b", TY, ()), Symbol("el", TY, arity((TM, 0)))))


def b(scope):
    return mk_sym(TWO_SIG, "b", (), scope)


def el(v):
    return mk_sym(TWO_SIG, "el", (v,), v.scope)


def test_flatten_empty_and_roundtrip():
    assert flatten_sequential_context(KIND, ()) == EMPTY_CONTEXT
    assert is_sequential_flat_context(KIND, EMPTY_CONTEXT) == ()


def test_flatten_two_entry_context():
    # [b, el(x0)]: the first entry is weakened, the second mentions it
    seq = (b(0), el(Var(0, 1)))
    flat = flatten_sequential_context(KIND, seq)
    assert flat.scope == 2
    # indices: entry 0 was declared first, so it sits at position 1
    assert flat.type_at(1) == b(2)
    assert flat.type_at(0) == el(Var(1, 2))
    assert is_sequential_flat_context(KIND, flat) == seq


def test_non_sequential_context_detected():
    # entry 0 mentions entry declared later
    flat = RawContext(2, (b(2), el(Var(0, 2))))
    assert is_sequential_flat_context(KIND, flat) is None
    assert not sequential_by_occurrence(KIND, flat)
    assert not sequential_by_peeling(KIND, flat)


def enumerate_types(scope, depth):
    """All type expressions of the two-symbol signature, bounded depth."""
    out = [b(scope)]
    if depth >= 2:
        for p in range(scope):
            out.append(el(Var(p, scope)))
    return out


def enumerate_flat_contexts(max_scope, depth):
    for n in range(max_scope + 1):
        for types in itertools.product(enumerate_types(n, depth), repeat=n):
            yield RawContext(n, tuple(types))


def test_three_definitions_coincide_exhaustively():
    total = sequential = 0
    for ctx in enumerate_flat_contexts(3, 2):
        total += 1
        via_inverse = is_sequential_flat_context(KIND, ctx)
        d1 = via_inverse is not None
        d2 = sequential_by_occurrence(KIND, ctx)
        d3 = sequential_by_peeling(KIND, ctx)
        assert d1 == d2 == d3, ctx
        if d1:
            sequential += 1
            # data agreement: the unweakened entries flatten back
            assert flatten_sequential_context(KIND, via_inverse) == ctx
    assert total == 1 + 2 + 9 + 64
    assert 0 < sequential < total


def test_three_definitions_coincide_levels():
    kind = ScopeKind.LEVELS
    for n in range(3):
        for types in itertools.product(enumerate_types(n, 2), repeat=n):
            ctx = RawContext(n, tuple(types))
            d1 = is_sequential_flat_context(kind, ctx) is not None
            d2 = sequential_by_occurrence(kind, ctx)
            d3 = sequential_by_peeling(kind, ctx)
            assert d1 == d2 == d3, ctx


# the law signature with a term metavariable binding one variable and a closed type one
LAW_META_SIG = mv_extend_signature(LAW_SIGNATURE, arity((TM, 1), (TY, 0)))


def outer_positions(kind, e, outer):
    """The positions of the scope ``outer`` that occur free in ``e``."""
    if isinstance(e, Var):
        side, q = kind.unsum(outer, e.scope - outer, e.pos)
        return {q} if side == "left" else set()
    return set().union(*(outer_positions(kind, a, outer) for a in e.args))


@pytest.mark.parametrize("kind", list(ScopeKind))
def test_strengthening_inverts_weakening(kind):
    rng = random.Random(25)
    refused = 0
    for _ in range(300):
        scope, by = rng.randrange(3), rng.randrange(1, 3)
        cls = rng.choice([TY, TM])
        e = gen_expr(rng, LAW_META_SIG, scope, cls, 4)
        assert strengthen_expr(kind, weaken_expr(kind, e, by), by) == e
        # over the wider scope: None exactly when one of the added positions occurs
        wide = gen_expr(rng, LAW_META_SIG, scope + by, cls, 4)
        added = {kind.inr(scope, by, j) for j in range(by)}
        narrow = strengthen_expr(kind, wide, by)
        if outer_positions(kind, wide, scope + by) & added:
            assert narrow is None
            refused += 1
        else:
            assert weaken_expr(kind, narrow, by) == wide
    assert 0 < refused < 300


@pytest.mark.parametrize("kind", list(ScopeKind))
def test_the_expression_scans_take_a_chain_of_5000_binders(kind):
    # lam(b, b, x. lam(...)) nested 5,000 deep around a variable of the
    # outer scope: each scan reads the nodes off a stack, not the Python one
    outer, depth = 2, 5000
    sig = Signature(LAW_SIGNATURE.symbols, kind)
    e = Var(kind.inl(outer, depth, 1), outer + depth)
    for s in reversed(range(outer, outer + depth)):
        e = mk_sym(sig, "lam", (mk_sym(sig, "b", (), s), mk_sym(sig, "b", (), s + 1), e), s)
    assert expr_symbols(e) == {sig.symbol_index("b"), sig.symbol_index("lam")}
    assert _occurring_outer(kind, e, outer) == {1}


@pytest.mark.parametrize("kind", list(ScopeKind))
def test_three_definitions_coincide_on_random_contexts(kind):
    # types with binders and metavariables: flattened sequential contexts,
    # and flat contexts whose types range over the whole scope
    rng = random.Random(10)
    for _ in range(100):
        n = rng.randrange(5)
        seq = tuple(gen_expr(rng, LAW_META_SIG, i, TY, 3) for i in range(n))
        flat = RawContext(n, tuple(gen_expr(rng, LAW_META_SIG, n, TY, 3) for _ in range(n)))
        for ctx in (flatten_sequential_context(kind, seq), flat):
            via_inverse = is_sequential_flat_context(kind, ctx)
            assert (via_inverse is not None) == sequential_by_occurrence(kind, ctx) == sequential_by_peeling(kind, ctx)
            if via_inverse is not None:
                assert flatten_sequential_context(kind, via_inverse) == ctx
        assert is_sequential_flat_context(kind, flatten_sequential_context(kind, seq)) == seq


def test_premises_shape_arities():
    order = FinitePoset.of(3, [(0, 1), (0, 2)])
    shape = PremisesShape(
        order, ((JudgementForm.IS_TY, 0), (JudgementForm.IS_TY, 1), (JudgementForm.TY_EQ, 0))
    )
    assert [a.binder for a in shape.arity()] == [0, 1]
    assert shape.arity_below(0) == ()
    assert shape.arity_below(1) == (0,)
    assert shape.arity_below(2) == (0,)


def test_premises_shape_requires_linear_extension():
    with pytest.raises(StageViolation):
        PremisesShape(FinitePoset.of(2, [(1, 0)]), ((JudgementForm.IS_TY, 0),) * 2)


def test_flatten_pi_premise_family():
    spec = mltt_pi_presented()
    pi_fam = spec.rules[0].boundary.premises
    sig = Signature((Symbol("Pi", TY, arity((TY, 0), (TY, 1))),))
    flat = flatten_premise_family(sig, pi_fam)
    assert len(flat) == 2
    assert flat[0].head == MetaApp(0, (), 0, TY)
    assert flat[1].head == MetaApp(1, (Var(0, 1),), 1, TY)
    assert flat[1].context.types == (MetaApp(0, (), 1, TY),)


def test_flatten_empty_family():
    shape = PremisesShape(FinitePoset.of(0), ())
    fam = WellFoundedPremiseFamily(shape, ())
    assert flatten_premise_family(TWO_SIG, fam) == ()


def test_equality_premise_keeps_arity():
    order = FinitePoset.of(2, [(0, 1)])
    shape = PremisesShape(
        order, ((JudgementForm.IS_TY, 0), (JudgementForm.TY_EQ, 0))
    )
    A0 = MetaApp(0, (), 0, TY)
    fam = WellFoundedPremiseFamily(shape, (((), ()), ((), (A0, A0))), ("A", "e"))
    assert [a.binder for a in shape.arity()] == [0]
    flat = flatten_premise_family(TWO_SIG, fam)
    assert flat[1].form is JudgementForm.TY_EQ
    assert flat[1].head is None


def test_premises_above_an_invalid_premise_are_skipped_with_a_diagnostic():
    # A type, a : M with M a term metavariable in a type slot, B type above
    # both: B's witnesses would be checked over a flattening of a : M, so B
    # is skipped and reported instead of raising the class mismatch of a : M
    theory = RawTypeTheory(TWO_SIG, (), ())
    slots = ((JudgementForm.IS_TY, 0), (JudgementForm.IS_TM, 0), (JudgementForm.IS_TY, 0))
    boundaries = (((), ()), ((), (MetaApp(0, (), 0, TM),)), ((), ()))
    for n in (2, 3):
        order = FinitePoset.of(n, [(i, j) for j in range(n) for i in range(j)])
        fam = WellFoundedPremiseFamily(PremisesShape(order, slots[:n]), boundaries[:n], ("A", "a", "B")[:n])
        diagnostics = []
        assert check_premise_family(theory, fam, RuleWitnesses({}, {}), diagnostics) is False
        assert [d.split(":")[0] for d in diagnostics] == [f"premise {i}" for i in range(1, n)], diagnostics
    assert diagnostics[1] == "premise 2: witnesses not checked, invalid premises below it: [1]"


def test_realise_pi_boundary_with_both_symbols():
    spec = mltt_pi_presented()
    pi_boundary = spec.rules[0].boundary
    sig = Signature(
        (
            Symbol("Pi", TY, arity((TY, 0), (TY, 1))),
            Symbol("Sigma", TY, arity((TY, 0), (TY, 1))),
            Symbol("c", TM, ()),
        )
    )
    rule_pi = realise_rule_boundary(sig, pi_boundary, 0)
    rule_sigma = realise_rule_boundary(sig, pi_boundary, 1)
    assert rule_pi.conclusion.head.sym == 0
    assert rule_sigma.conclusion.head.sym == 1
    assert rule_pi.premises == rule_sigma.premises
    assert is_tight(rule_pi) and is_tight(rule_sigma)
    with pytest.raises(SymbolArityMismatch):
        realise_rule_boundary(sig, pi_boundary, 2)
    with pytest.raises(SymbolRequired):
        realise_rule_boundary(sig, pi_boundary, None)


def test_realise_equality_boundary():
    spec = mltt_pi_presented()
    beta_boundary = spec.rules[3].boundary
    theory, _ = elaborate_theory(spec)
    sig = theory.signature
    rule = realise_rule_boundary(sig, beta_boundary, None)
    assert rule == theory.rule(theory.rule_index("beta"))
    with pytest.raises(SymbolForbidden):
        realise_rule_boundary(sig, beta_boundary, 0)


def test_elaborate_mltt_matches_bundled():
    spec = mltt_pi_presented()
    theory, witnesses = elaborate_theory(spec)
    ref, _ = mltt_pi()
    assert check_acceptable_theory(theory, witnesses).acceptable
    assert theory.rules == ref.rules
    assert [s.name for s in theory.signature.symbols] == ["Pi", "lam", "app"]
    wf = check_well_founded_theory(theory, None, witnesses)
    assert wf.ok, wf.diagnostics


def test_elaboration_validates_each_rule_once(monkeypatch):
    import gtt.theories

    kind, spec = load_theory_file(loads((FIXTURES / "mltt_pi_presented.json").read_text()))
    assert kind == "spec"
    validated = []
    original = gtt.theories._validate_rule
    monkeypatch.setattr(gtt.theories, "_validate_rule", lambda sig, rule: validated.append(rule) or original(sig, rule))
    theory, _ = elaborate_theory(spec)
    # 4 spec rules, 3 of them object rules with a congruence rule each: 7 rules,
    # validated once each (a stage theory that re-validated its prefix made 19)
    assert len(theory.rules) == 7
    assert validated == list(theory.rules)


def test_a_theory_does_not_extend_a_prefix_it_does_not_begin_with():
    theory, _ = mltt_pi()
    head = RawTypeTheory(theory.signature, theory.rules[:2], theory.rule_names[:2])
    with pytest.raises(ArityMismatch):
        RawTypeTheory(theory.signature, theory.rules[1:], theory.rule_names[1:], head)


def test_elaborate_rejects_stage_violations():
    spec = mltt_pi_presented()
    # move beta before lam and app: its expressions cite later symbols
    bad_rules = (spec.rules[0], spec.rules[3], spec.rules[1], spec.rules[2])
    bad = WellPresentedTheorySpec(
        spec.kind,
        FinitePoset.of(4, [(0, 1), (0, 2), (0, 3)]),
        bad_rules,
        spec.witnesses,
    )
    with pytest.raises(StageViolation):
        elaborate_theory(bad)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (1, 0)], "rule order has a cycle"),
    ([(1, 0)], "rule indices must respect the order (list a linear extension)"),
])
def test_elaborate_refuses_a_rule_order_it_cannot_follow(edges, message):
    # built in code, not read from JSON: elaboration checks the order itself
    spec = mltt_pi_presented()
    bad = WellPresentedTheorySpec(spec.kind, FinitePoset.of(2, edges), spec.rules[:2], spec.witnesses)
    with pytest.raises(StageViolation) as caught:
        elaborate_theory(bad)
    assert str(caught.value) == message


def test_incomparable_rules_accepted():
    # Pi and a second product-like symbol with no order between them
    spec = mltt_pi_presented()
    pi_rule = spec.rules[0]
    sigma_rule = spec.rules[0].__class__("Sigma", spec.rules[0].boundary)
    two = WellPresentedTheorySpec(
        spec.kind, FinitePoset.of(2, []), (pi_rule, sigma_rule), {}
    )
    theory, witnesses = elaborate_theory(two)
    assert [s.name for s in theory.signature.symbols] == ["Pi", "Sigma"]
    assert check_acceptable_theory(theory, witnesses).acceptable


def _lam_with_premise_order(order):
    data = json.loads((FIXTURES / "mltt_pi_presented.json").read_text())
    (lam,) = [r for r in data["rules"] if r["name"] == "lam"]
    lam["premise_order"] = order
    return data


@pytest.mark.parametrize("order, first_bad", [
    ([[False, True], [False, 2], [True, 2]], "[False, True]"),
    ([[0, 1], [0, 2], [True, 2]], "[True, 2]"),
])
def test_a_json_boolean_is_not_a_premise_index(order, first_bad):
    # a JSON boolean is a bool, an int subclass: false and true were read as
    # the premise indices 0 and 1, and the spec passed as well presented
    with pytest.raises(ParseError) as caught:
        load_theory_file(_lam_with_premise_order(order))
    assert str(caught.value) == f"bad order entry {first_bad}"
    # the same order in numbers is the fixture's own
    load_theory_file(_lam_with_premise_order([[int(a), int(b)] for a, b in order]))


def _universe_spec(premise_order, hyp):
    """U type; El(a) type for a : U; R(A, a, x) type for A type, a : U and
    x : El(a), with R's premises ordered by ``premise_order``.  R's witness
    that El(a) is a type cites a : U as Hyp(``hyp``) of the flattening of
    the premises below x."""
    u_type = {"node": "rule", "name": "U", "cxt": [], "inst": {}, "children": []}
    el_type = {"node": "rule", "name": "El", "cxt": [], "inst": {"a": {"meta": "a", "args": []}},
               "children": [{"node": "hyp", "index": hyp}]}
    a_in_u = {"name": "a", "form": "IsTm", "cxt_seq": [], "boundary": {"type": {"sym": "U", "args": []}}}
    return {
        "scope_system": "debruijn-indices",
        "well_presented": True,
        "order": [["U", "El"], ["U", "R"], ["El", "R"]],
        "rules": [
            {"name": "U", "conclusion_form": "IsTy", "premises": []},
            {"name": "El", "conclusion_form": "IsTy", "premises": [a_in_u],
             "witnesses": {"premise_0/0": u_type}},
            {"name": "R", "conclusion_form": "IsTy", "premise_order": premise_order,
             "premises": [
                 {"name": "A", "form": "IsTy", "cxt_seq": []},
                 a_in_u,
                 {"name": "x", "form": "IsTm", "cxt_seq": [],
                  "boundary": {"type": {"sym": "El", "args": [{"meta": "a", "args": []}]}}},
             ],
             "witnesses": {"premise_1/0": u_type, "premise_2/0": el_type}},
        ],
    }


def test_a_premise_order_that_is_not_linear_elaborates(tmp_path):
    # below x sit only a : U, so R's witness for El(a) type cites it as Hyp(0)
    # over the extension by a alone; as a rule witness it cites premise 1 and
    # the metavariable a at its index in the full arity (A, a, x)
    theories = []
    for premise_order, hyp in (([[1, 2]], 0), ([[0, 1], [0, 2], [1, 2]], 1)):
        kind, spec = load_theory_file(_universe_spec(premise_order, hyp))
        assert kind == "spec"
        theory, witnesses = elaborate_theory(spec)
        report = check_acceptable_theory(theory, witnesses)
        assert report.acceptable, report.diagnostics
        theories.append(theory)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_universe_spec(premise_order, hyp)))
        assert main(["check-theory", str(path), "--well-presented", "--acceptable"]) == 0
    # the premise order is not part of the raw rule
    assert theories[0] == theories[1]


def _linear_extensions(names, order):
    return [p for p in itertools.permutations(names) if all(p.index(a) < p.index(b) for a, b in order)]


def test_every_rule_order_the_spec_allows_elaborates():
    # congruence synthesis reads only the rule and its own witnesses, so no
    # order of the rules elaborates a stage it cannot handle
    data, _ = universe_spec()
    rules = {r["name"]: r for r in data["rules"]}
    orders = _linear_extensions(rules, data["order"])
    assert len(orders) == 30
    for names in orders:
        _, spec = load_theory_file({**data, "rules": [rules[n] for n in names]})
        theory, witnesses = elaborate_theory(spec)
        assert check_acceptable_theory(theory, witnesses).acceptable, names


A_META = {"meta": "A", "args": []}
U_TYPE = {"sym": "U", "args": []}
U_RULE = {"name": "U", "conclusion_form": "IsTy", "premises": []}
HYP_0 = {"node": "hyp", "index": 0}
# the weakening of the closed premise A type into x : A
A_UNDER_X = {"node": "subst", "cxt": [A_META], "subst": {"src": 1, "map": []}, "trivial": [],
             "judgement": {"cxt": [], "form": "IsTy", "slots": {"head": A_META}}, "children": [HYP_0]}


def _chain_spec(*rules) -> dict:
    """A spec of ``rules``, each ordered below the next."""
    names = [r["name"] for r in rules]
    return {"scope_system": "debruijn-indices", "well_presented": True,
            "order": [list(pair) for pair in zip(names, names[1:])], "rules": list(rules)}


def _family_spec() -> dict:
    """F(A, a) type for a : A, and R(A, t) type for x : A |- t : F(A, x),
    whose witness is a rule node over x : A with a variable below it."""
    x = {"node": "var", "cxt": [A_META], "i": 0, "children": [A_UNDER_X]}
    f_ax = {"node": "rule", "name": "F", "cxt": [A_META], "inst": {"A": A_META, "a": {"var": 0}},
            "children": [A_UNDER_X, x]}
    return _chain_spec(
        {"name": "F", "conclusion_form": "IsTy", "premise_order": [[0, 1]],
         "premises": [{"name": "A", "form": "IsTy"}, {"name": "a", "form": "IsTm", "boundary": {"type": A_META}}],
         "witnesses": {"premise_1/0": HYP_0}},
        {"name": "R", "conclusion_form": "IsTy", "premise_order": [[0, 1]],
         "premises": [{"name": "A", "form": "IsTy"},
                      {"name": "t", "form": "IsTm", "cxt_seq": [A_META],
                       "boundary": {"type": {"sym": "F", "args": [A_META, {"var": 0}]}}}],
         "witnesses": {"premise_1/0": f_ax}},
    )


def _mixed_context_spec() -> dict:
    """R(A, B) type for x : A, y : U |- B type: the two copies of B's
    context share the entry U."""
    return _chain_spec(U_RULE, {
        "name": "R", "conclusion_form": "IsTy", "premise_order": [[0, 1]],
        "premises": [{"name": "A", "form": "IsTy"}, {"name": "B", "form": "IsTy", "cxt_seq": [A_META, U_TYPE]}],
    })


def _closed_source_spec() -> dict:
    """c(a, B) : B(a) for a : U and x : U |- B type, whose witness substitutes
    a into B over the closed context x : U."""
    u_type = {"node": "rule", "name": "U", "cxt": [], "inst": {}, "children": []}
    b_of_a = {"node": "subst", "cxt": [], "subst": {"src": 0, "map": [{"meta": "a", "args": []}]}, "trivial": [],
              "judgement": {"cxt": [U_TYPE], "form": "IsTy", "slots": {"head": {"meta": "B", "args": [{"var": 0}]}}},
              "children": [{"node": "hyp", "index": 1}, HYP_0]}
    return _chain_spec(U_RULE, {
        "name": "c", "conclusion_form": "IsTm", "premise_order": [[0, 1]],
        "conclusion_boundary": {"type": {"meta": "B", "args": [{"meta": "a", "args": []}]}},
        "premises": [{"name": "a", "form": "IsTm", "boundary": {"type": U_TYPE}},
                     {"name": "B", "form": "IsTy", "cxt_seq": [U_TYPE]}],
        "witnesses": {"premise_0/0": u_type, "conclusion/0": b_of_a},
    })


@pytest.mark.parametrize("make", [self_spec, _family_spec, _mixed_context_spec, _closed_source_spec])
def test_synthesised_congruence_witnesses_check(make):
    # each spec's last rule needs a case of congruence synthesis that no
    # bundled theory does: see the docstring of each spec
    _, spec = load_theory_file(make())
    theory, witnesses = elaborate_theory(spec)
    report = check_acceptable_theory(theory, witnesses)
    assert report.acceptable, report.diagnostics


def test_a_premise_context_entry_that_is_not_a_metavariable_is_refused():
    # R(A, B) type for A type and x : Pi(A, A) |- B type: the congruence
    # witnesses would carry B' across Pi(A', A') == Pi(A, A)
    pi = json.loads((FIXTURES / "mltt_pi_presented.json").read_text())["rules"][0]
    _, spec = load_theory_file(_chain_spec(pi, {
        "name": "R", "conclusion_form": "IsTy", "premise_order": [[0, 1]],
        "premises": [{"name": "A", "form": "IsTy"},
                     {"name": "B", "form": "IsTy", "cxt_seq": [{"sym": "Pi", "args": [A_META, A_META]}]}],
    }))
    with pytest.raises(MissingWitness, match="^congruence synthesis needs context entries that are closed metavariables$"):
        elaborate_theory(spec)
