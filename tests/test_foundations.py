"""Derivations over a closure system, checked by the one loop
``foundations.check_derivation``, grafted and mapped by the one rebuild
``derivation_ops.rebuild``, and well-founded orders."""

import itertools
import operator
import random
from collections import Counter

import pytest

from corpus import THEORY, lam_tower
from golden import type_symbols
from reference_checker import reference_check
from gtt.derivation_ops import rebuild
from gtt.errors import DerivationError, FillerConclusionMismatch, IndexOutOfRange, PremiseMismatch
from gtt.foundations import ClosureRule, FinitePoset, Hyp, check_derivation
from gtt.judgements import EMPTY_CONTEXT, Judgement
from gtt.jsonio import theory_from_json
from gtt.metatheory import check_well_founded_theory, derivation_nodes, down_sets
from gtt.presuppositions import grafting
from gtt.scopes import _record
from gtt.theories import RuleInst, check_theory_derivation


@_record
class GStep:
    """A node of a derivation over a closure system: it cites a rule of the
    system by its index, with one child derivation per premise."""

    rule: int
    children: tuple


def check_generic_derivation(system: tuple, hyps: tuple, d):
    """Check ``d`` over ``system``, a tuple of closure rules, and ``hyps``,
    and return its conclusion: the one checking loop with the rules of the
    system."""

    def rule_of(step: GStep) -> ClosureRule:
        if not 0 <= step.rule < len(system):
            raise IndexOutOfRange(f"rule {step.rule} of {len(system)}")
        return system[step.rule]

    return check_derivation(hyps, d, rule_of)


def graft(outer, fillers: tuple):
    """Replace each hypothesis leaf h of ``outer``, a generic or a typed
    derivation, by filler h: one ``rebuild`` with the leaf map ``grafting``."""
    return rebuild(outer, grafting(fillers), lambda node, children: node._replace(children=children))


def map_derivation(rule_images: tuple, d):
    """Push ``d`` along a map of closure systems: ``rule_images[r]`` derives,
    over the target system, the image of rule r's conclusion from the images
    of its premises (premise i as hypothesis i).  Hypothesis leaves are kept."""

    def step(node, children):
        if not 0 <= node.rule < len(rule_images):
            raise IndexOutOfRange(f"rule {node.rule} of {len(rule_images)}")
        return graft(rule_images[node.rule], children)

    return rebuild(d, lambda h: h, step)


def test_hypothesis_case():
    assert check_generic_derivation((), ("a",), Hyp(0)) == "a"


def test_axiom_rule():
    system = (ClosureRule((), "b"),)
    assert check_generic_derivation(system, (), GStep(0, ())) == "b"


def enumerate_derivable(system, hyps, depth):
    """Brute-force oracle: all conclusions reachable by depth <= ``depth`` trees."""
    derivable = set(hyps)
    for _ in range(depth):
        new = set(derivable)
        for rule in system:
            if all(p in derivable for p in rule.premises):
                new.add(rule.conclusion)
        derivable = new
    return derivable


def test_two_rule_system_against_enumeration():
    system = (ClosureRule((), "a"), ClosureRule(("a", "a"), "b"))
    reachable = enumerate_derivable(system, (), 2)
    assert "b" in reachable and "c" not in reachable
    d = GStep(1, (GStep(0, ()), GStep(0, ())))
    assert check_generic_derivation(system, (), d) == "b"


def test_premise_mismatch_reports_path():
    system = (ClosureRule((), "a"), ClosureRule(("a", "a"), "b"))
    bad = GStep(1, (GStep(0, ()), GStep(1, (GStep(0, ()), GStep(0, ())))))
    with pytest.raises(PremiseMismatch) as exc:
        check_generic_derivation(system, (), bad)
    assert exc.value.path == (1,)


def test_index_out_of_range():
    for bad in (Hyp(0), GStep(3, ())):
        with pytest.raises(DerivationError) as exc:
            check_generic_derivation((), (), bad)
        assert isinstance(exc.value.cause, IndexOutOfRange)
        assert exc.value.path == ()


# --- shared subderivations ----------------------------------------------------

def occurrences(d, path=()):
    """(path, node) for every occurrence of a node in ``d``, depth first."""
    yield path, d
    for i, c in enumerate(d.children):
        yield from occurrences(c, path + (i,))


def replace_object(d, old, new):
    """``d`` with every occurrence of the object ``old`` replaced by ``new``;
    every other node object met more than once stays shared."""
    done = {}

    def go(node):
        if node is old:
            return new
        if id(node) not in done:
            kids = tuple(go(c) for c in node.children)
            same = all(map(operator.is_, kids, node.children))
            done[id(node)] = node if same else node._replace(children=kids)
        return done[id(node)]

    return go(d)


def test_each_node_object_is_checked_once_per_call(monkeypatch):
    # Counted, not timed: the lam tower of depth 8 has 82 tree nodes over 25
    # node objects, and the checker recomputes one closure rule per object.
    from gtt import theories

    d = lam_tower(EMPTY_CONTEXT, 8).d_term
    calls = Counter()

    def counted(theory, sig, node, *rest, original=theories.closure_rule_of_node):
        calls[id(node)] += 1
        return original(theory, sig, node, *rest)

    monkeypatch.setattr(theories, "closure_rule_of_node", counted)
    for _ in range(2):
        calls.clear()
        check_theory_derivation(THEORY, (), d)
        objects = {id(node) for node in derivation_nodes(d)}
        assert set(calls) == objects and set(calls.values()) == {1}
    assert len(objects) < sum(1 for _ in derivation_nodes(d))


def test_a_rule_node_builds_its_conclusion_and_no_premise(monkeypatch):
    # Counted, not timed: every Judgement built during a check.  A rule node
    # matches each child's conclusion against its premise templates, so a
    # successful check of the lam tower of depth 8, all rule nodes, builds
    # one judgement per distinct node object, its conclusion; a planted
    # mismatch builds, besides those, exactly the premise it reports.
    from gtt import theories

    d = lam_tower(EMPTY_CONTEXT, 8).d_term
    built, conclusions = [], {}

    def counted_new(cls, *args, original=Judgement.__new__):
        built.append(original(cls, *args))
        return built[-1]

    def counted(theory, sig, node, *rest, original=theories.closure_rule_of_node):
        rule = original(theory, sig, node, *rest)
        conclusions[id(node)] = rule.conclusion
        return rule

    monkeypatch.setattr(Judgement, "__new__", counted_new)
    monkeypatch.setattr(theories, "closure_rule_of_node", counted)
    check_theory_derivation(THEORY, (), d)
    objects = {id(node): node for node in derivation_nodes(d)}
    assert all(type(node) is RuleInst for node in objects.values())
    assert set(conclusions) == set(objects)
    assert sorted(map(id, built)) == sorted(map(id, conclusions.values()))

    built.clear(), conclusions.clear()
    a, b, body = d.children
    with pytest.raises(PremiseMismatch) as exc:
        check_theory_derivation(THEORY, (), d._replace(children=(b, a, body)))
    assert exc.value.path == (0,)
    reported = [j for j in built if j is exc.value.expected]
    assert len(reported) == 1 and len(built) == len(conclusions) + 1
    assert sorted(id(j) for j in built if j is not reported[0]) == sorted(map(id, conclusions.values()))


def test_a_broken_shared_subtree_fails_at_its_first_occurrence():
    # Break one node object that occurs more than once, everywhere it occurs:
    # the kernel reports the mismatch at the path of its first occurrence in
    # depth-first order, as the tree-walking reference checker does.
    d = lam_tower(EMPTY_CONTEXT, 8).d_term
    seen = Counter(id(node) for _, node in occurrences(d))
    broken = 0
    for path, node in occurrences(d):
        if seen[id(node)] < 2 or len(node.children) < 2 or path == ():
            continue
        seen[id(node)] = 0  # one mutant per object, at its first occurrence
        bad = replace_object(d, node, node._replace(children=node.children[::-1]))
        errors = []
        for check in (check_theory_derivation, reference_check):
            with pytest.raises(PremiseMismatch) as exc:
                check(THEORY, (), bad)
            errors.append(exc.value)
        kernel, reference = errors
        assert kernel.path == reference.path == path + (0,)
        assert str(kernel) == str(reference)
        broken += 1
    assert broken >= 6


def test_a_shared_node_is_compared_with_the_premise_at_every_occurrence():
    # The shared node derives "a"; its first occurrence is cited for "a", its
    # second for "b".  Checked once, it is still compared twice.
    system = (ClosureRule((), "a"), ClosureRule((), "b"), ClosureRule(("a", "b"), "c"))
    shared = GStep(0, ())
    with pytest.raises(PremiseMismatch) as exc:
        check_generic_derivation(system, (), GStep(2, (shared, shared)))
    assert exc.value.path == (1,)
    assert check_generic_derivation(system, (), GStep(2, (shared, GStep(1, ())))) == "c"


SYSTEM = (
    ClosureRule((), "a"),
    ClosureRule(("a",), "b"),
    ClosureRule(("a", "b"), "c"),
)


def random_tree(rng, system, hyps, goal, depth):
    """Build a random derivation of ``goal``; None if none found."""
    options = []
    for k, h in enumerate(hyps):
        if h == goal:
            options.append(("hyp", k))
    if depth > 0:
        for r, rule in enumerate(system):
            if rule.conclusion == goal:
                options.append(("step", r))
    if not options:
        return None
    kind, idx = rng.choice(options)
    if kind == "hyp":
        return Hyp(idx)
    children = []
    for p in system[idx].premises:
        child = random_tree(rng, system, hyps, p, depth - 1)
        if child is None:
            return None
        children.append(child)
    return GStep(idx, tuple(children))


def test_graft_trivial_cases():
    assert graft(Hyp(0), (GStep(0, ()),)) == GStep(0, ())
    outer = GStep(1, (Hyp(0),))
    assert graft(outer, (GStep(0, ()),)) == GStep(1, (GStep(0, ()),))
    with pytest.raises(FillerConclusionMismatch, match="no filler for hypothesis 1"):
        graft(GStep(2, (Hyp(0), Hyp(1))), (GStep(0, ()),))


def test_graft_grafts_typed_derivations():
    # typed derivations share the leaf Hyp, and a typed node has children and
    # _replace, so the one graft serves derivations of a theory too
    from corpus import THEORY, extend, pi, unit_at
    from gtt.judgements import EMPTY_CONTEXT, is_type
    from gtt.theories import check_theory_derivation

    u = unit_at(EMPTY_CONTEXT)
    p = pi(u, unit_at(extend(EMPTY_CONTEXT, u)))
    outer = p.d_type._replace(children=(Hyp(0), p.d_type.children[1]))
    assert check_theory_derivation(THEORY, (is_type(EMPTY_CONTEXT, u.type),), outer) == is_type(
        EMPTY_CONTEXT, p.type
    )
    assert graft(outer, (u.d_type,)) == p.d_type


def test_graft_preserves_conclusion_randomised():
    rng = random.Random(7)
    hyps = ("a", "b")
    fillers = (GStep(0, ()), GStep(1, (GStep(0, ()),)))
    for goal in ("a", "b", "c"):
        for _ in range(200):
            outer = random_tree(rng, SYSTEM, hyps, goal, 4)
            if outer is None:
                continue
            assert check_generic_derivation(SYSTEM, hyps, outer) == goal
            grafted = graft(outer, fillers)
            assert check_generic_derivation(SYSTEM, (), grafted) == goal


def identity_images(system):
    return tuple(
        GStep(r, tuple(Hyp(i) for i in range(len(rule.premises))))
        for r, rule in enumerate(system)
    )


def test_map_derivation_identity():
    rng = random.Random(11)
    images = identity_images(SYSTEM)
    for _ in range(100):
        d = random_tree(rng, SYSTEM, ("a",), "c", 4)
        if d is None:
            continue
        mapped = map_derivation(images, d)
        assert mapped == d


def test_map_derivation_derived_rule_grows_depth():
    # Map rule 1 (a |- b) to the two-step derivation through rule 2? No such
    # derived rule exists here, so use a target system with a detour.
    target = (
        ClosureRule((), "a"),
        ClosureRule((), "a'"),
        ClosureRule(("a", "a'"), "b"),
        ClosureRule(("a", "b"), "c"),
    )
    images = (
        GStep(0, ()),                      # rule 0 -> axiom a
        GStep(2, (Hyp(0), GStep(1, ()))),  # rule 1 -> 2-step derivation of b
        GStep(3, (Hyp(0), Hyp(1))),        # rule 2 -> rule 3
    )
    d = GStep(2, (GStep(0, ()), GStep(1, (GStep(0, ()),))))
    assert check_generic_derivation(SYSTEM, (), d) == "c"
    mapped = map_derivation(images, d)
    assert check_generic_derivation(target, (), mapped) == "c"


def test_map_derivation_composition():
    rng = random.Random(13)
    images = identity_images(SYSTEM)
    for _ in range(100):
        d = random_tree(rng, SYSTEM, ("a", "b"), "c", 3)
        if d is None:
            continue
        once = map_derivation(images, d)
        twice = map_derivation(images, once)
        assert twice == once == d


# --- well-founded orders ------------------------------------------------------

def transitive_closure(p: FinitePoset) -> set[tuple[int, int]]:
    """The pairs joined by a path of edges, grown until no pair is added."""
    closure = set(p.edges)
    while extra := {(a, d) for a, b in closure for c, d in closure if b == c} - closure:
        closure |= extra
    return closure


def wf_oracle(p: FinitePoset) -> bool:
    """Every <-progressive subset (w.r.t. the transitive closure) is everything;
    ``down_sets`` gives the same strict down-sets as the closure."""
    closure = transitive_closure(p)
    below = {x: {y for (y, z) in closure if z == x} for x in range(p.size)}
    assert down_sets(p) == tuple(frozenset(below[x]) for x in range(p.size))
    universe = set(range(p.size))
    for bits in itertools.product([False, True], repeat=p.size):
        s = {i for i in range(p.size) if bits[i]}
        progressive = all(x in s for x in range(p.size) if below[x] <= s)
        if progressive and s != universe:
            return False
    return True


def no_element_below_itself(p: FinitePoset) -> bool:
    """The verdict ``down_sets`` gives: no element lies below itself."""
    return all(x not in below for x, below in enumerate(down_sets(p)))


def test_well_founded_examples():
    assert no_element_below_itself(FinitePoset.of(0)) is True
    assert no_element_below_itself(FinitePoset.of(2, [(0, 1), (1, 0)])) is False
    assert no_element_below_itself(FinitePoset.of(3, [(0, 1), (1, 2)])) is True


@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_well_founded_matches_progressive_subset_oracle(size):
    pairs = [(i, j) for i in range(size) for j in range(size)]
    for mask in range(2 ** len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        p = FinitePoset.of(size, edges)
        assert no_element_below_itself(p) == wf_oracle(p)


def test_well_founded_size_four_sample():
    rng = random.Random(3)
    pairs = [(i, j) for i in range(4) for j in range(4)]
    for _ in range(300):
        edges = [e for e in pairs if rng.random() < 0.3]
        p = FinitePoset.of(4, edges)
        assert no_element_below_itself(p) == wf_oracle(p)


def loop_free_relations():
    """Every relation without loops on up to 3 elements, and 300 on 4 drawn
    with a fixed seed: the sizes of the two tests above."""
    for size in range(4):
        pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
        for mask in range(2 ** len(pairs)):
            yield FinitePoset.of(size, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])
    rng = random.Random(3)
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    for _ in range(300):
        yield FinitePoset.of(4, [e for e in pairs if rng.random() < 0.3])


def test_a_theory_reports_the_shortest_cycle_through_the_first_rule_on_one():
    for p in loop_free_relations():
        theory = theory_from_json(type_symbols(p.size, p.edges))[0]
        diagnostics = check_well_founded_theory(theory).diagnostics
        assert len(diagnostics) == (not wf_oracle(p)), p
        if not diagnostics:
            continue
        (line,) = diagnostics
        names = line.removeprefix("dependency cycle: ").split(" < ")
        cycle = [theory.rule_index(name) for name in names]
        assert len(set(cycle)) == len(cycle) and set(zip(cycle, cycle[1:] + cycle[:1])) <= p.edges, p
        assert cycle[0] == min(x for x, y in transitive_closure(p) if x == y), p
        # no path of fewer edges leads from the first rule back to it
        reached = {cycle[0]}
        for _ in range(len(cycle) - 1):
            reached = {j for i, j in p.edges if i in reached}
            assert cycle[0] not in reached, p


def test_a_finite_poset_refuses_an_edge_outside_it():
    with pytest.raises(IndexOutOfRange, match=r"^edge \(0,2\) outside 0\.\.1$"):
        FinitePoset.of(2, [(0, 2)])
