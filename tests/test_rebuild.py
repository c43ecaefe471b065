"""One bottom-up rebuild of a derivation: ``derivation_ops.rebuild``.

Grafting, the maps of closure systems and of theories, instantiation of a
derivation, the maps of its data and elimination of substitution are each
one ``rebuild``.  They agree, ``==`` and byte for byte, with the recursive
walks they replaced (kept in ``reference_transformers``), on every input
of ``test_reference_transformers`` (the corpus, ``substitution_corpus()``,
the weakening chains and equality substitutions under binders) in both
scope systems; elimination is compared there.  They reach a depth of 5,000
at the default recursion limit, where each recursive walk overflowed, and
a node object that occurs k times is rebuilt once, into one object.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

import reference_transformers as reference
from corpus import THEORY, conv_wrap, lam_tower, tt_at
from genexpr import identity_theory_map
from gtt.derivation_ops import derivation_nodes, map_derivation_exprs, map_node, rebuild
from gtt.elimination import eliminate_substitution
from gtt.errors import FillerConclusionMismatch
from gtt.judgements import EMPTY_CONTEXT
from gtt.jsonio import derivation_to_json, dumps
from gtt.maps import apply_theory_map_derivation
from gtt.presuppositions import BUILTIN_WITNESSES, grafting, instantiate_derivation
from gtt.syntax import Instantiation
from gtt.theories import Hyp, RuleInst
from test_foundations import GStep, graft, map_derivation
from test_reference_transformers import INPUTS, LV_THEORY, lv_expr

DEPTH = 5000


def assert_same(theory, got, want):
    assert got == want
    sig = theory.signature
    assert dumps(derivation_to_json(theory, sig, got)) == dumps(derivation_to_json(theory, sig, want))


def inputs_of(kind):
    theory = THEORY if kind == "indices" else LV_THEORY
    return [(th, w, d) for th, w, d, _ in INPUTS if th is theory]


def distinct(d) -> dict:
    return {id(n): n for n in derivation_nodes(d)}


def cited_witnesses(theory, witnesses, d):
    """(node, conclusion witness of its rule) for each rule node object of ``d``."""
    for node in distinct(d).values():
        if isinstance(node, RuleInst):
            rw = witnesses[theory.rule_name(node.ref)] if isinstance(node.ref, int) else BUILTIN_WITNESSES[node.ref]
            yield from ((node, w) for w in rw.conclusion.values())


@pytest.mark.parametrize("kind", ["indices", "levels"])
def test_instantiation_and_grafting_agree_with_the_recursive_walks(kind):
    for theory, witnesses, d in inputs_of(kind):
        for node, w in cited_witnesses(theory, witnesses, d):
            # the fillers of the premises, then hypotheses for any a weak witness cites
            fillers = node.children + tuple(Hyp(len(node.children) + k) for k in range(8))
            lowered = instantiate_derivation(theory, node.inst, node.context, w)
            assert_same(theory, lowered, reference.instantiate_derivation(theory, node.inst, node.context, w))
            assert_same(theory, graft(lowered, fillers), reference.graft(lowered, fillers))
            at_once = instantiate_derivation(theory, node.inst, node.context, w, grafting(fillers))
            assert_same(theory, at_once, reference.graft(lowered, fillers))


@pytest.mark.parametrize("kind", ["indices", "levels"])
def test_the_maps_of_data_and_of_theories_agree_with_the_recursive_walks(kind):
    for theory, _, d in inputs_of(kind):
        for hyp in (None, lambda k: k + 1):
            want = reference.map_derivation_exprs(d, lv_expr, hyp)
            assert_same(theory, map_derivation_exprs(d, lv_expr, hyp), want)
        identity = identity_theory_map(theory)
        assert_same(theory, apply_theory_map_derivation(identity, d), reference.apply_theory_map_derivation(identity, d))


def as_generic(d, codes: dict):
    """``d`` as a generic derivation: a rule per (node kind, rule, premise count)."""
    if isinstance(d, Hyp):
        return d
    code = codes.setdefault((type(d).__name__, getattr(d, "ref", None), len(d.children)), len(codes))
    return GStep(code, tuple(as_generic(c, codes) for c in d.children))


@pytest.mark.parametrize("kind", ["indices", "levels"])
def test_maps_of_closure_systems_agree_with_the_recursive_walk(kind):
    codes: dict = {}
    generic = [as_generic(d, codes) for _, _, d in inputs_of(kind)]
    n = len(codes)
    # rule r goes to a step of rule n + r over rule r, its premises reversed
    images = [None] * n
    for (_, _, arity), r in codes.items():
        images[r] = GStep(n + r, (GStep(r, tuple(Hyp(i) for i in reversed(range(arity)))),))
    images = tuple(images)
    for g in generic:
        assert map_derivation(images, g) == reference.map_derivation(images, g)


def spine(d, child: int):
    """The nodes from ``d`` down its ``child``-th children to a leaf."""
    out = [d]
    while len(out[-1].children) > child:
        out.append(out[-1].children[child])
    return out


def data(node):
    return node._replace(children=()) if node.children else node


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


@pytest.fixture(scope="module")
def step_chain():
    g = Hyp(0)
    for _ in range(DEPTH):
        g = GStep(0, (g,))
    return g


@pytest.fixture(scope="module")
def conv_chain():
    """``DEPTH`` conversions of ``tt : unit`` along reflexivity, one in another."""
    t = tt_at(EMPTY_CONTEXT)
    for _ in range(DEPTH):
        t = conv_wrap(t)
    return t.d_term


def test_grafting_and_maps_of_closure_systems_reach_any_depth(default_recursion_limit, step_chain):
    # the recursive walks overflowed below 1,000
    assert sum(1 for _ in derivation_nodes(step_chain)) == DEPTH + 1
    grafted = spine(graft(step_chain, (GStep(1, ()),)), 0)
    assert grafted[-1] == GStep(1, ()) and all(n.rule == 0 for n in grafted[:-1]) and len(grafted) == DEPTH + 1
    mapped = spine(map_derivation((GStep(0, (Hyp(0),)),), step_chain), 0)
    assert mapped[-1] == Hyp(0) and all(n.rule == 0 for n in mapped[:-1]) and len(mapped) == DEPTH + 1


@pytest.mark.parametrize("walk", [
    lambda d: instantiate_derivation(THEORY, Instantiation((), 0, ()), EMPTY_CONTEXT, d),
    lambda d: map_derivation_exprs(d, lambda e: e),
    lambda d: apply_theory_map_derivation(identity_theory_map(THEORY), d),
    lambda d: eliminate_substitution(THEORY, d),
], ids=["instantiate_derivation", "map_derivation_exprs", "apply_theory_map_derivation", "eliminate_substitution"])
def test_instantiation_and_the_maps_of_data_reach_any_depth(default_recursion_limit, conv_chain, walk):
    # each leaves the chain as it was: compare node by node down the spine of
    # conversions (child 2 is the converted term), not with ``==``, which
    # recurses on the Python stack
    want = spine(conv_chain, 2)
    got = spine(walk(conv_chain), 2)
    assert len(got) == len(want) == DEPTH + 1
    assert all(data(a) == data(b) for a, b in zip(got, want))


def test_a_shared_node_object_is_mapped_once_into_one_object():
    # a lam tower shares its type derivations: 82 tree nodes over 25 objects
    d = lam_tower(EMPTY_CONTEXT, 8).d_term
    objects = distinct(d)
    shared = Counter(id(n) for n in derivation_nodes(d))
    assert max(shared.values()) > 2
    seen = Counter()

    def count(e):
        seen[id(e)] += 1
        return e

    out = map_derivation_exprs(d, count)
    per_object = Counter()
    for node in objects.values():
        if not isinstance(node, Hyp):
            map_node(node, lambda e: per_object.update([id(e)]) or e)
    assert seen == per_object
    assert len(distinct(out)) == len(objects) < sum(1 for _ in derivation_nodes(out))


def test_rebuild_calls_step_once_per_node_object_in_premise_order():
    leaf = Hyp(0)
    shared = GStep(1, (leaf, leaf))
    d = GStep(2, (shared, GStep(3, (shared,)), leaf))
    order = []

    def step(node, children):
        order.append(node.rule)
        return GStep(node.rule + 10, children)

    out = rebuild(d, lambda h: Hyp(h.index + 1), step)
    assert order == [1, 3, 2]
    assert out.children[0] is out.children[1].children[0]
    assert out == GStep(12, (GStep(11, (Hyp(1), Hyp(1))), GStep(13, (GStep(11, (Hyp(1), Hyp(1))),)), Hyp(1)))


def test_grafting_refuses_a_hypothesis_without_a_filler():
    # the leaf map that grafts sends hypothesis h to filler h, and has none beyond them
    filler = tt_at(EMPTY_CONTEXT).d_term
    leaf = grafting((filler,))
    assert leaf(Hyp(0)) is filler
    with pytest.raises(FillerConclusionMismatch, match="^no filler for hypothesis 1$"):
        instantiate_derivation(THEORY, Instantiation((), 0, ()), EMPTY_CONTEXT, Hyp(1), leaf)
