"""Presuppositions derived on demand agree with the eager reference.

``derive_presuppositions`` derives the presuppositions of a premise only
when a conclusion witness of the node's rule cites one of them; the
reference in ``reference_transformers`` derives those of every premise and
grafts them after the premises, used or not.  On every input of
``test_reference_transformers`` (the corpus, ``substitution_corpus()``,
the weakening chains, equality substitutions under binders), in both scope
systems, the two give ``==`` outputs with equal JSON bytes.  The
reference is one of the functions ``reference_transformers`` swaps in, so
``test_reference_transformers`` compares the ``invert`` and
``unique_typing_acceptable`` outputs, which hold presuppositions, too.
The shipped witnesses cite premises only, so a weak witness
is planted: conv's conclusion ``A type`` taken from the presuppositions
of its equation premise.
"""

from __future__ import annotations

import pytest

import reference_transformers as reference
from corpus import THEORY, WITNESSES, extend, tt_at, unit_at
from gtt import derive
from gtt.judgements import EMPTY_CONTEXT, is_type, presuppositions
from gtt.jsonio import derivation_to_json, dumps
from gtt.metatheory import BUILTIN_WITNESSES, derive_presuppositions
from gtt.rules import BuiltinRule
from gtt.theories import Hyp, check_theory_derivation
from test_reference_transformers import INPUTS, LV_THEORY


def as_bytes(theory, outs) -> list[str]:
    return [dumps(derivation_to_json(theory, theory.signature, o)) for o in outs]


def assert_presuppositions_agree(theory, witnesses, d):
    got = derive_presuppositions(theory, d, witnesses)
    want = reference.derive_presuppositions(theory, d, witnesses)
    assert got == want
    assert as_bytes(theory, got) == as_bytes(theory, want)
    return got


def inputs_of(kind):
    theory = THEORY if kind == "indices" else LV_THEORY
    return [(th, w, d, j) for th, w, d, j in INPUTS if th is theory]


@pytest.mark.parametrize("kind", ["indices", "levels"])
def test_presuppositions_agree_with_the_eager_reference(kind):
    for theory, witnesses, d, j in inputs_of(kind):
        got = assert_presuppositions_agree(theory, witnesses, d)
        assert tuple(check_theory_derivation(theory, (), o) for o in got) == presuppositions(j)


def conv_along_a_weakened_reflexivity():
    """x : unit |- tt : unit, converted along reflexivity of a ``unit type``
    derived by weakening, not by the unit-form node that premise 1 cites."""
    ctx = extend(EMPTY_CONTEXT, unit_at(EMPTY_CONTEXT))
    u0, u, t = unit_at(EMPTY_CONTEXT), unit_at(ctx), tt_at(ctx)
    weakened = derive.weaken_closed(ctx, is_type(EMPTY_CONTEXT, u0.type), u0.d_type)
    eq = derive.refl_ty(ctx, u.type, weakened)
    return derive.conv(ctx, u.type, u.type, t.term, u.d_type, u.d_type, t.d_term, eq), u.d_type, weakened


def test_a_weak_witness_grafts_the_presuppositions_of_a_premise(monkeypatch):
    # conv's premises are A' type, A type, s : A' and A' == A; its
    # conclusion s : A presupposes A type, which is premise 1, and also the
    # second presupposition of premise 3: hypothesis 4 + 1 + 1 = 6, after
    # the four premises and the one presupposition of premise 2
    d, premise_1, weakened = conv_along_a_weakened_reflexivity()
    assert derive_presuppositions(THEORY, d, {}) == (premise_1,)
    shipped = BUILTIN_WITNESSES[BuiltinRule.CONV_TM]
    assert shipped.conclusion == {0: Hyp(1)}
    monkeypatch.setitem(BUILTIN_WITNESSES, BuiltinRule.CONV_TM, shipped._replace(conclusion={0: Hyp(6)}))
    assert derive_presuppositions(THEORY, d, {}) == (weakened,)
    for theory, witnesses, d, j in INPUTS + [(THEORY, WITNESSES, d, check_theory_derivation(THEORY, (), d))]:
        got = assert_presuppositions_agree(theory, witnesses, d)
        assert tuple(check_theory_derivation(theory, (), o) for o in got) == presuppositions(j)
