"""Round-trip discipline for every interchange format."""

import pytest

from corpus import THEORY, build_corpus, substitution_corpus
from gtt.bundled import (
    BASE_ORDER,
    MLTT_ORDER,
    TIT_ORDER,
    cyclic_quantifier,
    mltt_base,
    mltt_pi,
    mltt_pi_presented,
    type_in_type,
)
from gtt.errors import ParseError
from gtt.jsonio import (
    derivation_from_json,
    derivation_to_json,
    dumps,
    expr_from_json,
    expr_to_json,
    judgement_from_json,
    judgement_to_json,
    loads,
    rule_from_json,
    rule_to_json,
    spec_from_json,
    spec_to_json,
    theory_from_json,
    theory_to_json,
)
from gtt.metatheory import check_acceptable_theory
from gtt.presentation import elaborate_theory
from gtt.theories import check_theory_derivation


def test_expression_roundtrip():
    import random

    from genexpr import LAW_SIGNATURE, gen_expr
    from gtt.syntax import TM, TY

    rng = random.Random(60)
    for _ in range(300):
        scope = rng.randrange(4)
        e = gen_expr(rng, LAW_SIGNATURE, scope, rng.choice([TY, TM]), 3)
        data = loads(dumps(expr_to_json(LAW_SIGNATURE, e)))
        assert expr_from_json(LAW_SIGNATURE, data, scope) == e


def test_judgement_roundtrip_on_corpus():
    for d, j in build_corpus():
        data = loads(dumps(judgement_to_json(THEORY.signature, j)))
        assert judgement_from_json(THEORY.signature, data) == j


def test_derivation_roundtrip_on_corpus():
    for d, j in build_corpus() + substitution_corpus():
        data = loads(dumps(derivation_to_json(THEORY, THEORY.signature, d)))
        back = derivation_from_json(THEORY, THEORY.signature, data)
        assert back == d
        assert check_theory_derivation(THEORY, (), back) == j


def test_rule_roundtrip():
    for i, rule in enumerate(THEORY.rules):
        data = loads(dumps(rule_to_json(THEORY.signature, rule, THEORY.rule_name(i))))
        assert rule_from_json(THEORY.signature, data) == rule


@pytest.mark.parametrize(
    "fn,order",
    [
        (mltt_pi, MLTT_ORDER),
        (mltt_base, BASE_ORDER),
        (type_in_type, TIT_ORDER),
        (cyclic_quantifier, None),
    ],
)
def test_theory_file_roundtrip(fn, order):
    theory, witnesses = fn()
    data = loads(dumps(theory_to_json(theory, witnesses, order)))
    theory2, witnesses2, order2 = theory_from_json(data)
    assert theory2.rules == theory.rules
    assert theory2.rule_names == theory.rule_names
    if order is not None:
        assert order2.edges == order.edges


def test_witnesses_survive_roundtrip():
    theory, witnesses = mltt_pi()
    data = loads(dumps(theory_to_json(theory, witnesses)))
    theory2, witnesses2, _ = theory_from_json(data)
    assert check_acceptable_theory(theory2, witnesses2).acceptable


def test_spec_roundtrip():
    spec = mltt_pi_presented()
    data = loads(dumps(spec_to_json(spec)))
    spec2 = spec_from_json(data)
    _, t1, _ = elaborate_theory(spec)
    _, t2, report = elaborate_theory(spec2)
    assert t1.rules == t2.rules
    assert report.acceptable


def test_fixture_files_match_bundled():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
    for name, fn, order in [
        ("mltt_pi.json", mltt_pi, MLTT_ORDER),
        ("mltt_base.json", mltt_base, BASE_ORDER),
        ("type_in_type.json", type_in_type, TIT_ORDER),
        ("cyclic_quantifier.json", cyclic_quantifier, None),
    ]:
        theory, witnesses = fn()
        text = (root / name).read_text()
        loaded, _, _ = theory_from_json(loads(text))
        assert loaded.rules == theory.rules, name
        assert text == dumps(theory_to_json(theory, witnesses, order), pretty=True) + "\n", name
    text = (root / "mltt_pi_presented.json").read_text()
    assert text == dumps(spec_to_json(mltt_pi_presented()), pretty=True) + "\n"


def test_parse_errors():
    with pytest.raises(ParseError):
        loads("{not json")
    with pytest.raises(ParseError):
        expr_from_json(THEORY.signature, {"bogus": 1}, 0)
    with pytest.raises(ParseError):
        expr_from_json(THEORY.signature, {"sym": "nope", "args": []}, 0)
    with pytest.raises(ParseError):
        judgement_from_json(THEORY.signature, {"form": "IsWhat", "cxt": [], "slots": {}})


def test_canonical_emission_is_stable():
    theory, witnesses = mltt_pi()
    a = dumps(theory_to_json(theory, witnesses))
    b = dumps(theory_to_json(theory, witnesses))
    assert a == b
    again, w2, _ = theory_from_json(loads(a))
    assert dumps(theory_to_json(again, w2)) == a
