"""Round-trip discipline for every interchange format."""

import os
import pathlib
from collections import Counter

import pytest

from corpus import THEORY, build_corpus, conv_wrap, substitution_corpus, tt_at, weakening_chain
from gtt import bundled
from gtt.bundled import (
    cyclic_quantifier,
    mltt_base,
    mltt_pi,
    type_in_type,
)
from gtt.errors import ParseError
from gtt.jsonio import (
    _Decoder,
    arity_from_json,
    derivation_from_json,
    derivation_to_json,
    dumps,
    expr_from_json,
    expr_to_json,
    judgement_to_json,
    load_theory_file,
    loads,
    rule_from_json,
    rule_to_json,
    theory_from_json,
)
from gtt.judgements import EMPTY_CONTEXT
from gtt.metatheory import check_acceptable_theory
from gtt.presentation import spec_from_json, theory_to_json
from gtt.theories import check_theory_derivation

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


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
        assert _Decoder(THEORY.signature).judgement(data) == j


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
        (mltt_pi, bundled.order("mltt_pi")),
        (mltt_base, bundled.order("mltt_base")),
        (type_in_type, bundled.order("type_in_type")),
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


def test_bundled_files_reemit_byte_for_byte():
    files = sorted(bundled.DATA.glob("*.json"))
    assert [p.stem for p in files] == [
        "cyclic_quantifier", "mltt_base", "mltt_pi", "mltt_pi_presented", "type_in_type",
    ]
    for path in files:
        text = path.read_text()
        kind, payload = load_theory_file(loads(text))
        # a raw theory file re-emits byte for byte; no encoder of specs is kept
        if kind != "spec":
            assert dumps(theory_to_json(*payload), pretty=True) + "\n" == text, path.name
        # the fixture of the same name is the package file, not a copy
        assert os.path.samefile(FIXTURES / path.name, path), path.name


def test_spec_codec_elaborates_nothing(monkeypatch):
    import gtt.acceptability
    import gtt.presentation

    calls = Counter()
    # ``theory_commands`` looks ``check_acceptable_theory`` up in ``acceptability`` when it runs
    for module, name in [
        (gtt.presentation, "elaborate_theory"),
        (gtt.acceptability, "check_acceptable_theory"),
    ]:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name: calls.update([_n]) or _f(*a))
    data = loads((bundled.DATA / "mltt_pi_presented.json").read_text())
    spec = spec_from_json(data)
    assert calls == Counter()
    # the counters see an elaboration
    gtt.presentation.elaborate_theory(spec)
    # elaboration checks each supplied witness, and leaves acceptability to the caller
    assert calls == Counter(elaborate_theory=1)


def test_parse_errors():
    with pytest.raises(ParseError):
        loads("{not json")
    with pytest.raises(ParseError):
        expr_from_json(THEORY.signature, {"bogus": 1}, 0)
    with pytest.raises(ParseError):
        expr_from_json(THEORY.signature, {"sym": "nope", "args": []}, 0)
    with pytest.raises(ParseError):
        _Decoder(THEORY.signature).judgement({"form": "IsWhat", "cxt": [], "slots": {}})


SIG = THEORY.signature
UNIT = {"sym": "unit", "args": []}


def _node(d, **fields):
    """The JSON of derivation ``d`` with ``fields`` replaced at its root."""
    return {**derivation_to_json(THEORY, SIG, d), **fields}


@pytest.mark.parametrize("field, value, parse", [
    ("var", True, lambda v: expr_from_json(SIG, {"var": v}, 2)),
    ("i", True, lambda v: derivation_from_json(THEORY, SIG, {"node": "var", "cxt": [UNIT, UNIT], "i": v})),
    ("index", False, lambda v: derivation_from_json(THEORY, SIG, {"node": "hyp", "index": v})),
    ("binder", True, lambda v: arity_from_json([["Ty", v]])),
    ("trivial", True, lambda v: derivation_from_json(THEORY, SIG, _node(weakening_chain(1)[0], trivial=[v]))),
    ("src", True, lambda v: _Decoder(SIG).substitution({"src": v, "map": []})),
    ("which", False, lambda v: derivation_from_json(THEORY, SIG, _node(conv_wrap(tt_at(EMPTY_CONTEXT)).d_term, which=v))),
], ids=["var", "i", "index", "binder", "trivial", "src", "which"])
def test_a_json_boolean_is_not_a_natural_number(field, value, parse):
    # a JSON boolean parses as a Python bool, which is an int: false and true
    # must not pass for the positions 0 and 1, which do parse
    parse(int(value))
    message = f"unknown structural rule {value}" if field == "which" else f"{field} must be a natural number, got {value}"
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse(value)


def test_canonical_emission_is_stable():
    theory, witnesses = mltt_pi()
    a = dumps(theory_to_json(theory, witnesses))
    b = dumps(theory_to_json(theory, witnesses))
    assert a == b
    again, w2, _ = theory_from_json(loads(a))
    assert dumps(theory_to_json(again, w2)) == a
