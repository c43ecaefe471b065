"""The derivation decoder against hostile input, and the built-in rule names.

Arbitrary JSON values, and corpus derivations with one field dropped or
retyped, go to the derivation commands of the CLI (``unique-typing`` gets
a well-formed second typing).  Each run must end with exit code 0, 1 or 2
and print no traceback.  The wire names of the eight built-in rules
round-trip through the codec.
"""

from __future__ import annotations

import contextlib
import io
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from corpus import SIG, THEORY, build_corpus, substitution_corpus, tt_at
from gtt.cli import main
from gtt.judgements import EMPTY_CONTEXT
from gtt.jsonio import derivation_from_json, derivation_to_json, dumps
from gtt.rules import BuiltinRule
from gtt.syntax import TY, Instantiation, mk_sym
from gtt.theories import RuleInst

BASE = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "mltt_base.json"
COMMANDS = ("check-derivation", "presup", "elim-subst", "invert", "unique-typing")

FUZZ = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# values a derivation node might plausibly hold, to reach past the first type check
node_values = st.sampled_from(
    ["rule", "equiv", "conv", "var", "subst", "eqsubst", "hyp", "ty-refl", "tm-sym", "conv-eq", "Pi-form"]
) | json_values


def run_cli(tmp_path: pathlib.Path, command: str, data) -> tuple[int, str]:
    path = tmp_path / "d.json"
    path.write_text(dumps(data))
    argv = [command, str(BASE), str(path)]
    if command == "unique-typing":
        # the second typing is a well-formed tt : unit
        second = tmp_path / "second.json"
        second.write_text(dumps(derivation_to_json(THEORY, SIG, tt_at(EMPTY_CONTEXT).d_term)))
        argv.append(str(second))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(tmp_path, command, data):
    code, err = run_cli(tmp_path, command, data)
    assert code in (0, 1, 2), code
    assert "Traceback" not in err
    assert err.count("\n") <= 1, err


@FUZZ
@given(command=st.sampled_from(COMMANDS), data=json_values)
def test_arbitrary_json_is_refused_cleanly(tmp_path, command, data):
    assert_clean_exit(tmp_path, command, data)


CORPUS_JSON = [
    derivation_to_json(THEORY, SIG, d)
    for d, _ in (build_corpus() + substitution_corpus())[::4]
]


def _objects(data, out):
    """Every JSON object inside ``data``, outermost first."""
    if isinstance(data, dict):
        out.append(data)
        for v in data.values():
            _objects(v, out)
    elif isinstance(data, list):
        for v in data:
            _objects(v, out)
    return out


@FUZZ
@given(
    command=st.sampled_from(COMMANDS),
    item=st.integers(0, len(CORPUS_JSON) - 1),
    where=st.integers(0, 10_000),
    key=st.integers(0, 10_000),
    new=st.none() | node_values,
)
def test_corpus_derivations_with_a_field_dropped_or_retyped(tmp_path, command, item, where, key, new):
    data = _copy(CORPUS_JSON[item])
    objects = _objects(data, [])
    obj = objects[where % len(objects)]
    if obj:
        name = sorted(obj)[key % len(obj)]
        if new is None:
            del obj[name]
        else:
            obj[name] = new
    assert_clean_exit(tmp_path, command, data)


def _copy(data):
    if isinstance(data, dict):
        return {k: _copy(v) for k, v in data.items()}
    if isinstance(data, list):
        return [_copy(v) for v in data]
    return data


WIRE_NAMES = {
    "equiv": ("ty-refl", "ty-sym", "ty-trans", "tm-refl", "tm-sym", "tm-trans"),
    "conv": ("conv", "conv-eq"),
}


@pytest.mark.parametrize("ref", BuiltinRule, ids=lambda ref: ref.wire_name)
def test_builtin_rule_names_round_trip(ref):
    unit, tt = mk_sym(SIG, "unit", (), 0), mk_sym(SIG, "tt", (), 0)
    exprs = tuple(unit if slot.cls is TY else tt for slot in ref.rule.arity)
    node = RuleInst(ref, Instantiation(ref.rule.arity, 0, exprs), EMPTY_CONTEXT, ())
    data = derivation_to_json(THEORY, SIG, node)
    assert (data["node"], data["which"]) == (ref.family, ref.wire_name)
    assert derivation_from_json(THEORY, SIG, data) == node
    # the position within the family is accepted on the wire too
    data["which"] = WIRE_NAMES[ref.family].index(ref.wire_name)
    assert derivation_from_json(THEORY, SIG, data) == node


def test_every_wire_name_names_one_builtin_rule():
    assert sorted((ref.family, ref.wire_name) for ref in BuiltinRule) == sorted(
        (family, name) for family, names in WIRE_NAMES.items() for name in names
    )
