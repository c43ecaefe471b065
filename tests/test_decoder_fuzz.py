"""The input decoders against hostile input, and the built-in rule names.

Every subcommand gets arbitrary JSON and arbitrary bytes in the input it
reads: the derivation file of the derivation commands (``unique-typing``
gets a well-formed second typing), the theory file of ``check-theory``
(under each flag), ``flatten`` and ``congruence``, the script of
``replace-step``, and the term and context arguments of ``natural-type``,
which get the bytes as a command line would (undecodable bytes as
surrogates); the context goes in once with a term and once with a type
expression, which ``natural-type`` refuses.  Corpus derivations and the valid inputs of the other
commands also go in with one field dropped or retyped.  Each run must end
with exit code 0, 1 or 2, print no traceback, and write at most one line to
stderr, exactly one when it exits 2.  The wire names of the eight built-in
rules round-trip through the codec.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from corpus import SIG, THEORY, build_corpus, conv_wrap, substitution_corpus, tt_at
from gtt.cli import main
from gtt.judgements import EMPTY_CONTEXT
from gtt.jsonio import derivation_from_json, derivation_to_json, dumps
from gtt.rules import BuiltinRule
from gtt.syntax import TY, Instantiation, mk_sym
from gtt.theories import RuleInst

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
BASE = FIXTURES / "mltt_base.json"
COMMANDS = ("check-derivation", "presup", "elim-subst", "invert", "unique-typing")

# Where the fuzzed input goes on a command line: FILE, a file, or an Arg, an
# argument (after "--" or "--cxt=", so that a leading "-" is not read as an
# option).
FILE = object()


class Arg(str):
    """The fuzzed input as a command-line argument, after this prefix."""


TERM = '{"sym":"tt","args":[]}'
TYPE = '{"sym":"Pi","args":[{"sym":"unit","args":[]},{"sym":"unit","args":[]}]}'
TARGETS = {
    **{command: [command, BASE, FILE] for command in COMMANDS},
    "check-theory": ["check-theory", FILE],
    **{f"check-theory {flag}": ["check-theory", FILE, flag]
       for flag in ("--acceptable", "--well-founded", "--well-presented", "--weak")},
    "flatten": ["flatten", FILE],
    "congruence": ["congruence", FILE, "El-form"],
    "replace-step": ["replace-step", FIXTURES / "type_in_type.json", FILE],
    "natural-type": ["natural-type", BASE, "--", Arg("")],
    "natural-type --cxt": ["natural-type", BASE, Arg("--cxt="), TERM],
    "natural-type --cxt, type": ["natural-type", BASE, Arg("--cxt="), TYPE],
}
# the valid input of each target that is not a derivation command
VALID = {
    "check-theory": FIXTURES / "type_in_type.json",
    "check-theory --acceptable": FIXTURES / "type_in_type.json",
    "check-theory --well-founded": FIXTURES / "cyclic_quantifier.json",
    "check-theory --well-presented": FIXTURES / "mltt_pi_presented.json",
    "check-theory --weak": FIXTURES / "type_in_type.json",
    "flatten": FIXTURES / "mltt_pi_presented.json",
    "congruence": FIXTURES / "type_in_type.json",
    "replace-step": FIXTURES / "type_in_type_replacement.json",
    "natural-type": TERM,
    "natural-type --cxt": '[{"sym":"unit","args":[]},'
                          '{"sym":"Pi","args":[{"sym":"unit","args":[]},{"sym":"unit","args":[]}]}]',
}
VALID["natural-type --cxt, type"] = VALID["natural-type --cxt"]

FUZZ = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# sixteen targets share one run
FUZZ_TARGETS = settings(FUZZ, max_examples=100)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# values a derivation node might plausibly hold, to reach past the first type check
node_values = st.sampled_from(
    ["rule", "equiv", "conv", "var", "subst", "eqsubst", "hyp", "ty-refl", "tm-sym", "conv-eq", "Pi-form"]
) | json_values


def run_cli(tmp_path: pathlib.Path, target: str, payload: bytes) -> tuple[int, str]:
    """Run ``target`` with ``payload`` as its fuzzed input."""
    argv = []
    for a in TARGETS[target]:
        if a is FILE:
            path = tmp_path / "input.json"
            path.write_bytes(payload)
            a = path
        elif isinstance(a, Arg):
            a = a + payload.decode("utf-8", "surrogateescape")
        argv.append(str(a))
    if target == "unique-typing":
        # the second typing is a well-formed tt : unit
        second = tmp_path / "second.json"
        second.write_text(dumps(derivation_to_json(THEORY, SIG, tt_at(EMPTY_CONTEXT).d_term)))
        argv.append(str(second))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(tmp_path, target, payload: bytes) -> int:
    code, err = run_cli(tmp_path, target, payload)
    assert code in (0, 1, 2), code
    assert "Traceback" not in err
    assert err.count("\n") <= 1, err
    assert code != 2 or err.count("\n") == 1, err
    return code


@FUZZ_TARGETS
@given(target=st.sampled_from(sorted(TARGETS)), data=json_values)
def test_arbitrary_json_is_refused_cleanly(tmp_path, target, data):
    assert_clean_exit(tmp_path, target, dumps(data).encode())


@FUZZ_TARGETS
@given(target=st.sampled_from(sorted(TARGETS)), data=st.binary(max_size=64))
def test_arbitrary_bytes_are_refused_cleanly(tmp_path, target, data):
    assert_clean_exit(tmp_path, target, data)


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_huge_integer_is_a_parse_error(tmp_path, target):
    # over the interpreter's limit of 4300 digits for int()
    assert assert_clean_exit(tmp_path, target, b"1" * 5000) == 2


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
    assert_clean_exit(tmp_path, command, dumps(data).encode())


def _valid_json(target: str):
    valid = VALID[target]
    return json.loads(valid.read_text() if isinstance(valid, pathlib.Path) else valid)


VALID_JSON = {target: _valid_json(target) for target in VALID}


@FUZZ_TARGETS
@given(
    target=st.sampled_from(sorted(VALID)),
    where=st.integers(0, 10_000),
    key=st.integers(0, 10_000),
    new=st.none() | node_values,
)
def test_valid_inputs_with_a_field_dropped_or_retyped(tmp_path, target, where, key, new):
    data = _copy(VALID_JSON[target])
    objects = _objects(data, [])
    obj = objects[where % len(objects)]
    if obj:
        name = sorted(obj)[key % len(obj)]
        if new is None:
            del obj[name]
        else:
            obj[name] = new
    assert_clean_exit(tmp_path, target, dumps(data).encode())


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


# A theory file whose witness derivation is arbitrary JSON: ``mltt_base``
# with the type witness of ``tt-intro`` replaced.  Each command that reads
# that rule's table decodes it there and refuses it; ``tt.json`` cites
# ``tt-intro``, and ``presup``, ``invert`` and ``unique-typing`` read its
# table to type ``tt``.
WITNESS_READERS = (
    ("check-theory", FILE, "--acceptable"),
    ("presup", FILE, "tt.json"),
    ("invert", FILE, "tt.json"),
    ("unique-typing", FILE, "tt.json", "tt-conv.json"),
)
BASE_JSON = json.loads(BASE.read_text())


@settings(FUZZ, max_examples=15)
@given(witness=json_values)
def test_an_arbitrary_witness_derivation_is_refused_by_each_command_that_reads_it(tmp_path, witness):
    data = _copy(BASE_JSON)
    (entry,) = [w for w in data["witnesses"] if w["rule"] == "tt-intro"]
    entry["presup_witnesses"]["conclusion/0"] = witness
    theory = tmp_path / "theory.json"
    theory.write_text(dumps(data))
    tt = tt_at(EMPTY_CONTEXT)
    for name, d in (("tt.json", tt.d_term), ("tt-conv.json", conv_wrap(tt).d_term)):
        (tmp_path / name).write_text(dumps(derivation_to_json(THEORY, SIG, d)))
    for argv in WITNESS_READERS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(theory if a is FILE else tmp_path / a if a.endswith(".json") else a) for a in argv])
        assert code == 2, (argv[0], err.getvalue())
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()
