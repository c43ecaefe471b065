"""What the decoder decodes, and that it checks every occurrence.

A raw theory file's witness table is decoded rule by rule, when a rule's
witnesses are first read, so a command that reads none decodes none.  A
subtree that occurs twice is decoded, and checked, at each occurrence.
"""

import contextlib
import io
import json
import pathlib

import pytest

from corpus import SIG, THEORY, lam_tower, tt_at
from gtt import jsonio
from gtt.cli import main
from gtt.derivation_ops import derivation_nodes
from gtt.errors import ArityMismatch, ClassMismatch, IndexOutOfRange
from gtt.judgements import EMPTY_CONTEXT
from gtt.jsonio import _Decoder, derivation_to_json, dumps, loads, theory_from_json
from gtt.syntax import Var, mv_extend_signature
from gtt.theories import RuleInst, RuleWitnesses

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
BASE = str(FIXTURES / "mltt_base.json")
TT = '{"sym":"tt","args":[]}'


def run_counting(monkeypatch, *argv) -> tuple[int, dict, int]:
    """Run ``gtt`` in this process: its exit code, the witness table of the
    theory file it loaded, and how many witness derivations it decoded."""
    tables, decoded = [], []
    load, decode = jsonio.theory_from_json, jsonio.witnesses_from_json

    def loaded(data):
        out = load(data)
        tables.append(out[1])
        return out

    monkeypatch.setattr(jsonio, "theory_from_json", loaded)
    # a pending entry looks ``witnesses_from_json`` up in ``jsonio``
    monkeypatch.setattr(jsonio, "witnesses_from_json", lambda data, *a: decoded.append(len(data)) or decode(data, *a))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, tables[-1], sum(decoded)


def write(tmp_path, name: str, d) -> pathlib.Path:
    path = tmp_path / name
    path.write_text(dumps(derivation_to_json(THEORY, SIG, d)))
    return path


@pytest.mark.parametrize("command", ["check-derivation", "congruence", "elim-subst", "natural-type"])
def test_a_command_that_reads_no_witness_decodes_none(monkeypatch, tmp_path, command):
    lam = write(tmp_path, "lam.json", lam_tower(EMPTY_CONTEXT, 2).d_term)
    last = {"congruence": "Pi-form", "natural-type": TT}.get(command, lam)
    code, table, decoded = run_counting(monkeypatch, command, BASE, last)
    assert code == 0
    assert decoded == 0
    assert table and not any(isinstance(w, RuleWitnesses) for w in table.values())


def test_presup_decodes_only_the_tables_of_the_rules_it_reaches(monkeypatch, tmp_path):
    d = lam_tower(EMPTY_CONTEXT, 2).d_term
    assert THEORY.rule_name(d.ref) == "lam-intro"
    cited = {THEORY.rule_name(n.ref) for n in derivation_nodes(d) if isinstance(n, RuleInst) and isinstance(n.ref, int)}
    code, table, decoded = run_counting(monkeypatch, "presup", BASE, write(tmp_path, "lam.json", d))
    assert code == 0
    read = {name for name, w in table.items() if isinstance(w, RuleWitnesses)}
    assert "lam-intro" in read and read <= cited < set(table)
    # each table read is decoded whole, once: a later lookup is a dict lookup
    assert decoded == sum(len(table[name].conclusion) + len(table[name].premises) for name in read)


def test_a_witness_entry_decodes_once_with_one_decoder_and_equals_its_eager_decode(monkeypatch):
    data = loads(pathlib.Path(BASE).read_text())
    theory, table, _ = theory_from_json(data)
    name = "lam-intro"
    (entry,) = [w for w in data["witnesses"] if w["rule"] == name]
    assert len(entry["presup_witnesses"]) > 1
    pending = table[name]
    assert not isinstance(pending, RuleWitnesses)
    decoders = []
    monkeypatch.setattr(jsonio, "_Decoder", lambda *a: decoders.append(a) or _Decoder(*a))
    first = pending.conclusion
    assert len(decoders) == 1
    assert type(table[name]) is RuleWitnesses and table[name].conclusion is first
    assert pending.premises is table[name].premises
    monkeypatch.undo()
    rule = theory.rule(theory.rule_index(name))
    keys = jsonio._witness_keys(tuple(j.form for j in rule.premises + (rule.conclusion,)))
    ext = _Decoder(mv_extend_signature(theory.signature, rule.arity, rule.meta_names), theory)
    eager = jsonio.witnesses_from_json(entry["presup_witnesses"], keys, lambda _: ext)
    assert table[name] == eager and theory_from_json(data)[1][name] == eager


def test_a_malformed_witness_derivation_fails_only_the_commands_that_read_it(tmp_path, capsys):
    data = loads(pathlib.Path(BASE).read_text())
    (entry,) = [w for w in data["witnesses"] if w["rule"] == "tt-intro"]
    entry["presup_witnesses"]["conclusion/0"] = {"node": "nowhere"}
    theory = tmp_path / "theory.json"
    theory.write_text(json.dumps(data))
    tt = write(tmp_path, "tt.json", tt_at(EMPTY_CONTEXT).d_term)
    assert main(["check-derivation", str(theory), str(tt)]) == 0
    capsys.readouterr()
    for argv in (["check-theory", theory, "--acceptable"], ["presup", theory, tt], ["invert", theory, tt]):
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == "parse error: unknown derivation node 'nowhere'\n"


def test_check_theory_weak_decodes_a_table_it_reads_no_witness_of(tmp_path, capsys):
    # El-form concludes a type, whose judgement has no presupposition, and a
    # weak check reads no premise witness: its table is decoded all the same
    data = loads((FIXTURES / "type_in_type.json").read_text())
    (entry,) = [w for w in data["witnesses"] if w["rule"] == "El-form"]
    assert list(entry["presup_witnesses"]) == ["premise_0/0"]
    entry["presup_witnesses"]["premise_0/0"] = {"node": "nowhere"}
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(data))
    for flags in (["--weak"], ["--acceptable", "--weak"], ["--acceptable"]):
        assert main(["check-theory", str(path), *flags]) == 2
        assert capsys.readouterr().err == "parse error: unknown derivation node 'nowhere'\n"


def test_a_variable_built_at_one_scope_is_checked_again_at_another():
    decode = _Decoder(SIG)
    var = {"var": 1}
    assert decode.expr(var, 2, 1) == Var(1, 2)
    with pytest.raises(IndexOutOfRange, match="^variable 1 of scope 1$"):
        decode.expr(var, 1, 1)


def _two_rules(second_arity) -> dict:
    """A theory file whose two rules hold one and the same metavariable
    object ``A``, over the arities ``[["Ty", 0]]`` and ``second_arity``."""
    a = {"meta": "A", "args": []}
    premise = {"cxt": [], "form": "IsTy", "slots": {"head": a}}
    rule = {"metas": ["A"], "premises": [premise], "conclusion": premise}
    return {"signature": [], "rules": [
        {**rule, "name": "first", "arity": [["Ty", 0]]}, {**rule, "name": "second", "arity": second_arity},
    ]}


@pytest.mark.parametrize("arity, error, message", [
    ([["Ty", 1]], ArityMismatch, "A expects 1 arguments, got 0"),
    ([["Tm", 0]], ClassMismatch, "head of IsTy: expected SyntacticClass.TY, got SyntacticClass.TM"),
])
def test_a_metavariable_is_validated_under_each_rule(arity, error, message):
    theory_from_json(_two_rules([["Ty", 0]]))
    with pytest.raises(error, match=f"^{message}$"):
        theory_from_json(_two_rules(arity))


UNIT = {"sym": "unit", "args": []}
# both children of Pi-form are one unit-form node after decoding: it derives
# the first premise, and fails the second, which has A in its context
ACCEPTED_ONCE = {"node": "rule", "name": "Pi-form", "cxt": [], "inst": {"A": UNIT, "B": UNIT}, "children": [
    {"node": "rule", "name": "unit-form", "cxt": [], "inst": {}, "children": []},
    {"node": "rule", "name": "unit-form", "cxt": [], "inst": {}, "children": []},
]}
REFUSED_TWICE = {**ACCEPTED_ONCE, "children": [
    {"node": "rule", "name": "unit-form", "cxt": [], "inst": {}, "children": [
        {"node": "rule", "name": "tt-intro", "cxt": [], "inst": {}, "children": []}
    ]},
] * 2}
OUT_OF_SCOPE = {"sym": "Pi", "args": [UNIT, {"sym": "Pi", "args": [{"var": 3}, {"var": 3}]}]}


@pytest.mark.parametrize("data, message", [
    (ACCEPTED_ONCE, "check failed: at [1]: expected Judgement(context=RawContext(scope=1, types=(SymApp(sym=3, "
                    "args=(), scope=1, cls=<SyntacticClass.TY: 'Ty'>),)), form=<JudgementForm.IS_TY: 'IsTy'>, "
                    "boundary=(), head=SymApp(sym=3, args=(), scope=1, cls=<SyntacticClass.TY: 'Ty'>)), found "
                    "Judgement(context=RawContext(scope=0, types=()), form=<JudgementForm.IS_TY: 'IsTy'>, "
                    "boundary=(), head=SymApp(sym=3, args=(), scope=0, cls=<SyntacticClass.TY: 'Ty'>))"),
    (REFUSED_TWICE, "check failed: at node [0]: 0 premises, 1 children"),
    ({"node": "var", "cxt": [UNIT, OUT_OF_SCOPE], "i": 0, "children": [
        {"node": "var", "cxt": [UNIT, OUT_OF_SCOPE], "i": 0, "children": []}
    ]}, "check failed: variable 3 of scope 3"),
], ids=["accepted-once", "refused-twice", "out-of-scope-twice"])
def test_a_repeated_subtree_is_refused_where_it_first_fails(tmp_path, capsys, data, message):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data))
    assert main(["check-derivation", BASE, str(path)]) == 1
    assert capsys.readouterr().err == message + "\n"


def test_a_witness_key_index_too_long_to_convert_is_a_bad_key(tmp_path, capsys):
    # over the interpreter's limit of 4300 digits for int(), the index of a
    # premise is refused with the key, not with a traceback
    data = loads((FIXTURES / "type_in_type.json").read_text())
    key = "premise_" + "1" * 5000 + "/0"
    data["witnesses"][0]["presup_witnesses"][key] = {"node": "hyp", "index": 0}
    path = tmp_path / "theory.json"
    path.write_text(json.dumps(data))
    assert main(["check-theory", str(path)]) == 2
    assert capsys.readouterr().err == f"parse error: bad witness key {key!r}\n"
