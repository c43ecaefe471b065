"""The command-line front end: reports, transformers, exit codes."""

import contextlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from corpus import THEORY, WITNESSES, app, conv_wrap, extend, lam, nested_pi, newest_position, tt_at, unit_at, var
from golden import bad_witness_tables, repeated_names, type_symbols, universe_spec
from gtt import derive
from gtt.cli import COMMANDS, _plain_args, main
from gtt.errors import ParseError
from gtt.judgements import EMPTY_CONTEXT
from gtt.jsonio import MAX_DEPTH, derivation_to_json, dumps, expr_to_json, loads
from gtt.theories import RuleInst, check_theory_derivation
from gtt.usage import build_parser

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))


def run(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_check_theory_acceptable(capsys):
    code, out = run(capsys, "check-theory", FIXTURES / "mltt_pi.json", "--acceptable")
    assert code == 0
    assert "acceptable: ok" in out


def test_check_theory_well_founded_failure(capsys):
    code, out = run(capsys, "check-theory", FIXTURES / "type_in_type.json", "--well-founded")
    assert code == 1
    assert "cycle" in out


def test_check_theory_cyclic_quantifier(capsys):
    code, out = run(capsys, "check-theory", FIXTURES / "cyclic_quantifier.json", "--well-founded")
    assert code == 1
    assert "itself" in out


def test_a_long_dependency_cycle_is_reported_without_recursion(tmp_path, capsys):
    # Si-form mentions S(i+1 mod n): one cycle through all n rules, longer
    # than the lowered recursion limit lets a recursive search follow
    n, limit = 400, sys.getrecursionlimit()
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(type_symbols(n, {((i + 1) % n, i) for i in range(n)})))
    sys.setrecursionlimit(300)
    try:
        code = main(["check-theory", str(path), "--well-founded"])
    finally:
        sys.setrecursionlimit(limit)
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    cycle = " < ".join(f"S{k}-form" for k in (0, *range(n - 1, 0, -1)))
    assert out.splitlines() == ["well-founded: FAIL", f"  - dependency cycle: {cycle}"]


def test_check_theory_json_report(capsys):
    code, out = run(
        capsys, "check-theory", FIXTURES / "mltt_pi.json", "--acceptable", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["acceptable"]["ok"] is True


def test_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code = main(["check-theory", str(bad)])
    assert code == 2


def test_missing_file():
    assert main(["check-theory", "does-not-exist.json"]) == 2


@pytest.mark.parametrize(
    "text",
    [
        "[1,2]",
        '{"node":"rule","name":"tt-intro","children":5}',
        '{"node":"subst","cxt":[],"subst":5,"children":[]}',
        '{"node":"subst","cxt":[],"subst":{"src":0,"map":[]},"judgement":5,"children":[]}',
        '{"node":"equiv","which":0,"cxt":[],"inst":5,"children":[]}',
        '{"node":"rule","name":"a","children":[]}',
    ],
)
def test_malformed_derivation(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = main(["check-derivation", str(FIXTURES / "mltt_base.json"), str(bad)])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"node":"subst","cxt":[],"subst":{"src":0,"map":[{"sym":"unit"}]},"children":[]}',
            "substitution entries must be terms",
        ),
        (
            '{"node":"rule","name":"tt-intro","cxt":[{"sym":"tt"}],"inst":{},"children":[]}',
            "context entries must be types",
        ),
    ],
)
def test_ill_classed_entry_is_a_check_failure(tmp_path, capsys, text, message):
    # the entry parses, and the kernel's table or context refuses its class
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = main(["check-derivation", str(FIXTURES / "mltt_base.json"), str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"check failed: {message}\n"


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        '{"signature":[{"class":"Ty"}],"rules":[]}',
        '{"signature":[],"rules":[],"witnesses":[5]}',
        '{"signature":[],"rules":[],"order":5}',
        '{"signature":[],"rules":[],"order":[["a","b"]]}',
        '{"signature":[],"rules":[],"witnesses":[{"rule":"a"}]}',
        '{"scope_system":[1]}',
        '{"well_presented":true,"rules":[5]}',
        '{"well_presented":true,"scope_system":"x"}',
        '{"well_presented":true,"order":[["A","B"]],"rules":[{"name":"A","conclusion_form":"IsTy"}]}',
        '{"well_presented":true,"rules":[{"name":"A","conclusion_form":"IsTy",'
        '"premises":[{"form":"IsTy"}],"premise_order":[[0,3]]}]}',
        '{"well_presented":true,"rules":[{"name":"A","conclusion_form":"IsTm"}]}',
        '{"well_presented":true,"rules":[{"name":"A","conclusion_form":"IsTy",'
        '"witnesses":{"premise_0/0":{}}}]}',
        *bad_witness_tables(),
    ],
)
def test_malformed_theory(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = main(["check-theory", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_malformed_witness_key(tmp_path, capsys):
    data = loads((FIXTURES / "type_in_type.json").read_text())
    data["witnesses"][0]["presup_witnesses"] = {"conclusion/x": {}}
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(data))
    code = main(["check-theory", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad witness key" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        '{"steps":5}',
        '{"steps":[{"kind":"symbol"}]}',
        '{"steps":[{"kind":"symbol","conclusion_form":"IsTy","premises":[{"form":"IsTm"}]}]}',
        '{"steps":[{"kind":"equation"}]}',
    ],
)
def test_malformed_script(tmp_path, capsys, text):
    bad = tmp_path / "script.json"
    bad.write_text(text)
    code = main(["replace-step", str(FIXTURES / "type_in_type.json"), str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("name, command, message", [
    ("symbol", "check-derivation", "symbol name 'Pi'"),
    ("rule", "check-theory", "rule name 'lam-intro'"),
    ("spec-rule", "check-theory", "rule name 'app'"),
    ("step", "replace-step", "step name 'U'"),
])
def test_a_repeated_name_is_a_parse_error(tmp_path, capsys, name, command, message):
    path = tmp_path / f"repeated-{name}.json"
    path.write_text(repeated_names()[path.name])
    argv = {
        "check-derivation": (path, _write_derivation(tmp_path, "tt.json", tt_at(EMPTY_CONTEXT).d_term)),
        "check-theory": (path, "--well-founded", "--well-presented"),
        "replace-step": (FIXTURES / "type_in_type.json", path),
    }[command]
    assert main([command, *map(str, argv)]) == 2
    assert capsys.readouterr().err == f"parse error: {message} is declared twice\n"


@pytest.mark.parametrize("kind", ["binary", "directory"])
def test_unreadable_derivation_file(tmp_path, capsys, kind):
    path = tmp_path / "d.json"
    if kind == "binary":
        path.write_bytes(b"\xff\xfe\x00")
    else:
        path.mkdir()
    code = main(["check-derivation", str(FIXTURES / "mltt_base.json"), str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and f"cannot read {path}" in err


def test_missing_file_message(capsys):
    assert main(["check-derivation", str(FIXTURES / "mltt_base.json"), "does-not-exist.json"]) == 2
    assert capsys.readouterr().err == "no such file: does-not-exist.json\n"


def test_out_path_that_is_a_directory(tmp_path, capsys):
    code = main(["congruence", str(FIXTURES / "mltt_pi.json"), "Pi-form", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"cannot write {tmp_path}: Is a directory\n"


def test_out_path_with_a_missing_parent(tmp_path, capsys):
    # not reported as a missing input: the input files all exist
    out = tmp_path / "missing" / "out.json"
    code = main(["check-theory", str(FIXTURES / "mltt_pi.json"), "--json", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"cannot write {out}: No such file or directory\n"
    assert not out.parent.exists()


def _write_derivation(tmp_path, name, d):
    path = tmp_path / name
    path.write_text(dumps(derivation_to_json(THEORY, THEORY.signature, d)))
    return path


def test_depth_limit(tmp_path, capsys):
    # a nested Pi with n binders is nested n + 1 deep, as term and as derivation
    at_limit = nested_pi(EMPTY_CONTEXT, MAX_DEPTH - 1)
    code, out = run(capsys, "check-derivation", FIXTURES / "mltt_base.json",
                    _write_derivation(tmp_path, "ok.json", at_limit.d_type))
    assert code == 0
    assert json.loads(out)["conclusion"]["slots"]["head"] == expr_to_json(THEORY.signature, at_limit.type)
    over = _write_derivation(tmp_path, "deep.json", nested_pi(EMPTY_CONTEXT, MAX_DEPTH).d_type)
    code = main(["check-derivation", str(FIXTURES / "mltt_base.json"), str(over)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "deeper than" in err


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1500])
def test_deep_term_is_a_parse_error(capsys, depth):
    n = depth - 1
    term = '{"sym":"Pi","args":[{"sym":"unit","args":[]},' * n + '{"sym":"unit","args":[]}' + "]}" * n
    code = main(["natural-type", str(FIXTURES / "mltt_base.json"), term])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err


HUGE_INTEGER = "1" * 5000  # over the interpreter's limit of 4300 digits for int()


@pytest.mark.parametrize("command", ["check-derivation", "check-theory"])
def test_huge_integer_in_a_file_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "huge.json"
    path.write_text(HUGE_INTEGER)
    theory = [] if command == "check-theory" else [str(FIXTURES / "mltt_base.json")]
    code = main([command, *theory, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    limit = sys.get_int_max_str_digits()
    assert err == f"parse error: invalid JSON: an integer literal has more than {limit} digits\n"


def test_huge_integer_term_is_a_parse_error(capsys):
    code = main(["natural-type", str(FIXTURES / "mltt_base.json"), HUGE_INTEGER])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "integer literal" in err and "Traceback" not in err


def _write_json(tmp_path, data):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    return path


def _unit_unit_variable(tmp_path):
    """A check-derivation file of x : unit, y : unit |- y : unit with position
    ``true`` for 1."""
    ctx1 = extend(EMPTY_CONTEXT, unit_at(EMPTY_CONTEXT))
    ctx2 = extend(ctx1, unit_at(ctx1))
    data = derivation_to_json(THEORY, THEORY.signature, var(ctx2, 1, unit_at(ctx2).d_type).d_term)
    return _write_json(tmp_path, {**data, "i": True})


@pytest.mark.parametrize("field, value, argv", [
    ("var", True, lambda tmp_path: ["natural-type", FIXTURES / "mltt_base.json", '{"var":true}',
                                    '--cxt=[{"sym":"unit","args":[]},{"sym":"unit","args":[]}]']),
    ("i", True, lambda tmp_path: ["check-derivation", FIXTURES / "mltt_base.json", _unit_unit_variable(tmp_path)]),
    ("index", False, lambda tmp_path: ["check-derivation", FIXTURES / "mltt_base.json",
                                       _write_json(tmp_path, {"node": "hyp", "index": False})]),
], ids=["var", "i", "index"])
def test_a_json_boolean_is_not_a_natural_number(tmp_path, capsys, field, value, argv):
    # a JSON boolean parses as a Python bool, which is an int: true read as 1
    # made the variable and the natural type valid, false read as 0 a
    # hypothesis "False of 0"
    code, err = run_err(capsys, *argv(tmp_path))
    assert code == 2
    assert err == f"parse error: {field} must be a natural number, got {value!r}\n"


def test_a_json_boolean_is_not_a_premise_index(tmp_path, capsys):
    # the lam rule's premise order [[0,1],[0,2],[1,2]] with false for 0 and
    # true for 1 was read as that order: well-presented: ok, exit 0
    data = json.loads((FIXTURES / "mltt_pi_presented.json").read_text())
    (lam,) = [r for r in data["rules"] if r["name"] == "lam"]
    lam["premise_order"] = [[False, True], [False, 2], [True, 2]]
    code, err = run_err(capsys, "check-theory", _write_json(tmp_path, data), "--well-presented")
    assert code == 2
    assert err == "parse error: bad order entry [False, True]\n"


def test_bad_json_keeps_its_position():
    # a JSONDecodeError is a ValueError too: it keeps its own message
    with pytest.raises(ParseError, match="line 1, column 4: Expecting value"):
        loads("[1,")


def test_check_derivation_roundtrip(tmp_path, capsys):
    t = tt_at(EMPTY_CONTEXT)
    path = _write_derivation(tmp_path, "tt.json", t.d_term)
    code, out = run(capsys, "check-derivation", FIXTURES / "mltt_base.json", path)
    assert code == 0
    result = json.loads(out)
    assert result["ok"] is True
    assert result["conclusion"]["form"] == "IsTm"


def test_congruence_output_recheckable(capsys):
    code, out = run(capsys, "congruence", FIXTURES / "mltt_pi.json", "Pi-form")
    assert code == 0
    data = json.loads(out)
    assert len(data["premises"]) == 6
    # byte-for-byte canonical form
    assert out.strip() == dumps(data)


def test_congruence_of_undeclared_rule_is_a_parse_error(capsys):
    # the same mistake the file decoders report for an unknown rule name
    code = main(["congruence", str(FIXTURES / "mltt_pi.json"), "nope"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "parse error: rule 'nope' is not a rule of the theory\n"


def test_congruence_of_equality_rule_is_a_parse_error(capsys):
    # only object rules have congruence rules; asking for one of beta is a bad argument
    code = main(["congruence", str(FIXTURES / "mltt_pi.json"), "beta"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "parse error: rule 'beta' is not an object rule: only object rules have congruence rules\n"
    )


def test_congruence_recheck_failure_is_a_check_failure(monkeypatch, capsys):
    import gtt.cli

    # the decoded rule differs from the one the command built
    monkeypatch.setattr(gtt.cli, "rule_from_json", lambda sig, data: THEORY.rule(0))
    code = main(["congruence", str(FIXTURES / "mltt_pi.json"), "Pi-form"])
    assert code == 1
    assert "does not re-check" in capsys.readouterr().err


def test_congruence_recheck_survives_optimisation():
    # the re-check is a comparison, not an assert, so -O runs it as well
    argv = ["-m", "gtt.cli", "congruence", str(FIXTURES / "mltt_pi.json"), "Pi-form"]
    plain = subprocess.run([sys.executable, *argv], capture_output=True, env=SUBPROCESS_ENV)
    optimised = subprocess.run([sys.executable, "-O", *argv], capture_output=True, env=SUBPROCESS_ENV)
    assert plain.returncode == optimised.returncode == 0
    assert plain.stdout and optimised.stdout == plain.stdout


def test_closed_stdout_ends_output_without_traceback(tmp_path):
    # more than a pipe buffer (64 KiB) of output, read by a consumer that
    # stops after a few bytes, as ``gtt elim-subst ... | head -c 10`` does
    path = _write_derivation(tmp_path, "pi.json", nested_pi(EMPTY_CONTEXT, 40).d_type)
    argv = [sys.executable, "-m", "gtt.cli", "elim-subst", str(FIXTURES / "mltt_base.json"), str(path), "--pretty"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SUBPROCESS_ENV)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert head and err == b""


def test_presup_command(tmp_path, capsys):
    t = tt_at(EMPTY_CONTEXT)
    path = _write_derivation(tmp_path, "tt.json", t.d_term)
    code, out = run(capsys, "presup", FIXTURES / "mltt_base.json", path)
    assert code == 0
    results = json.loads(out)
    assert len(results) == 1
    assert results[0]["judgement"]["form"] == "IsTy"


def test_presup_needs_witnesses_only_where_it_uses_presuppositions(tmp_path, capsys):
    # no tt-intro entry: the lam-intro witness cites its premises, so the tt
    # below it is never visited, but a tt root needs the missing entry
    data = json.loads((FIXTURES / "mltt_base.json").read_text())
    data["witnesses"] = [w for w in data["witnesses"] if w["rule"] != "tt-intro"]
    theory = _write_json(tmp_path, data)
    u = unit_at(EMPTY_CONTEXT)
    x_unit = extend(EMPTY_CONTEXT, u)
    f = _write_derivation(tmp_path, "lam.json", lam(u, unit_at(x_unit), tt_at(x_unit)).d_term)
    code, out = run(capsys, "presup", theory, f)
    assert code == 0
    assert run(capsys, "presup", FIXTURES / "mltt_base.json", f) == (0, out)
    [result] = json.loads(out)
    assert result["judgement"]["form"] == "IsTy" and result["derivation"]["name"] == "Pi-form"
    code, err = run_err(capsys, "presup", theory, _write_derivation(tmp_path, "tt.json", tt_at(EMPTY_CONTEXT).d_term))
    assert code == 1
    assert err.count("\n") == 1 and "no presupposition witnesses for rule tt-intro" in err, err


def test_elim_subst_command(tmp_path, capsys):
    u = unit_at(EMPTY_CONTEXT)
    ctx1 = extend(EMPTY_CONTEXT, u)
    b = unit_at(ctx1)
    x0 = var(ctx1, newest_position(0), unit_at(ctx1).d_type)
    idf = lam(u, b, x0)
    ap = app(u, b, idf, tt_at(EMPTY_CONTEXT))
    path = _write_derivation(tmp_path, "ap.json", ap.d_type)
    code, out = run(capsys, "elim-subst", FIXTURES / "mltt_base.json", path)
    assert code == 0
    data = json.loads(out)
    assert data["node"] != "subst"
    from gtt.jsonio import derivation_from_json
    from gtt.metatheory import is_substitution_free

    back = derivation_from_json(THEORY, THEORY.signature, data)
    assert is_substitution_free(back)


@pytest.mark.parametrize("names", ["left-out", "renamed"])
def test_congruence_rules_match_whatever_their_metavariables_are_called(tmp_path, capsys, names):
    # a congruence rule is found by its shape: a theory file may name the
    # metavariables of its congruence rules as it likes, or leave them out
    from corpus import equality_substitution_into_nested_pi
    from gtt.presentation import theory_to_json

    rules = tuple(
        r._replace(meta_names=() if names == "left-out" else tuple(m + "_" for m in r.metas))
        if THEORY.rule_name(i).endswith("-cong") else r
        for i, r in enumerate(THEORY.rules)
    )
    data = theory_to_json(THEORY._replace(rules=rules), WITNESSES)
    if names == "left-out":
        for r in data["rules"]:
            if r["name"].endswith("-cong"):
                del r["metas"]
    theory = tmp_path / "theory.json"
    theory.write_text(dumps(data))
    code, out = run(capsys, "check-theory", theory, "--acceptable")
    assert code == 0
    assert "congruous: ok" in out
    # eliminating an equality substitution into a Pi type uses Pi-form-cong
    path = _write_derivation(tmp_path, "pi.json", equality_substitution_into_nested_pi(1))
    code, out = run(capsys, "elim-subst", theory, path)
    assert code == 0
    assert json.loads(out)["name"] == "Pi-form-cong"


def test_natural_type_app(capsys):
    # natural type of app(unit, unit, lam(...), tt) is unit
    term = {
        "sym": "app",
        "args": [
            {"sym": "unit", "args": []},
            {"sym": "unit", "args": []},
            {
                "sym": "lam",
                "args": [
                    {"sym": "unit", "args": []},
                    {"sym": "unit", "args": []},
                    {"var": 0},
                ],
            },
            {"sym": "tt", "args": []},
        ],
    }
    code, out = run(
        capsys, "natural-type", FIXTURES / "mltt_base.json", json.dumps(term)
    )
    assert code == 0
    assert json.loads(out) == {"sym": "unit", "args": []}


def test_natural_type_lam(capsys):
    term = {
        "sym": "lam",
        "args": [
            {"sym": "unit", "args": []},
            {"sym": "unit", "args": []},
            {"var": 0},
        ],
    }
    code, out = run(capsys, "natural-type", FIXTURES / "mltt_base.json", json.dumps(term))
    assert code == 0
    assert json.loads(out) == {
        "sym": "Pi",
        "args": [{"sym": "unit", "args": []}, {"sym": "unit", "args": []}],
    }


def test_invert_command(tmp_path, capsys):
    t = conv_wrap(conv_wrap(tt_at(EMPTY_CONTEXT)))
    path = _write_derivation(tmp_path, "t.json", t.d_term)
    code, out = run(capsys, "invert", FIXTURES / "mltt_base.json", path)
    assert code == 0
    data = json.loads(out)
    assert data["node"] == "conv"


def test_unique_typing_command(tmp_path, capsys):
    t = tt_at(EMPTY_CONTEXT)
    p1 = _write_derivation(tmp_path, "d1.json", t.d_term)
    p2 = _write_derivation(tmp_path, "d2.json", conv_wrap(t).d_term)
    code, out = run(capsys, "unique-typing", FIXTURES / "mltt_base.json", p1, p2)
    assert code == 0
    data = json.loads(out)
    from gtt.jsonio import derivation_from_json

    back = derivation_from_json(THEORY, THEORY.signature, data)
    j = check_theory_derivation(THEORY, (), back)
    assert j.form.value == "TyEq"


def run_err(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().err


def test_unique_typing_refuses_type_judgements(tmp_path, capsys):
    path = _write_derivation(tmp_path, "unit.json", unit_at(EMPTY_CONTEXT).d_type)
    code, err = run_err(capsys, "unique-typing", FIXTURES / "mltt_base.json", path, path)
    assert code == 2
    assert err.count("\n") == 1 and "term judgements" in err, err


@pytest.mark.parametrize("theory, expr", [
    ("mltt_base.json", '{"sym":"unit","args":[]}'),
    ("mltt_base.json", '{"sym":"Pi","args":[{"sym":"unit","args":[]},{"sym":"unit","args":[]}]}'),
    ("type_in_type.json", '{"sym":"El","args":[{"sym":"u","args":[]}]}'),
], ids=["unit", "Pi(unit,unit)", "El(u)"])
def test_natural_type_refuses_type_expressions(capsys, theory, expr):
    # natural types are defined for terms only: a type is bad input, as it is
    # for unique-typing
    code, err = run_err(capsys, "natural-type", FIXTURES / theory, expr)
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err and "term expression" in err, err


def test_unique_typing_checks_its_inputs(tmp_path, capsys):
    # tt-intro has no premises; a stray child must be refused as check-derivation does
    t = tt_at(EMPTY_CONTEXT)
    stray = RuleInst(t.d_term.ref, t.d_term.inst, t.d_term.context, (t.d_type,))
    p1 = _write_derivation(tmp_path, "stray.json", stray)
    p2 = _write_derivation(tmp_path, "tt.json", t.d_term)
    code, err = run_err(capsys, "unique-typing", FIXTURES / "mltt_base.json", p1, p2)
    assert code == 1
    assert err.count("\n") == 1 and "0 premises, 1 children" in err, err


def test_transformer_error_names_the_rule(tmp_path, capsys):
    u = unit_at(EMPTY_CONTEXT)
    path = _write_derivation(tmp_path, "refl.json", derive.refl_ty(EMPTY_CONTEXT, u.type, u.d_type))
    code, err = run_err(capsys, "invert", FIXTURES / "mltt_base.json", path)
    assert code == 1
    assert err.count("\n") == 1 and len(err) < 120 and "ty-refl" in err, err


def test_flatten_well_presented(capsys):
    code, out = run(capsys, "flatten", FIXTURES / "mltt_pi_presented.json")
    assert code == 0
    data = json.loads(out)
    assert [r["name"] for r in data["rules"]] == [
        "Pi", "Pi-cong", "lam", "lam-cong", "app", "app-cong", "beta",
    ]


def test_check_well_presented_spec(capsys):
    code, out = run(
        capsys,
        "check-theory",
        FIXTURES / "mltt_pi_presented.json",
        "--acceptable",
        "--well-founded",
        "--well-presented",
    )
    assert code == 0
    assert "well-presented: ok" in out
    assert "well-founded: ok" in out


def test_bad_witness_in_a_spec_fails_well_presented(tmp_path, capsys):
    # lam's witness that B is a type over A cites the premise A type instead
    data = json.loads((FIXTURES / "mltt_pi_presented.json").read_text())
    lam = next(r for r in data["rules"] if r["name"] == "lam")
    lam["witnesses"]["premise_2/0"] = {"index": 0, "node": "hyp"}
    path = tmp_path / "bad_witness.json"
    path.write_text(json.dumps(data))
    code = main(["check-theory", str(path), "--well-presented"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out.startswith("well-presented: FAIL (rule lam: ")
    assert captured.out.count("\n") == 1, captured.out


def _universe_spec(tmp_path):
    """The files of ``golden.universe_spec`` and the witness of ``U type`` that ``u`` cites."""
    data, u = universe_spec()
    spec, d = tmp_path / "universe.json", tmp_path / "u.json"
    spec.write_text(json.dumps(data))
    d.write_text(json.dumps(u))
    return spec, d, {**u, "name": "U"}


def test_a_spec_runs_with_its_elaborated_witnesses(tmp_path, capsys):
    spec, d, u_type = _universe_spec(tmp_path)
    code, out = run(capsys, "presup", spec, d)
    assert code == 0
    [result] = json.loads(out)
    assert result["derivation"] == u_type
    for argv in (("invert", spec, d), ("unique-typing", spec, d, d)):
        code, out = run(capsys, *argv)
        assert code == 0 and json.loads(out)["children"][0] == u_type


@pytest.mark.parametrize("argv", [("check-theory", "--acceptable"), ("presup",), ("flatten",)])
def test_a_spec_command_checks_acceptability_once(tmp_path, capsys, monkeypatch, argv):
    import gtt.acceptability

    spec, d, _ = _universe_spec(tmp_path)
    calls = []
    original = gtt.acceptability.check_acceptable_theory
    monkeypatch.setattr(gtt.acceptability, "check_acceptable_theory", lambda *a: calls.append(a) or original(*a))
    command, *flags = argv
    code, _ = run(capsys, command, spec, *([d] if command == "presup" else flags))
    assert code == 0
    [(_, witnesses, *_)] = calls
    assert "u" in witnesses


def test_a_spec_under_well_founded_gets_its_witnesses_and_no_acceptability_block(tmp_path, capsys, monkeypatch):
    import gtt.acceptability

    seen = []
    original = gtt.acceptability.check_well_founded_theory
    monkeypatch.setattr(gtt.acceptability, "check_well_founded_theory", lambda *a: seen.append(a) or original(*a))
    code, out = run(capsys, "check-theory", FIXTURES / "mltt_pi_presented.json", "--well-founded", "--json")
    assert code == 0
    assert list(json.loads(out)["checks"]) == ["well-founded"]
    [(theory, order, witnesses)] = seen
    assert order is None and set(witnesses) == {theory.rule_name(i) for i in range(len(theory.rules))}


def test_weak_checks_weak_presuppositivity(capsys):
    # Q-form-cong has no witnesses: the strong check misses those of its conclusion and
    # premises, the weak check only those of its conclusion
    def diagnostics(*flags):
        code, out = run(capsys, "check-theory", FIXTURES / "cyclic_quantifier.json", *flags, "--json")
        assert code == 1
        return json.loads(out)["checks"]["acceptable"]["diagnostics"]

    strong, weak = diagnostics(), diagnostics("--weak")
    assert (len(strong), len(weak)) == (10, 3)
    assert set(weak) < set(strong)


def test_replace_step_script(capsys):
    code, out = run(
        capsys,
        "replace-step",
        FIXTURES / "type_in_type.json",
        FIXTURES / "type_in_type_replacement.json",
    )
    assert code == 0
    data = json.loads(out)
    assert [s["name"] for s in data["theory"]["signature"]] == ["U", "El'", "u'"]
    assert data["well_founded"] is True


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "cong.json"
    code = main(
        ["congruence", str(FIXTURES / "mltt_pi.json"), "Pi-form", "--out", str(target)]
    )
    assert code == 0
    data = json.loads(target.read_text())
    assert len(data["premises"]) == 6


def test_a_usage_error_names_every_subcommand(capsys):
    # a call builds the parser of the subcommand it names alone; the usage an
    # argument error prints is the one of a parser with all of them
    with pytest.raises(SystemExit):
        main(["--help"])
    full = capsys.readouterr().out.split("\n\n")[0]
    with pytest.raises(SystemExit) as e:
        main(["check-theory", "theory.json", "--bogus"])
    assert e.value.code == 2
    usage, error = capsys.readouterr().err.split("gtt: error: ")
    assert usage.rstrip("\n") == full
    assert error == "unrecognized arguments: --bogus\n"


def plain_args_cases():
    """Command lines for every subcommand: each subset and order of its
    options with plain values, then values that start with ``-``, forms only
    argparse reads, help, and wrong numbers of positionals.  Each case is
    (argv, plain), where ``plain`` marks a call ``_plain_args`` must parse."""
    yield [], False
    yield ["bogus", "t.json"], False
    yield ["-h"], False
    for name, (_, _, arguments) in COMMANDS.items():
        options = [a for a, _ in arguments if a[0] == "-"]
        positionals = [f"{a}.json" for a, _ in arguments if a[0] != "-"]

        def words(option, value="[]"):
            return [option] if "action" in dict(arguments)[option] else [option, value]

        orders = (o for n in range(len(options) + 1) for s in itertools.combinations(options, n)
                  for o in itertools.permutations(s))
        for k, order in enumerate(orders):
            # the positionals go in order before, between and after the options, in turn
            slots = sorted((k + j) % (len(order) + 1) for j in range(len(positionals)))
            argv = [name]
            for i in range(len(order) + 1):
                argv += [p for p, slot in zip(positionals, slots) if slot == i]
                argv += words(order[i]) if i < len(order) else []
            yield argv, True
        for option in options:
            for value in ("-x", "-1", "--pretty", "", "x=y"):
                yield [name, *positionals, *words(option, value)], False
            yield [name, *positionals, f"{option}=x"], False
            yield [name, *positionals, option[:-1]], False
            yield [name, *positionals, *words(option), *words(option)], False
            yield [name, *positionals, option], False
        for extra in (["-h"], ["--help"], ["--"], ["-"], ["--pre"], ["--bogus"]):
            yield [name, *positionals, *extra], False
        yield [name, "--", *positionals], False
        yield [name, *positionals[:-1]], False
        yield [name, *positionals, "extra.json"], False
        yield [name], False


def test_plain_args_parse_what_argparse_parses():
    # ``main`` parses a plain call itself and leaves every other one to
    # argparse: what it parses must be exactly what argparse parses, and
    # a call argparse refuses must be left to argparse
    cases = list(plain_args_cases())
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        parsed = [_plain_args(argv) for argv, _ in cases]
    assert out.getvalue() == err.getvalue() == ""
    parsers = {}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for (argv, plain), got in zip(cases, parsed):
            command = argv[0] if argv and argv[0] in COMMANDS else None
            if command not in parsers:
                parsers[command] = build_parser(command)
            try:
                expected = vars(parsers[command].parse_args(argv))
            except SystemExit:
                expected = None
            assert got is not None or not plain, argv
            assert got is None or vars(got) == expected, argv
