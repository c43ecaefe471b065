"""A fixed set of ``gtt`` command lines, and the bytes each one prints.

Each request runs ``gtt.cli.main`` in-process, in a fresh work directory
that holds copies of the fixtures and the derivation and malformed files
the requests read, under relative names, so that no output names an
absolute or temporary path.  A request records its exit code and the
sha256 of its stdout and of its stderr.  The set covers:

- every command on every fixture, and each command once with ``--pretty``;
- ``check-theory --json`` on every fixture with no flag, with each flag,
  and with all four (``--json`` changes the report of this command only),
  and without ``--json`` with all four;
- derivation files of ``corpus`` (the corpus, the substitution corpus,
  weakening chains and equality substitutions under binders) through
  ``check-derivation``, ``presup``, ``elim-subst``, ``invert`` and
  ``unique-typing``;
- the malformed inputs of ``test_cli``;
- a spec with a closed type ``U`` and a term ``u : U`` ahead of the
  ``mltt_pi_presented`` rules, through ``check-theory`` and every command
  that reads a derivation, on a derivation of ``u``; the same spec with
  ``U`` and ``u`` after ``beta``, and ``Pi`` with a rule whose term
  premise has the type ``Pi(A, A)``, through ``check-theory``;
- a name repeated in each kind of input file: a symbol of a theory's
  signature, a rule of a raw theory, a rule of a spec, a premise of a
  spec's rule and a step of a replacement script;
- a spec rule named like the congruence rule of another, through
  ``check-theory`` and ``flatten``; a spec order with a cycle, and two
  that the rule list does not extend: an order edge added, and two rules
  swapped where a witness of the first cites the second; ``--well-founded``
  on a raw theory that is not tight, on one whose order has a cycle, and on
  one with two dependency cycles of different lengths through its first rule;
- replacement scripts whose first step is named like a congruence rule,
  whose equation step carries an object rule, and whose equation witness
  derives another judgement.

The manifest also holds the sha256 of every input file that is not a
fixture, so a change in ``derivation_to_json`` shows even where no
request prints the node it changes.

A run loads a theory file for every request, which costs most of its
time; so the corpus is sampled (every fourth item through ``presup``,
every eighth through the other commands, and each item whose root is an
equality substitution through ``elim-subst`` and ``presup``) to keep the
run under 3 s.

``tests/golden_manifest.json`` holds the recorded results, and
``test_golden`` compares a fresh run with it.  A change that alters the
emitted bytes on purpose records them again with

    python tests/golden.py --write

and names each changed request.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden_manifest.json"
FIXTURES = ROOT / "fixtures"

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import (  # noqa: E402
    THEORY,
    app,
    build_corpus,
    conv_wrap,
    equality_substitution_into_nested_pi,
    equality_substitutions_under_binders,
    extend,
    lam,
    lam_tower,
    mixed_weakening_chain,
    newest_position,
    substituted_weakening_chain,
    substitution_corpus,
    tt_at,
    unit_at,
    var,
    weakening_chain,
)
from gtt import derive  # noqa: E402
from gtt.cli import main  # noqa: E402
from gtt.judgements import EMPTY_CONTEXT, JudgementForm  # noqa: E402
from gtt.jsonio import MAX_DEPTH, derivation_to_json, dumps  # noqa: E402
from gtt.theories import EqSubstInst, RuleInst, check_theory_derivation  # noqa: E402

THEORY_FLAGS = ("--acceptable", "--well-founded", "--well-presented", "--weak")
FLAG_SETS = ((), *((f,) for f in THEORY_FLAGS), THEORY_FLAGS)
UNIT = '{"sym":"unit","args":[]}'
TT = '{"sym":"tt","args":[]}'

# the malformed inputs of ``test_cli``
BAD_DERIVATIONS = (
    "[1,2]",
    '{"node":"rule","name":"tt-intro","children":5}',
    '{"node":"subst","cxt":[],"subst":5,"children":[]}',
    '{"node":"subst","cxt":[],"subst":{"src":0,"map":[]},"judgement":5,"children":[]}',
    '{"node":"equiv","which":0,"cxt":[],"inst":5,"children":[]}',
    '{"node":"rule","name":"a","children":[]}',
    '{"node":"subst","cxt":[],"subst":{"src":0,"map":[{"sym":"unit"}]},"children":[]}',
    '{"node":"rule","name":"tt-intro","cxt":[{"sym":"tt"}],"inst":{},"children":[]}',
    '{"node":"hyp","index":false}',
    "1" * 5000,
)
BAD_THEORIES = (
    "{oops",
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
    "1" * 5000,
)


def bad_witness_tables() -> tuple[str, ...]:
    """``type_in_type`` with a witness key past the presuppositions of its
    premise, with a second spelling of a witness key, and with a second,
    empty entry for ``El-form``: each refused when the file loads."""
    out = []
    for change in ("past the presuppositions", "leading zero", "second entry"):
        data = json.loads((FIXTURES / "type_in_type.json").read_text())
        (entry,) = [w for w in data["witnesses"] if w["rule"] == "El-form"]
        table = entry["presup_witnesses"]
        if change == "past the presuppositions":
            table["premise_0/5"] = {"node": "hyp", "index": 99}
        elif change == "leading zero":
            table["premise_00/0"] = {"node": "hyp", "index": 99}
        else:
            data["witnesses"].append({"rule": "El-form", "presup_witnesses": {}})
        out.append(json.dumps(data))
    return tuple(out)


BAD_THEORIES += bad_witness_tables()
BAD_SCRIPTS = (
    "[1]",
    '{"steps":5}',
    '{"steps":[{"kind":"symbol"}]}',
    '{"steps":[{"kind":"symbol","conclusion_form":"IsTy","premises":[{"form":"IsTm"}]}]}',
    '{"steps":[{"kind":"equation"}]}',
)


def corpus_derivations() -> list:
    """The corpus derivations the requests check and transform."""
    items = [d for d, _ in build_corpus() + substitution_corpus()]
    items += [weakening_chain(k)[0] for k in (1, 2, 4)]
    items += [mixed_weakening_chain(k)[0] for k in (1, 4)]
    items += [substituted_weakening_chain(k)[0] for k in (0, 3)]
    items += equality_substitutions_under_binders()
    items += [equality_substitution_into_nested_pi(n) for n in (1, 2)]
    return items


def _emit(d) -> str:
    return dumps(derivation_to_json(THEORY, THEORY.signature, d))


def build() -> tuple[dict[str, str | bytes | None], list[tuple[str, ...]]]:
    """The input files (text, bytes, or None for a directory) by relative
    name, and the argv of every request in order."""
    files: dict[str, str | bytes | None] = {}
    reqs: list[tuple[str, ...]] = []
    fixtures = sorted(f"fixtures/{p.name}" for p in FIXTURES.glob("*.json"))
    script = "fixtures/type_in_type_replacement.json"
    base = "fixtures/mltt_base.json"

    tt, u = tt_at(EMPTY_CONTEXT), unit_at(EMPTY_CONTEXT)
    x_unit = extend(EMPTY_CONTEXT, u)
    b, x = unit_at(x_unit), var(x_unit, newest_position(0), unit_at(x_unit).d_type)
    tower = lam_tower(EMPTY_CONTEXT, 2)
    files["tt.json"] = _emit(tt.d_term)
    files["tt-conv.json"] = _emit(conv_wrap(tt).d_term)
    files["lam.json"] = _emit(tower.d_term)
    files["lam-conv.json"] = _emit(conv_wrap(tower).d_term)
    files["app.json"] = _emit(app(u, b, lam(u, b, x), tt).d_type)

    for f in fixtures:
        for flags in FLAG_SETS:
            reqs.append(("check-theory", f, *flags, "--json"))
        reqs.append(("check-theory", f, *THEORY_FLAGS))
        reqs.append(("flatten", f))
        reqs.append(("congruence", f, (rule_names(f) or ["no-such-rule"])[0]))
        reqs.append(("natural-type", f, TT))
        for command in ("check-derivation", "presup", "elim-subst", "invert"):
            reqs.append((command, f, "lam.json"))
        reqs.append(("unique-typing", f, "tt.json", "tt-conv.json"))
        reqs.append(("replace-step", f, script))
    for argv in (
        ("check-theory", "fixtures/mltt_pi.json", *THEORY_FLAGS, "--json"),
        ("flatten", "fixtures/mltt_pi_presented.json"), ("congruence", base, "Pi-form"), ("natural-type", base, TT),
        ("check-derivation", base, "lam.json"), ("presup", base, "lam.json"), ("elim-subst", base, "app.json"),
        ("invert", base, "lam.json"), ("unique-typing", base, "lam.json", "lam-conv.json"),
        ("replace-step", "fixtures/type_in_type.json", script),
    ):
        reqs.append((*argv, "--pretty"))
    for rule in ("lam-intro", "beta", "no-such-rule"):
        reqs.append(("congruence", base, rule))
    reqs.append(("natural-type", base, '{"var":0}', f"--cxt=[{UNIT}]"))

    # every item written, every fourth through presup, every eighth through the others too
    for i, d in enumerate(corpus_derivations()):
        name = f"corpus-{i:03}.json"
        files[name] = _emit(d)
        if isinstance(d, EqSubstInst):
            # what eliminating an equality substitution at the root emits
            reqs.append(("elim-subst", base, name))
            if i % 4:
                reqs.append(("presup", base, name))
        if i % 4:
            continue
        reqs.append(("presup", base, name))
        if i % 8:
            continue
        for command in ("check-derivation", "elim-subst", "invert"):
            reqs.append((command, base, name))
        if check_theory_derivation(THEORY, (), d).form is JudgementForm.IS_TM:
            reqs.append(("unique-typing", base, name, "tt.json" if i % 16 else name))

    for i, text in enumerate(BAD_DERIVATIONS):
        files[f"bad-derivation-{i}.json"] = text
        reqs.append(("check-derivation", base, f"bad-derivation-{i}.json"))
    for command in ("presup", "elim-subst", "invert"):
        reqs.append((command, base, "bad-derivation-1.json"))
    reqs.append(("unique-typing", base, "tt.json", "bad-derivation-0.json"))
    for i, text in enumerate(BAD_THEORIES):
        files[f"bad-theory-{i}.json"] = text
        reqs.append(("check-theory", f"bad-theory-{i}.json"))
    for i, text in enumerate(BAD_SCRIPTS):
        files[f"bad-script-{i}.json"] = text
        reqs.append(("replace-step", "fixtures/type_in_type.json", f"bad-script-{i}.json"))
    witness_key = json.loads((FIXTURES / "type_in_type.json").read_text())
    witness_key["witnesses"][0]["presup_witnesses"] = {"conclusion/x": {}}
    files["bad-witness-key.json"] = dumps(witness_key)
    reqs.append(("check-theory", "bad-witness-key.json"))
    presented = json.loads((FIXTURES / "mltt_pi_presented.json").read_text())
    (lam_rule,) = [r for r in presented["rules"] if r["name"] == "lam"]
    order = lam_rule["premise_order"]
    lam_rule["premise_order"] = [[False, True], [False, 2], [True, 2]]
    files["bool-order.json"] = json.dumps(presented)
    reqs.append(("check-theory", "bool-order.json", "--well-presented"))
    lam_rule["premise_order"] = order
    lam_rule["witnesses"]["premise_2/0"] = {"index": 0, "node": "hyp"}
    files["bad-witness.json"] = json.dumps(presented)
    reqs.append(("check-theory", "bad-witness.json", "--well-presented"))
    universe, u_term = universe_spec()
    files["universe.json"], files["u.json"] = json.dumps(universe), json.dumps(u_term)
    reqs.append(("check-theory", "universe.json", "--acceptable", "--well-founded", "--json"))
    for command in ("check-derivation", "presup", "elim-subst", "invert"):
        reqs.append((command, "universe.json", "u.json"))
    reqs.append(("unique-typing", "universe.json", "u.json", "u.json"))
    files["universe-last.json"], files["self.json"] = json.dumps(universe_last_spec()), json.dumps(self_spec())
    for spec in ("universe-last.json", "self.json"):
        reqs.append(("check-theory", spec, "--acceptable", "--well-founded", "--json"))
    reqs.append(("presup", "universe-last.json", "u.json"))
    no_tt = json.loads((FIXTURES / "mltt_base.json").read_text())
    no_tt["witnesses"] = [w for w in no_tt["witnesses"] if w["rule"] != "tt-intro"]
    files["no-tt-witness.json"] = json.dumps(no_tt)
    for name in ("tt.json", "lam.json"):
        reqs.append(("presup", "no-tt-witness.json", name))
    t = tt.d_term
    files["stray.json"] = _emit(RuleInst(t.ref, t.inst, t.context, (tt.d_type,)))
    reqs.append(("unique-typing", base, "stray.json", "tt.json"))
    files["refl.json"] = _emit(derive.refl_ty(EMPTY_CONTEXT, u.type, u.d_type))
    reqs.append(("invert", base, "refl.json"))
    files["binary.json"] = b"\xff\xfe\x00"
    files["directory.json"] = None
    for name in ("binary.json", "directory.json", "does-not-exist.json"):
        reqs.append(("check-derivation", base, name))
    reqs.append(("check-theory", "does-not-exist.json"))
    files["over-limit.json"] = '{"node":"var","cxt":[],"i":0,"children":[' * MAX_DEPTH + TT + "]}" * MAX_DEPTH
    reqs.append(("check-derivation", base, "over-limit.json"))
    n = MAX_DEPTH
    reqs.append(("natural-type", base, f'{{"sym":"Pi","args":[{UNIT},' * n + UNIT + "]}" * n))
    reqs.append(("natural-type", base, "1" * 5000))
    reqs.append(("natural-type", base, '{"var":true}', f"--cxt=[{UNIT},{UNIT}]"))
    reqs.append(("natural-type", base, UNIT))
    reqs.append(("congruence", "fixtures/mltt_pi.json", "Pi-form", "--out", "directory.json"))
    reqs.append(("check-theory", "fixtures/mltt_pi.json", "--json", "--out", "missing/out.json"))
    files.update(repeated_names())
    reqs += [
        ("check-derivation", "repeated-symbol.json", "lam.json"),
        ("check-theory", "repeated-rule.json", "--well-founded"),
        ("check-theory", "repeated-spec-rule.json", "--well-presented"),
        ("check-theory", "repeated-premise.json", "--well-presented"),
        ("replace-step", "fixtures/type_in_type.json", "repeated-step.json"),
    ]
    files.update(order_faults())
    reqs += [
        ("check-theory", "congruence-name.json"),
        ("flatten", "congruence-name.json"),
        ("check-theory", "cyclic-spec-order.json"),
        ("check-theory", "unextended-spec-order.json"),
        ("check-theory", "lam-before-pi.json"),
        ("check-theory", "not-tight.json", "--well-founded"),
        ("check-theory", "cyclic-order.json", "--well-founded"),
    ]
    # two dependency cycles through S0-form: S0 < S1 < S2 < S3 and S0 < S4
    files["two-cycles.json"] = json.dumps(type_symbols(5, {(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 0)}))
    reqs.append(("check-theory", "two-cycles.json", "--well-founded"))
    files.update(script_faults())
    reqs += [
        ("replace-step", "fixtures/type_in_type.json", f"{name}.json")
        for name in ("cong-named-step", "object-equation", "wrong-equation-witness")
    ]
    return files, reqs


def fixture(name: str):
    """The JSON of a fixture file."""
    return json.loads((FIXTURES / name).read_text())


def repeated_names() -> dict[str, str]:
    """Input files that each name one thing twice: ``mltt_base`` with ``Pi``
    declared twice, ``mltt_pi`` with ``lam-intro`` listed twice,
    ``mltt_pi_presented`` with ``beta`` renamed ``app`` (its order edges
    dropped), the same spec with the premise ``B`` of ``Pi`` renamed ``A``,
    and the ``type_in_type`` script with its first step twice."""
    base, pi, spec, premise, script = map(fixture, (
        "mltt_base.json", "mltt_pi.json", "mltt_pi_presented.json", "mltt_pi_presented.json",
        "type_in_type_replacement.json",
    ))
    base["signature"].append(base["signature"][0])
    pi["rules"].append(next(r for r in pi["rules"] if r["name"] == "lam-intro"))
    next(r for r in spec["rules"] if r["name"] == "beta")["name"] = "app"
    spec["order"] = [edge for edge in spec["order"] if "beta" not in edge]
    next(r for r in premise["rules"] if r["name"] == "Pi")["premises"][1]["name"] = "A"
    script["steps"].insert(1, script["steps"][0])
    return {
        f"repeated-{name}.json": json.dumps(data)
        for name, data in (
            ("symbol", base), ("rule", pi), ("spec-rule", spec), ("premise", premise), ("step", script)
        )
    }


def order_faults() -> dict[str, str]:
    """``mltt_pi_presented`` with ``lam`` renamed ``Pi-cong``, with the
    order edge ``beta < Pi`` added (a cycle), with ``app < lam`` added
    (which its rule list does not extend), and with ``lam`` listed before
    ``Pi``, which a witness of ``lam`` cites (a rule list that does not
    extend the order either); ``mltt_base`` with a symbol that no rule
    introduces, and with the order edge ``beta < Pi-form`` added (a cycle)."""
    renamed = (FIXTURES / "mltt_pi_presented.json").read_text().replace('"lam"', '"Pi-cong"')
    cyclic_spec, unextended, lam_first, not_tight, cyclic = map(fixture, (
        "mltt_pi_presented.json", "mltt_pi_presented.json", "mltt_pi_presented.json", "mltt_base.json",
        "mltt_base.json",
    ))
    cyclic_spec["order"].append(["beta", "Pi"])
    unextended["order"].append(["app", "lam"])
    pi, lam = lam_first["rules"][:2]
    lam_first["rules"][:2] = [lam, pi]
    not_tight["signature"].append({"name": "Extra", "class": "Ty", "arity": []})
    cyclic["order"].append(["beta", "Pi-form"])
    return {
        "congruence-name.json": renamed,
        "cyclic-spec-order.json": json.dumps(cyclic_spec),
        "unextended-spec-order.json": json.dumps(unextended),
        "lam-before-pi.json": json.dumps(lam_first),
        "not-tight.json": json.dumps(not_tight),
        "cyclic-order.json": json.dumps(cyclic),
    }


def script_faults() -> dict[str, str]:
    """The ``type_in_type`` script with its step ``U`` renamed ``U-cong`` (in
    its name and in the boundaries that mention it), with its equation's
    rule replaced by the object rule ``U type``, and with its equation's
    witness replaced by the derivation of ``u : U``."""
    script = (FIXTURES / "type_in_type_replacement.json").read_text()
    renamed = json.dumps(json.loads(script)).replace('"sym": "U"', '"sym": "U-cong"').replace(
        '"name": "U"', '"name": "U-cong"'
    )
    object_rule, wrong_witness = json.loads(script), json.loads(script)
    equation = object_rule["steps"][3]["rule"]
    u_type = {"cxt": [], "form": "IsTy", "slots": {"head": equation["conclusion"]["slots"]["lhs"]}}
    equation["conclusion"] = u_type
    wrong_witness["steps"][3]["witness"] = wrong_witness["steps"][2]["witness"]
    return {
        "cong-named-step.json": renamed,
        "object-equation.json": json.dumps(object_rule),
        "wrong-equation-witness.json": json.dumps(wrong_witness),
    }


def type_symbols(n: int, edges) -> dict:
    """A tight raw theory of the closed type symbols ``S0`` … ``S(n-1)``
    whose dependency constraints are ``edges``: the rule ``Si-form``
    concludes ``Si type`` and has a premise ``Sk ≡ Sk`` for each edge (k, i)."""
    def sym(k):
        return {"sym": f"S{k}", "args": []}

    return {
        "signature": [{"name": f"S{k}", "class": "Ty", "arity": []} for k in range(n)],
        "rules": [
            {
                "name": f"S{i}-form", "arity": [], "metas": [],
                "premises": [
                    {"cxt": [], "form": "TyEq", "slots": {"lhs": sym(k), "rhs": sym(k)}}
                    for k, j in sorted(edges) if j == i
                ],
                "conclusion": {"cxt": [], "form": "IsTy", "slots": {"head": sym(i)}},
            }
            for i in range(n)
        ],
    }


def universe_spec() -> tuple[dict, dict]:
    """``mltt_pi_presented`` after a closed type ``U`` and a term ``u : U``
    whose conclusion witness is the rule ``U``, and a derivation of ``u``."""
    universe = json.loads((FIXTURES / "mltt_pi_presented.json").read_text())
    u_type = {"node": "rule", "name": "U", "cxt": [], "inst": {}, "children": []}
    universe["rules"][:0] = [
        {"name": "U", "conclusion_form": "IsTy", "conclusion_boundary": {}, "premises": [], "witnesses": {}},
        {"name": "u", "conclusion_form": "IsTm", "conclusion_boundary": {"type": {"sym": "U", "args": []}},
         "premises": [], "witnesses": {"conclusion/0": u_type}},
    ]
    universe["order"].append(["U", "u"])
    return universe, {**u_type, "name": "u"}


def universe_last_spec() -> dict:
    """``universe_spec`` with ``U`` and ``u`` listed after ``beta``."""
    universe, _ = universe_spec()
    universe["rules"] = universe["rules"][2:] + universe["rules"][:2]
    return universe


def self_spec() -> dict:
    """``Pi`` and ``self(A, f) : A`` for ``A type`` and ``f : Pi(A, A)``,
    whose witness that ``Pi(A, A)`` is a type weakens ``A type`` into ``x : A``."""
    spec = json.loads((FIXTURES / "mltt_pi_presented.json").read_text())
    a = {"meta": "A", "args": []}
    hyp_a = {"node": "hyp", "index": 0}
    a_under_x = {"node": "subst", "cxt": [a], "subst": {"src": 1, "map": []}, "trivial": [],
                 "judgement": {"cxt": [], "form": "IsTy", "slots": {"head": a}}, "children": [hyp_a]}
    pi_aa = {"node": "rule", "name": "Pi", "cxt": [], "inst": {"A": a, "B": a}, "children": [hyp_a, a_under_x]}
    spec["rules"][1:] = [
        {"name": "self", "conclusion_form": "IsTm", "conclusion_boundary": {"type": a},
         "premises": [{"name": "A", "form": "IsTy", "cxt_seq": [], "boundary": {}},
                      {"name": "f", "form": "IsTm", "cxt_seq": [], "boundary": {"type": {"sym": "Pi", "args": [a, a]}}}],
         "premise_order": [[0, 1]], "witnesses": {"conclusion/0": hyp_a, "premise_1/0": pi_aa}},
    ]
    spec["order"] = [["Pi", "self"]]
    return spec


def rule_names(fixture: str) -> list[str]:
    """The names of the rules a fixture file lists."""
    return [r["name"] for r in json.loads((ROOT / fixture).read_text()).get("rules", ()) if "name" in r]


def label(argv: tuple[str, ...]) -> str:
    """The manifest key of a request: its argv, with a long argument cut to
    its length and digest."""
    parts = []
    for a in argv:
        if len(a) > 80:
            a = f"<{len(a)} chars {hashlib.sha256(a.encode()).hexdigest()[:12]}>"
        parts.append(a)
    return " ".join(parts)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_all() -> dict[str, dict]:
    """Run every request and give ``label -> {code, stdout, stderr}``, and
    ``file <name> -> {bytes}`` for each input file written from ``corpus``
    (those bytes are ``derivation_to_json``'s too)."""
    files, reqs = build()
    results: dict[str, dict] = {
        f"file {name}": {"bytes": _sha(content)} for name, content in files.items() if isinstance(content, str)
    }
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(FIXTURES, pathlib.Path(work) / "fixtures")
        for name, content in files.items():
            path = pathlib.Path(work) / name
            if content is None:
                path.mkdir()
            elif isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content)
        os.chdir(work)
        try:
            for argv in reqs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(list(argv))
                    except SystemExit as e:
                        code = e.code
                key = label(argv)
                assert key not in results, key
                for text in (out.getvalue(), err.getvalue()):
                    assert work not in text and str(ROOT) not in text, key
                results[key] = {"code": code, "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue())}
        finally:
            os.chdir(cwd)
    return results


def differences(recorded: dict[str, dict], fresh: dict[str, dict]) -> list[str]:
    """One line per entry whose results differ, or that only one side has."""
    lines = []
    for key in sorted(recorded.keys() | fresh.keys()):
        want, got = recorded.get(key), fresh.get(key)
        if want == got:
            continue
        if want is None or got is None:
            lines.append(f"{'not recorded' if want is None else 'not run'}: {key}")
        else:
            changed = ", ".join(f for f in want if want[f] != got.get(f))
            lines.append(f"{changed} differ: {key}")
    return lines


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    results = run_all()
    MANIFEST.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"{len(results)} entries recorded in {MANIFEST.relative_to(ROOT)}")
