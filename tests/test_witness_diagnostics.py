"""One derivability check, one wording: every entry point that checks a
witness reports a missing one, one that fails to check and one that derives
another judgement in the same words, tagged with the witness's JSON key.

Each entry point checks lam's witnesses in the products theory: that
Pi(A, B) is a type (``conclusion/0``, from lam's three premises), that B is
a type over A (``premise_2/0``, from the two premises below t), or lam's
conclusion itself (a realiser, a derived rule, a theory map).
"""

import json
import pathlib

import pytest

from genexpr import identity_theory_map
from gtt.bundled import mltt_pi, mltt_pi_presented
from gtt.cli import main
from gtt.derivation_ops import generic_rule_instance
from gtt.judgements import presuppositions
from gtt.maps import check_derived_rule, check_realiser
from gtt.metatheory import check_presuppositive
from gtt.presentation import check_premise_family, check_rule_boundary, elaborate_theory
from gtt.theories import Hyp

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

THEORY, WITNESSES = mltt_pi()
LAM = THEORY.rule_index("lam-intro")
RULE = THEORY.rule(LAM)
SPEC = mltt_pi_presented()
LAM_SPEC = SPEC.rules[1]
STAGED, _ = elaborate_theory(SPEC)

# the witness each entry point gets: None is a missing witness, Hyp(7) cites
# a hypothesis that is not there, Hyp(0) derives lam's first premise, A type
WITNESS = {"missing": None, "fails": Hyp(7), "derives": Hyp(0)}


def _with(table: dict, key, d) -> dict:
    """``table`` with ``d`` at ``key``, or without ``key`` when ``d`` is None."""
    out = {k: v for k, v in table.items() if k != key}
    if d is not None:
        out[key] = d
    return out


def _presuppositive(d):
    w = WITNESSES["lam-intro"]
    w = w._replace(conclusion=_with(w.conclusion, 0, d))
    diagnostics = []
    return check_presuppositive(THEORY, RULE, w, diagnostics=diagnostics), diagnostics


def _premise_family(d):
    w = SPEC.witnesses["lam"]
    w = w._replace(premises=_with(w.premises, (2, 0), d))
    diagnostics = []
    return check_premise_family(STAGED, LAM_SPEC.boundary.premises, w, diagnostics), diagnostics


def _rule_boundary(d):
    w = SPEC.witnesses["lam"]
    w = w._replace(conclusion=_with(w.conclusion, 0, d))
    diagnostics = []
    return check_rule_boundary(STAGED, LAM_SPEC.boundary, w, diagnostics), diagnostics


def _realiser(d):
    return check_realiser(STAGED, LAM_SPEC.boundary, RULE.conclusion.head, d), None


def _derived_rule(d):
    identity = identity_theory_map(THEORY)
    tmap = identity._replace(rule_derivations=_with(identity.rule_derivations, LAM, d))
    diagnostics = []
    tmap.check(diagnostics)
    return check_derived_rule(THEORY, RULE, d), diagnostics


def _spec_through_the_cli(d, tmp_path, capsys):
    data = json.loads((FIXTURES / "mltt_pi_presented.json").read_text())
    lam = next(r for r in data["rules"] if r["name"] == "lam")
    lam["witnesses"] = _with(lam["witnesses"], "premise_2/0", d and {"node": "hyp", "index": d.index})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code = main(["check-theory", str(path), "--well-presented"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    return code == 0, [out]


# entry point: (run, its diagnostic around the tagged message, the number of
# hypotheses, the judgement the witness must derive, a witness that does)
ENTRIES = {
    "check_presuppositive": (
        _presuppositive, "conclusion/0: {}", 3, presuppositions(RULE.conclusion)[0],
        WITNESSES["lam-intro"].conclusion[0],
    ),
    "check_premise_family": (
        _premise_family, "premise_2/0: {}", 2, presuppositions(RULE.premises[2])[0], Hyp(1),
    ),
    "check_rule_boundary": (
        _rule_boundary, "conclusion/0: {}", 3, presuppositions(RULE.conclusion)[0],
        SPEC.witnesses["lam"].conclusion[0],
    ),
    "check_realiser": (_realiser, None, 3, RULE.conclusion, generic_rule_instance(LAM, RULE)),
    "check_derived_rule and RawTheoryMap.check": (
        _derived_rule, "rule lam-intro: {}", 3, RULE.conclusion, generic_rule_instance(LAM, RULE),
    ),
    "check-theory on a spec": (
        _spec_through_the_cli, "well-presented: FAIL (rule lam: premise_2/0: {})\n", 2,
        presuppositions(RULE.premises[2])[0], Hyp(1),
    ),
}


@pytest.mark.parametrize("failure", ["none", "missing", "fails", "derives"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_failing_witness_is_reported_in_one_wording(entry, failure, tmp_path, capsys):
    run, diagnostic, hyps, target, good = ENTRIES[entry]
    args = (tmp_path, capsys) if entry == "check-theory on a spec" else ()
    if failure == "none":
        ok, diagnostics = run(good, *args)
        assert ok is True
        assert diagnostics in (None, [], ["well-presented: ok\n"])
        return
    message = {
        "missing": "no witness supplied",
        "fails": f"witness fails to check: at node []: hypothesis 7 of {hyps}",
        "derives": f"witness derives {RULE.premises[0]!r}, wanted {target!r}",
    }[failure]
    ok, diagnostics = run(WITNESS[failure], *args)
    assert ok is False
    if diagnostic is None:
        assert diagnostics is None
    elif entry == "check_derived_rule and RawTheoryMap.check" and failure == "missing":
        # a theory map may leave a rule without a derivation
        assert diagnostics == []
    else:
        assert diagnostics == [diagnostic.format(message)]
