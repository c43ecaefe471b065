"""The kernel's rejections, pinned by class and exact message at a public entry.

Each case reaches one ``raise`` of the syntax walkers, of the judgement and
instantiation records, or of the rule instances, from outside the kernel: a
record built through the Python API, a syntax map, a derivation handed to
the checker, or a file handed to the CLI.  Where the raise sits under the
check of a derivation, the reference checker rejects the same tree.
"""

import json
import pathlib

import pytest

from corpus import KIND, SIG, THEORY, UNIT_FORM, extend, tt_at, unit_at
from genexpr import arity
from gtt.cli import main
from gtt.errors import (
    ArityMismatch, ClassMismatch, DerivationError, IndexOutOfRange, KernelError, ScopeMismatch,
)
from gtt.judgements import EMPTY_CONTEXT, Boundary, Judgement, JudgementForm, RawContext, is_type
from gtt.jsonio import derivation_to_json, dumps
from gtt.maps import RawSyntaxMap
from gtt.rules import RawRule, congruence_rule, instantiate_rule
from gtt.syntax import TM, TY, Instantiation, MetaApp, Signature, Substitution, Symbol, SymApp
from gtt.syntax import substitute_expr, validate_expr
from gtt.theories import RuleInst, SubstInst, VariableInst, check_theory_derivation
from reference_checker import reference_check

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

TT = SIG.symbol_index("tt")
CTX1 = extend(EMPTY_CONTEXT, unit_at(EMPTY_CONTEXT))


def rejected(d, ambient=None, names=()):
    """The cause the checker reports at the root of ``d``, after asserting
    that the reference checker rejects ``d`` too."""
    with pytest.raises(KernelError):
        reference_check(THEORY, (), d, ambient, names)
    with pytest.raises(DerivationError) as caught:
        check_theory_derivation(THEORY, (), d, ambient, names)
    assert caught.value.path == ()
    return caught.value.cause


def raised(fn, *args):
    with pytest.raises(KernelError) as caught:
        fn(*args)
    return caught.value


def cli(capsys, tmp_path, data) -> tuple[int, str]:
    path = tmp_path / "d.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    code = main(["check-derivation", str(FIXTURES / "mltt_base.json"), str(path)])
    return code, capsys.readouterr().err


# --- syntax: validate_expr ------------------------------------------------------

def test_an_expression_in_another_scope_is_rejected():
    unit0 = unit_at(EMPTY_CONTEXT).type
    e = raised(validate_expr, SIG, unit0, 1, TY)
    assert type(e) is ScopeMismatch
    assert str(e) == f"expected scope 1, got 0 at {unit0!r}"
    # a syntax map validates each interpretation at scope 0
    one = Signature((Symbol("b", TY, ()),))
    e = raised(RawSyntaxMap, one, one, (SymApp(0, (), 1, TY),))
    assert type(e) is ScopeMismatch
    assert str(e) == f"expected scope 0, got 1 at {SymApp(0, (), 1, TY)!r}"


def test_a_symbol_node_of_the_wrong_class_is_rejected():
    # x : tt |- x : tt, with tt (a term symbol) forged into a type node
    forged = SymApp(TT, (), 1, TY)
    cause = rejected(VariableInst(RawContext(1, (forged,)), 0, ()))
    assert type(cause) is ClassMismatch
    assert str(cause) == "tt has class SyntacticClass.TM, node says SyntacticClass.TY"


def test_a_metavariable_node_of_the_wrong_class_is_rejected():
    # over the ambient arity (t : Tm), x : t |- x : t with t forged into a type
    forged = MetaApp(0, (), 1, TY)
    cause = rejected(VariableInst(RawContext(1, (forged,)), 0, ()), arity((TM, 0)), ("t",))
    assert type(cause) is ClassMismatch
    assert str(cause) == "metavariable 0 has class SyntacticClass.TM"


# --- syntax: the substitute_expr guard and the Instantiation record ------------

def test_substitution_into_an_expression_of_another_scope_is_rejected():
    e = raised(substitute_expr, KIND, Substitution.identity(1), unit_at(EMPTY_CONTEXT).type)
    assert type(e) is ScopeMismatch
    assert str(e) == "expression in scope 0, substitution into 1 under 0"
    e = raised(substitute_expr, KIND, Substitution.identity(1), unit_at(CTX1).type, 1)
    assert str(e) == "expression in scope 1, substitution into 1 under 1"


def test_an_instantiation_breaking_its_arity_is_rejected():
    unit0, tt0 = unit_at(EMPTY_CONTEXT).type, tt_at(EMPTY_CONTEXT).term
    cases = [
        (arity((TY, 0)), (), ArityMismatch, "0 entries for arity of length 1"),
        (arity((TY, 0)), (tt0,), ClassMismatch, "entry 0: expected SyntacticClass.TY, got SyntacticClass.TM"),
        (arity((TY, 0), (TY, 1)), (unit0, unit0), ScopeMismatch, "entry 1: expected scope 1, got 0"),
    ]
    for alpha, exprs, cls, message in cases:
        e = raised(Instantiation, alpha, 0, exprs)
        assert (type(e), str(e)) == (cls, message)


def test_a_term_for_a_type_metavariable_in_a_file_is_rejected(tmp_path, capsys):
    # the decoder builds each entry in its scope, so only the class can be wrong
    node = {
        "node": "rule", "name": "Pi-form", "cxt": [], "children": [],
        "inst": {"A": {"sym": "tt", "args": []}, "B": {"sym": "unit", "args": []}},
    }
    code, err = cli(capsys, tmp_path, node)
    assert code == 1
    assert err == "check failed: entry 0: expected SyntacticClass.TY, got SyntacticClass.TM\n"


# --- judgements: the slots of a judgement or boundary ---------------------------

def test_a_judgement_with_the_wrong_slots_is_rejected():
    unit0, unit1 = unit_at(EMPTY_CONTEXT).type, unit_at(CTX1).type
    tt0, tt1 = tt_at(EMPTY_CONTEXT).term, tt_at(CTX1).term
    cases = [
        (Judgement, (EMPTY_CONTEXT, JudgementForm.IS_TM, (), tt0), ClassMismatch, "IsTm takes 1 boundary slots, got 0"),
        (Boundary, (EMPTY_CONTEXT, JudgementForm.TY_EQ, (unit0,)), ClassMismatch, "TyEq takes 2 boundary slots, got 1"),
        (Judgement, (CTX1, JudgementForm.IS_TM, (unit0,), tt1), ScopeMismatch, "slot in scope 0, context scope 1"),
        (Boundary, (CTX1, JudgementForm.TY_EQ, (unit1, unit0)), ScopeMismatch, "slot in scope 0, context scope 1"),
    ]
    for record, args, cls, message in cases:
        e = raised(record, *args)
        assert (type(e), str(e)) == (cls, message)


# --- rules: the metavariables of a rule, the scope guards of its instances ------

def test_an_instantiation_over_another_scope_is_rejected():
    inst = Instantiation((), 1, ())
    cause = rejected(RuleInst(UNIT_FORM, inst, EMPTY_CONTEXT, ()))
    assert type(cause) is ScopeMismatch
    assert str(cause) == "instantiation scope differs from context scope"
    e = raised(instantiate_rule, KIND, inst, EMPTY_CONTEXT, THEORY.rule(UNIT_FORM))
    assert (type(e), str(e)) == (ScopeMismatch, "instantiation scope differs from context scope")



def test_a_rule_forging_its_metavariables_is_rejected():
    # instantiate_rule and congruence_rule trust each metavariable occurrence
    # of a rule; the rule checks them against its arity when it is built
    ar = arity((TY, 1), (TM, 0))
    inst = Instantiation(ar, 0, (unit_at(CTX1).type, tt_at(EMPTY_CONTEXT).term))
    forged = {
        MetaApp(2, (), 0, TY): (IndexOutOfRange, "metavariable 2 of 2"),
        MetaApp(0, (), 0, TY): (ArityMismatch, "metavariable 0 expects 1 arguments, got 0"),
        MetaApp(1, (), 0, TY): (ClassMismatch, "metavariable 1 has class SyntacticClass.TM"),
        MetaApp(0, (MetaApp(2, (), 0, TM),), 0, TY): (IndexOutOfRange, "metavariable 2 of 2"),
    }
    for head, expected in forged.items():
        conclusion = is_type(EMPTY_CONTEXT, head)
        with pytest.raises(KernelError) as caught:
            instantiate_rule(KIND, inst, EMPTY_CONTEXT, RawRule(ar, (), conclusion))
        assert (type(caught.value), str(caught.value)) == expected
        with pytest.raises(KernelError) as caught:
            congruence_rule(KIND, RawRule(ar, (conclusion,), conclusion))
        assert (type(caught.value), str(caught.value)) == expected

def test_a_substitution_between_other_contexts_is_rejected(tmp_path, capsys):
    # x : unit |- unit type, substituted along a table from scope 1 into the
    # empty context
    u1 = unit_at(CTX1)
    f = Substitution(1, 1, (tt_at(CTX1).term,))
    d = SubstInst(f, EMPTY_CONTEXT, frozenset(), is_type(CTX1, u1.type), (u1.d_type,))
    cause = rejected(d)
    assert type(cause) is ScopeMismatch
    assert str(cause) == "substitution endpoints do not match the contexts"
    code, err = cli(capsys, tmp_path, dumps(derivation_to_json(THEORY, SIG, d)))
    assert code == 1
    assert err == "check failed: at node []: substitution endpoints do not match the contexts\n"
