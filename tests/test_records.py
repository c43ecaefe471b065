"""``scopes._record``, the one way a kernel value is defined.

The mechanism on classes made here (defaults, ``_replace``,
constructor-only parameters, ``cached_property``, no base class), the copy and
pickle round trips of every record class of the package, and the reprs of
the kernel values, pinned to the strings they printed as frozen
dataclasses.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

import gtt
from corpus import (
    APP_ARITY,
    SIG,
    THEORY,
    app,
    equality_substitutions_under_binders,
    extend,
    lam,
    pi,
    tt_at,
    unit_at,
)
from genexpr import identity_theory_map
from gtt.bundled import mltt_pi, mltt_pi_presented, order
from gtt.errors import ArityMismatch, IndexOutOfRange, ScopeMismatch
from gtt.foundations import ClosureRule
from gtt.judgements import EMPTY_CONTEXT, RawContext, is_type
from gtt.maps import EquationStep, SymbolStep
from gtt.metatheory import check_acceptable_theory, check_well_founded_theory
from gtt.rules import BuiltinRule, RawRule
from gtt.scopes import Renaming, ScopeKind, _record, inl_renaming
from gtt.syntax import (
    TM,
    TY,
    Argument,
    Instantiation,
    MetaApp,
    Signature,
    Substitution,
    Symbol,
    SymApp,
    Var,
)
from gtt.theories import (
    EqSubstInst,
    Hyp,
    RawTypeTheory,
    RuleInst,
    SubstInst,
    VariableInst,
    closure_rule_of_node,
)


# --- the mechanism ------------------------------------------------------------------

def test_defaults_fill_trailing_fields():
    @_record
    class Point:
        x: int
        y: int = 0
        label: str = "p"

    assert Point(1) == Point(1, 0, "p")
    assert Point(1, label="q") == Point(1, 0, "q")
    assert repr(Point(1)) == f"{Point.__qualname__}(x=1, y=0, label='p')"
    sig = Signature(())
    assert (sig.kind, sig.mv_arity, sig.mv_names) == (ScopeKind.INDICES, None, ())


@pytest.mark.parametrize("default", [{}, [], set()], ids=["dict", "list", "set"])
def test_a_mutable_default_is_refused_when_the_class_is_made(default):
    with pytest.raises(TypeError, match="mutable default"):
        @_record
        class Table:
            entries: object = default


def test_a_field_without_a_default_after_one_with_a_default_is_refused():
    with pytest.raises(TypeError, match=r"Late\.y: non-default field follows a default"):
        @_record
        class Late:
            x: int = 0
            y: int

    with pytest.raises(TypeError, match=r"Checked\.limit: non-default field follows a default"):
        @_record
        class Checked:
            x: int = 0

            def __post_init__(self, limit):
                pass


def test_replace_runs_post_init_again():
    r = Renaming(2, 3, (0, 1))
    assert r._replace(table=(2, 2)) == Renaming(2, 3, (2, 2))
    assert r._replace() == r
    with pytest.raises(ScopeMismatch, match="table of length 1 for scope 2"):
        r._replace(table=(0,))
    with pytest.raises(IndexOutOfRange, match="image 3 outside scope 3"):
        r._replace(table=(0, 3))
    f = Substitution(1, 1, (Var(0, 1),))
    with pytest.raises(ScopeMismatch):
        f._replace(src=2)
    with pytest.raises(TypeError, match="no constructor field"):
        r._replace(scope=1)


def test_exposed_is_computed_not_passed():
    rule = THEORY.rule(THEORY.rule_index("app-elim"))
    assert rule.exposed == RawRule(rule.arity, rule.premises, rule.conclusion, rule.meta_names).exposed
    assert "exposed" not in repr(rule) and "exposed" not in RawRule.__match_args__
    with pytest.raises(TypeError):
        RawRule(rule.arity, rule.premises, rule.conclusion, rule.meta_names, rule.exposed)
    with pytest.raises(TypeError, match="no constructor field"):
        rule._replace(exposed=frozenset())
    # a replaced conclusion recomputes it
    unit = SymApp(0, (), 0, TY)
    assert rule._replace(conclusion=is_type(EMPTY_CONTEXT, unit)).exposed == frozenset()
    assert pickle.loads(pickle.dumps(RawRule(rule.arity, rule.premises, rule.conclusion))).exposed == rule.exposed


def test_post_init_parameters_are_constructor_arguments_not_fields():
    theory, _ = mltt_pi()
    head = RawTypeTheory(theory.signature, theory.rules[:2], theory.rule_names[:2])
    whole = RawTypeTheory(theory.signature, theory.rules, theory.rule_names, head)
    assert whole == RawTypeTheory(theory.signature, theory.rules, theory.rule_names)
    assert RawTypeTheory.__match_args__ == ("signature", "rules", "rule_names")
    assert len(whole) == 4  # the class and three fields
    with pytest.raises(ArityMismatch):
        RawTypeTheory(theory.signature, theory.rules[1:], theory.rule_names[1:], prefix=head)


def test_a_class_with_a_base_is_refused():
    class Base:
        pass

    with pytest.raises(TypeError, match=r"Leaf: a record has no base class"):
        @_record
        class Leaf(Base):
            index: int

    # one hypothesis leaf for generic and typed derivations
    assert Hyp is gtt.foundations.Hyp
    assert Hyp.__mro__ == (Hyp, tuple, object) and Hyp.__match_args__ == ("index",)


def test_names_take_part_in_equality():
    sig = Signature((), ScopeKind.INDICES, (Argument(TM, 0),), ("x",))
    assert sig != sig._replace(mv_names=("y",))
    assert sig != sig._replace(mv_names=())
    rule = THEORY.rule(0)
    assert rule != rule._replace(meta_names=tuple(n + "'" for n in rule.metas))
    # structural comparisons of rules go through ``shape``, which leaves them out
    assert rule.shape == rule._replace(meta_names=()).shape
    assert THEORY != THEORY._replace(rule_names=tuple(n + "'" for n in THEORY.rule_names))


def test_metas_default_to_positions():
    rule = THEORY.rule(THEORY.rule_index("app-elim"))
    assert rule.metas == rule.meta_names
    assert rule._replace(meta_names=()).metas == tuple(f"?{i}" for i in range(len(rule.arity)))
    ext = Signature((), ScopeKind.INDICES, APP_ARITY)
    assert [ext.mv_index(f"?{i}") for i in range(len(APP_ARITY))] == list(range(len(APP_ARITY)))
    with pytest.raises(IndexOutOfRange, match="no metavariable named 'A'"):
        ext.mv_index("A")


# --- every record class of the package -------------------------------------------------

def record_classes() -> set[type]:
    out = set()
    for info in pkgutil.iter_modules(gtt.__path__):
        module = importlib.import_module(f"gtt.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and "_replace" in vars(obj):
                out.add(obj)
    return out


def records_in(value, out: dict):
    """Collect one record of each class reachable from ``value``."""
    if isinstance(value, tuple) and "_replace" in vars(type(value)):
        out.setdefault(type(value), value)
        items = value[1:]
    elif isinstance(value, (tuple, list, set, frozenset)):
        items = value
    elif isinstance(value, dict):
        items = list(value.items())
    else:
        return
    for item in items:
        records_in(item, out)


def samples() -> dict:
    theory, witnesses = mltt_pi()
    spec = mltt_pi_presented()
    u = unit_at(EMPTY_CONTEXT)
    x_unit = extend(EMPTY_CONTEXT, u)
    b = unit_at(x_unit)
    typed_app = app(u, b, lam(u, b, tt_at(x_unit)), tt_at(EMPTY_CONTEXT))
    boundary = spec.rules[0].boundary
    roots = [
        theory, witnesses, spec, order("type_in_type"),
        typed_app.d_term, equality_substitutions_under_binders(), pi(u, b).d_type,
        closure_rule_of_node(THEORY, SIG, typed_app.d_term), ClosureRule((), "a"),
        inl_renaming(ScopeKind.INDICES, 1, 2),
        check_acceptable_theory(theory, witnesses), check_well_founded_theory(theory),
        identity_theory_map(theory),
        boundary.conclusion_boundary(),
        SymbolStep("U", boundary, u.type, u.d_type),
        EquationStep("U-unfold", theory.rule(0), Hyp(0)),
    ]
    out: dict = {}
    records_in(roots, out)
    return out


def test_samples_cover_every_record_class():
    assert set(samples()) == record_classes()


def test_every_record_survives_copy_deepcopy_and_pickle():
    for cls, r in samples().items():
        for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(twin) is cls
            assert twin == r, cls.__name__


# --- reprs ---------------------------------------------------------------------------

def repr_samples():
    unit = SymApp(0, (), 0, TY)
    unit1 = SymApp(0, (), 1, TY)
    ctx1 = RawContext(1, (unit1,))
    unit_form = RawRule((), (), is_type(EMPTY_CONTEXT, unit))
    a = MetaApp(0, (), 0, TY)
    named = RawRule((Argument(TY, 0),), (is_type(EMPTY_CONTEXT, a),), is_type(EMPTY_CONTEXT, a), ("A",))
    weaken = Substitution(1, 0, ())
    return [
        Substitution(1, 2, (Var(0, 1), Var(0, 1))),
        Instantiation((Argument(TY, 0),), 0, (unit,)),
        Signature((Symbol("unit", TY, ()),)),
        Signature((Symbol("unit", TY, ()),), ScopeKind.LEVELS, (Argument(TM, 1),), ("x",)),
        unit_form,
        named,
        RawTypeTheory(Signature((Symbol("unit", TY, ()),)), (unit_form,), ("unit-form",)),
        Hyp(1),
        VariableInst(ctx1, 0, (Hyp(0),)),
        RuleInst(0, Instantiation((), 0, ()), EMPTY_CONTEXT, ()),
        RuleInst(BuiltinRule.EQUIV_TY_REFL, Instantiation((Argument(TY, 0),), 0, (unit,)), EMPTY_CONTEXT, (Hyp(0),)),
        SubstInst(weaken, ctx1, frozenset(), is_type(EMPTY_CONTEXT, unit), (Hyp(0),)),
        EqSubstInst(weaken, weaken, ctx1, frozenset({0}), is_type(EMPTY_CONTEXT, unit), (Hyp(0), Hyp(1))),
    ]


TY_ = "<SyntacticClass.TY: 'Ty'>"
UNIT0 = f"SymApp(sym=0, args=(), scope=0, cls={TY_})"
UNIT1 = f"SymApp(sym=0, args=(), scope=1, cls={TY_})"
EMPTY = "RawContext(scope=0, types=())"
CTX1 = f"RawContext(scope=1, types=({UNIT1},))"
IS_TY = "<JudgementForm.IS_TY: 'IsTy'>"
UNIT_TYPE = f"Judgement(context={EMPTY}, form={IS_TY}, boundary=(), head={UNIT0})"
A = f"MetaApp(idx=0, args=(), scope=0, cls={TY_})"
A_TYPE = f"Judgement(context={EMPTY}, form={IS_TY}, boundary=(), head={A})"
UNIT_SYMBOL = f"Symbol(name='unit', cls={TY_}, arity=())"
INDICES = "<ScopeKind.INDICES: 'debruijn-indices'>"
UNIT_FORM = f"RawRule(arity=(), premises=(), conclusion={UNIT_TYPE}, meta_names=())"
ARG_TY = f"Argument(cls={TY_}, binder=0)"
WEAKEN = "Substitution(src=1, dst=0, table=())"


def test_kernel_value_reprs():
    # the strings the frozen dataclasses printed
    assert list(map(repr, repr_samples())) == [
        "Substitution(src=1, dst=2, table=(Var(pos=0, scope=1), Var(pos=0, scope=1)))",
        f"Instantiation(arity=({ARG_TY},), scope=0, exprs=({UNIT0},))",
        f"Signature(symbols=({UNIT_SYMBOL},), kind={INDICES}, mv_arity=None, mv_names=())",
        f"Signature(symbols=({UNIT_SYMBOL},), kind=<ScopeKind.LEVELS: 'debruijn-levels'>, "
        "mv_arity=(Argument(cls=<SyntacticClass.TM: 'Tm'>, binder=1),), mv_names=('x',))",
        UNIT_FORM,
        f"RawRule(arity=({ARG_TY},), premises=({A_TYPE},), conclusion={A_TYPE}, meta_names=('A',))",
        f"RawTypeTheory(signature=Signature(symbols=({UNIT_SYMBOL},), kind={INDICES}, mv_arity=None, "
        f"mv_names=()), rules=({UNIT_FORM},), rule_names=('unit-form',))",
        "Hyp(index=1)",
        f"VariableInst(context={CTX1}, pos=0, children=(Hyp(index=0),))",
        f"RuleInst(ref=0, inst=Instantiation(arity=(), scope=0, exprs=()), context={EMPTY}, children=())",
        f"RuleInst(ref=BuiltinRule.EQUIV_TY_REFL, inst=Instantiation(arity=({ARG_TY},), scope=0, "
        f"exprs=({UNIT0},)), context={EMPTY}, children=(Hyp(index=0),))",
        f"SubstInst(subst={WEAKEN}, context={CTX1}, trivial=frozenset(), judgement={UNIT_TYPE}, "
        "children=(Hyp(index=0),))",
        f"EqSubstInst(left={WEAKEN}, right={WEAKEN}, context={CTX1}, trivial=frozenset({{0}}), "
        f"judgement={UNIT_TYPE}, children=(Hyp(index=0), Hyp(index=1)))",
    ]
