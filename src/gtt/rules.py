"""Raw rules, structural closure-rule constructors, and congruence rules.

A raw rule is a template: premises and conclusion live over the ambient
signature extended by the rule's arity, and every instantiation of that
arity over a context yields one closure rule on judgements.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from .errors import (
    ArityMismatch,
    ClassMismatch,
    IndexOutOfRange,
    NotObjectRule,
    ScopeMismatch,
    TrivialityViolated,
)
from .foundations import ClosureRule
from .scopes import ScopeKind, _record
from .syntax import (
    TM,
    TY,
    Argument,
    Arity,
    Expr,
    Instantiation,
    MetaApp,
    Signature,
    Substitution,
    SymApp,
    Var,
    exposed_metavariables,
    generic_instantiation,
    generic_meta,
    instantiate_expr,
    is_generic_occurrence,
    substitute_expr,
)
from .judgements import (
    EMPTY_CONTEXT,
    Judgement,
    JudgementForm,
    RawContext,
    WeakeningMemo,
    instantiate_context,
    instantiate_judgement,
    is_term,
    is_type,
    substitute_judgement,
    tm_eq,
    ty_eq,
)


def _slots(j: Judgement) -> tuple[Expr, ...]:
    return j.boundary if j.head is None else j.boundary + (j.head,)


def _exprs(j: Judgement) -> tuple[Expr, ...]:
    return j.context.types + _slots(j)


def _check_metas(arity: Arity, e: Expr) -> None:
    """Each metavariable occurrence in ``e`` names an argument of ``arity``, has
    its class and one argument per variable it binds, as instantiation assumes.
    A hand walk: the raw layer, at its line budget, has no ``subexpressions``."""
    if type(e) is MetaApp:
        m, n = e.idx, len(arity)
        if not 0 <= m < n:
            raise IndexOutOfRange(f"metavariable {m} of {n}")
        slot = arity[m]
        if e.cls is not slot.cls:
            raise ClassMismatch(f"metavariable {m} has class {slot.cls}")
        if len(e.args) != slot.binder:
            raise ArityMismatch(f"metavariable {m} expects {slot.binder} arguments, got {len(e.args)}")
    if type(e) is not Var:
        for a in e.args:
            _check_metas(arity, a)


@_record
class RawRule:
    """Premises and conclusion over the metavariable extension by ``arity``.

    ``meta_names`` name the metavariables, and take part in equality: they
    are the index set of the arity.  ``exposed`` holds the metavariables
    whose entry any instantiation of the rule puts into its conclusion
    verbatim (``exposed_metavariables`` of the conclusion's context types,
    boundary and head), and ``plan`` what ``RuleInstance`` reads of each
    premise.  Both are computed from the fields on first use and are not
    fields: they are not passed and not shown.  Building a rule checks
    each metavariable occurrence against ``arity``, since instantiation
    trusts them; the theory that holds the rule validates its symbols.
    """

    arity: Arity
    premises: tuple[Judgement, ...]
    conclusion: Judgement
    meta_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.meta_names and len(self.meta_names) != len(self.arity):
            raise ArityMismatch("metavariable name list does not match arity length")
        for j in self.premises + (self.conclusion,):
            for e in _exprs(j):
                _check_metas(self.arity, e)

    @cached_property
    def exposed(self) -> frozenset[int]:
        return frozenset().union(*(exposed_metavariables(self.arity, e) for e in _exprs(self.conclusion)))

    @cached_property
    def plan(self) -> tuple[tuple[JudgementForm, int, tuple[int | Expr, ...]], ...]:
        """Per premise: its form, the index of the first premise with the same
        context (its own when no earlier one has it), and, per slot
        (boundary, then head), the metavariable whose entry the slot is
        verbatim, at a generic occurrence, or else the slot's template."""
        contexts = [p.context for p in self.premises]
        return tuple((p.form, contexts.index(p.context), tuple(
            e.idx if type(e) is MetaApp and is_generic_occurrence(e, self.arity[e.idx].binder) else e
            for e in _slots(p))) for p in self.premises)

    @property
    def metas(self) -> tuple[str, ...]:
        """The names of the metavariables: ``meta_names``, or ``?i`` when it is empty."""
        return self.meta_names or tuple(f"?{i}" for i in range(len(self.arity)))

    @property
    def shape(self) -> tuple[Arity, tuple[Judgement, ...], Judgement]:
        """The rule without its names: what structural comparisons of rules compare."""
        return self.arity, self.premises, self.conclusion

    @property
    def is_object(self) -> bool:
        return self.conclusion.is_object

    def object_premises(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.premises) if p.is_object)


@_record
class RuleInstance:
    """The closure rule of a raw rule instance, as the checker reads it: the
    conclusion is built, and ``matches(i, got)``, true exactly when ``got ==
    premise(i)``, compares ``got``'s slots with the entries ``rule.plan``
    shows verbatim and instantiates only the other templates.  ``contexts``
    holds the premises' contexts, the node's own for an empty one."""

    kind: ScopeKind
    inst: Instantiation
    rule: RawRule
    contexts: tuple[RawContext, ...]
    conclusion: Judgement

    @property
    def premise_count(self) -> int:
        return len(self.contexts)

    def _expected(self, slots: tuple[int | Expr, ...]) -> tuple[Expr, ...]:
        exprs = self.inst.exprs
        return tuple([exprs[s] if type(s) is int else instantiate_expr(self.kind, self.inst, s) for s in slots])

    def premise(self, i: int) -> Judgement:
        form, _, slots = self.rule.plan[i]
        got, n = self._expected(slots), len(form.boundary_classes)
        return Judgement(self.contexts[i], form, got[:n], got[n] if form.is_object else None)

    def matches(self, i: int, got: Judgement) -> bool:
        form, _, slots = self.rule.plan[i]
        return type(got) is Judgement and got.form is form and got.context == self.contexts[i] and (
            _slots(got) == self._expected(slots))


def instantiate_rule(
    kind: ScopeKind, inst: Instantiation, ctx: RawContext, rule: RawRule, memo: WeakeningMemo | None = None
) -> RuleInstance:
    """The closure rule obtained by instantiating the rule's arity over ``ctx``.

    Each premise context extends ``ctx``; ``memo`` (``extend_context``)
    keeps the weakened types of ``ctx``.  Without one, a fresh memo is
    shared by the premise contexts and conclusion of this rule alone.
    """
    if inst.arity != rule.arity:
        raise ArityMismatch("instantiation arity differs from rule arity")
    if inst.scope != ctx.scope:
        raise ScopeMismatch("instantiation scope differs from context scope")
    if memo is None:
        memo = {}
    contexts: list[RawContext] = []  # a premise with the context of an earlier one shares its instance
    for i, (_, k, _) in enumerate(rule.plan):
        contexts.append(contexts[k] if k < i else instantiate_context(kind, inst, ctx, rule.premises[i].context, memo))
    conclusion = instantiate_judgement(kind, inst, ctx, rule.conclusion, memo)
    return RuleInstance(kind, inst, rule, tuple(contexts), conclusion)


def variable_rule(ctx: RawContext, i: int) -> ClosureRule:
    """Premise: the type of position i is a type; conclusion: the variable inhabits it."""
    a = ctx.type_at(i)
    return ClosureRule((is_type(ctx, a),), is_term(ctx, Var(i, ctx.scope), a))


def acts_trivially(kind: ScopeKind, f: Substitution, target: RawContext, source: RawContext, i: int) -> bool:
    """f : target -> source acts trivially at position i of the source context."""
    e = f(i)
    if not isinstance(e, Var):
        return False
    j = e.pos
    return target.type_at(j) == substitute_expr(kind, f, source.type_at(i))


def substitution_rule(
    kind: ScopeKind,
    f: Substitution,
    target: RawContext,
    trivial: frozenset[int],
    j: Judgement,
) -> ClosureRule:
    """The substitution closure rule for f : target -> j.context, checked on K."""
    source = j.context
    if f.src != target.scope or f.dst != source.scope:
        raise ScopeMismatch("substitution endpoints do not match the contexts")
    for i in sorted(trivial):
        if not acts_trivially(kind, f, target, source, i):
            raise TrivialityViolated(i)
    premises = [j]
    for i, (ty, fi) in enumerate(zip(source.types, f.table)):
        if i not in trivial:
            premises.append(is_term(target, fi, substitute_expr(kind, f, ty)))
    return ClosureRule(tuple(premises), substitute_judgement(kind, f, target, j))


def equality_substitution_rule(
    kind: ScopeKind,
    f: Substitution,
    g: Substitution,
    target: RawContext,
    trivial: frozenset[int],
    j: Judgement,
) -> ClosureRule:
    """The equality-substitution closure rule for an object judgement j.

    Premises: j itself, then for each unchecked position the f-typing,
    g-typing, and equality of the two images.  The conclusion equates the
    f- and g-images of j's head over the f-image of its boundary.
    """
    if not j.is_object:
        raise NotObjectRule("equality substitution applies to object judgements")
    source = j.context
    if any(h.src != target.scope or h.dst != source.scope for h in (f, g)):
        raise ScopeMismatch("substitution endpoints do not match the contexts")
    for i in sorted(trivial):
        if not (f(i) == g(i) and all(acts_trivially(kind, h, target, source, i) for h in (f, g))):
            raise TrivialityViolated(i)
    premises = [j]
    for i, (ty, fi, gi) in enumerate(zip(source.types, f.table, g.table)):
        if i not in trivial:
            f_ty, g_ty = substitute_expr(kind, f, ty), substitute_expr(kind, g, ty)
            premises += [is_term(target, fi, f_ty), is_term(target, gi, g_ty), tm_eq(target, fi, gi, f_ty)]
    fh, gh = substitute_expr(kind, f, j.head), substitute_expr(kind, g, j.head)
    if j.form is JudgementForm.IS_TY:
        return ClosureRule(tuple(premises), ty_eq(target, fh, gh))
    return ClosureRule(tuple(premises), tm_eq(target, fh, gh, substitute_expr(kind, f, j.boundary[0])))


# --- the eight built-in raw rules --------------------------------------------
#
# These use no symbols, so one tree serves every signature; scopes in them
# are all zero, so they are also independent of the scope kind.

def _meta(i: int, cls) -> MetaApp:
    return MetaApp(i, (), 0, cls)


def _mk_structural(names, args, premises, conclusion) -> RawRule:
    return RawRule(tuple(Argument(c, 0) for c in args), tuple(premises), conclusion, tuple(names))


def _equivalence_rules() -> tuple[RawRule, ...]:
    c = EMPTY_CONTEXT
    A, B, C_ = _meta(0, TY), _meta(1, TY), _meta(2, TY)
    ty_refl = _mk_structural(
        ("A",), (TY,),
        [is_type(c, A)],
        ty_eq(c, A, A),
    )
    ty_sym = _mk_structural(
        ("A", "B"), (TY, TY),
        [is_type(c, A), is_type(c, B), ty_eq(c, A, B)],
        ty_eq(c, B, A),
    )
    ty_trans = _mk_structural(
        ("A", "B", "C"), (TY, TY, TY),
        [is_type(c, A), is_type(c, B), is_type(c, C_), ty_eq(c, A, B), ty_eq(c, B, C_)],
        ty_eq(c, A, C_),
    )
    s1, t1, u1 = _meta(1, TM), _meta(2, TM), _meta(3, TM)
    tm_refl = _mk_structural(
        ("A", "s"), (TY, TM),
        [is_type(c, A), is_term(c, s1, A)],
        tm_eq(c, s1, s1, A),
    )
    tm_sym = _mk_structural(
        ("A", "s", "t"), (TY, TM, TM),
        [is_type(c, A), is_term(c, s1, A), is_term(c, t1, A), tm_eq(c, s1, t1, A)],
        tm_eq(c, t1, s1, A),
    )
    tm_trans = _mk_structural(
        ("A", "s", "t", "u"), (TY, TM, TM, TM),
        [
            is_type(c, A),
            is_term(c, s1, A),
            is_term(c, t1, A),
            is_term(c, u1, A),
            tm_eq(c, s1, t1, A),
            tm_eq(c, t1, u1, A),
        ],
        tm_eq(c, s1, u1, A),
    )
    return (ty_refl, ty_sym, ty_trans, tm_refl, tm_sym, tm_trans)


def _conversion_rules() -> tuple[RawRule, ...]:
    c = EMPTY_CONTEXT
    A, B = _meta(0, TY), _meta(1, TY)
    s, t = _meta(2, TM), _meta(3, TM)
    conv = _mk_structural(
        ("A", "B", "s"), (TY, TY, TM),
        [is_type(c, A), is_type(c, B), is_term(c, s, A), ty_eq(c, A, B)],
        is_term(c, s, B),
    )
    conv_eq = _mk_structural(
        ("A", "B", "s", "t"), (TY, TY, TM, TM),
        [
            is_type(c, A),
            is_type(c, B),
            is_term(c, s, A),
            is_term(c, t, A),
            tm_eq(c, s, t, A),
            ty_eq(c, A, B),
        ],
        tm_eq(c, s, t, B),
    )
    return (conv, conv_eq)


_RULES = _equivalence_rules() + _conversion_rules()


class BuiltinRule(Enum):
    """A built-in rule as a derivation node cites it: its wire family
    (``"equiv"`` or ``"conv"``), its wire name and the raw rule.  The eight
    members are the only built-in rules: no other can be made, and a copy
    or an unpickled member is the member itself."""

    EQUIV_TY_REFL = ("equiv", "ty-refl", _RULES[0])
    EQUIV_TY_SYM = ("equiv", "ty-sym", _RULES[1])
    EQUIV_TY_TRANS = ("equiv", "ty-trans", _RULES[2])
    EQUIV_TM_REFL = ("equiv", "tm-refl", _RULES[3])
    EQUIV_TM_SYM = ("equiv", "tm-sym", _RULES[4])
    EQUIV_TM_TRANS = ("equiv", "tm-trans", _RULES[5])
    CONV_TM = ("conv", "conv", _RULES[6])
    CONV_EQ = ("conv", "conv-eq", _RULES[7])

    def __init__(self, family: str, wire_name: str, rule: RawRule):
        self.family = family
        self.wire_name = wire_name
        self.rule = rule

    def __repr__(self) -> str:
        return f"BuiltinRule.{self.name}"


# --- congruence rules --------------------------------------------------------

def congruence_copies(rule: RawRule) -> tuple[Instantiation, Instantiation]:
    """The left and right copies of Sigma+alpha in Sigma+(alpha+alpha): the
    closed instantiations of alpha by the generic pattern of its own
    metavariables and of those shifted by n = len(alpha)."""
    return generic_instantiation(rule.arity), generic_instantiation(rule.arity, len(rule.arity))


def _doubled_names(rule: RawRule) -> tuple[str, ...]:
    names = rule.metas
    return tuple(f"{n}'" for n in names) + tuple(f"{n}''" for n in names)


def assoc_equality_judgement(
    kind: ScopeKind, left: Instantiation, right: Instantiation, j: Judgement
) -> Judgement:
    """The equality judgement associated to an object judgement: context and
    boundary through the left copy, the second head through the right copy."""
    if not j.is_object:
        raise NotObjectRule("associated equality exists only for object judgements")
    ctx = instantiate_context(kind, left, EMPTY_CONTEXT, j.context)
    lhead, rhead = instantiate_expr(kind, left, j.head), instantiate_expr(kind, right, j.head)
    if j.form is JudgementForm.IS_TY:
        return ty_eq(ctx, lhead, rhead)
    return tm_eq(ctx, lhead, rhead, instantiate_expr(kind, left, j.boundary[0]))


def congruence_rule(kind: ScopeKind, rule: RawRule) -> RawRule:
    """The congruence rule of an object rule: doubled arity, premises in the
    order left block, right block, equation block, and an equality conclusion."""
    if not rule.is_object:
        raise NotObjectRule("congruence rules exist only for object rules")
    left, right = congruence_copies(rule)
    premises = [instantiate_judgement(kind, left, EMPTY_CONTEXT, p) for p in rule.premises]
    premises += [instantiate_judgement(kind, right, EMPTY_CONTEXT, p) for p in rule.premises]
    premises += [
        assoc_equality_judgement(kind, left, right, rule.premises[k]) for k in rule.object_premises()
    ]
    return RawRule(
        rule.arity + rule.arity,
        tuple(premises),
        assoc_equality_judgement(kind, left, right, rule.conclusion),
        _doubled_names(rule),
    )


def generic_application(sig: Signature, sym: int) -> Expr:
    """S applied to the generic metavariable pattern M_i(x_0, ..)."""
    decl = sig.symbol(sym)
    return SymApp(sym, tuple(generic_meta(i, a) for i, a in enumerate(decl.arity)), 0, decl.cls)
