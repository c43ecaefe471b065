"""Tightness of rules and theories, and the natural types read off the symbol rules."""

from __future__ import annotations

from .errors import ClassMismatch, NoBijection, NotTight
from .judgements import RawContext
from .rules import RawRule, generic_application
from .syntax import TM, Expr, Instantiation, MetaApp, Signature, SymApp, Var, generic_meta, instantiate_expr
from .theories import RawTypeTheory


def check_tight(rule: RawRule) -> tuple[int, ...]:
    """Find the unique bijection arguments <-> object premises, or raise: for
    each argument of the rule's arity, the object premise that introduces it.

    Argument i is introduced by the first object premise whose head is the
    metavariable applied to exactly the variables of its binder.  A
    judgement's head has its form's class and its context's scope, so that
    premise has the argument's form and scope; distinct arguments have
    distinct heads, so no premise introduces two.
    """
    object_premises = rule.object_premises()
    if len(object_premises) != len(rule.arity):
        raise NoBijection(
            f"{len(rule.arity)} arguments but {len(object_premises)} object premises"
        )
    assignment = []
    for i, arg in enumerate(rule.arity):
        head = generic_meta(i, arg)
        found = next((p for p in object_premises if rule.premises[p].head == head), None)
        if found is None:
            raise NoBijection(f"no introducing premise for argument {i}")
        assignment.append(found)
    return tuple(assignment)


def is_tight(rule: RawRule) -> bool:
    try:
        check_tight(rule)
        return True
    except NoBijection:
        return False


def is_symbol_rule(sig: Signature, rule: RawRule, sym: int) -> bool:
    """The rule has the symbol's arity and concludes its generic application;
    that head fixes the conclusion's form and its empty context."""
    return rule.arity == sig.symbol(sym).arity and rule.conclusion.head == generic_application(sig, sym)


def theory_tightness(theory: RawTypeTheory) -> dict[int, int]:
    """The bijection symbol -> rule index witnessing theory tightness, found once per theory object."""
    if "tightness" in theory.memo:
        return dict(theory.memo["tightness"])
    for i, rule in enumerate(theory.rules):
        if not is_tight(rule):
            raise NotTight(f"rule {theory.rule_name(i)} is not tight")
    object_rules = [i for i, r in enumerate(theory.rules) if r.is_object]
    beta: dict[int, int] = {}
    for i in object_rules:
        head = theory.rules[i].conclusion.head
        if not isinstance(head, SymApp):
            raise NotTight(f"object rule {theory.rule_name(i)} does not conclude a symbol application")
        sym = head.sym
        if not is_symbol_rule(theory.signature, theory.rules[i], sym):
            raise NotTight(f"rule {theory.rule_name(i)} is not a symbol rule")
        if sym in beta:
            raise NotTight(
                f"symbol {theory.signature.symbol(sym).name} has two rules: "
                f"{theory.rule_name(beta[sym])} and {theory.rule_name(i)}"
            )
        beta[sym] = i
    missing = set(range(theory.signature.base_count)) - set(beta)
    if missing:
        names = ", ".join(theory.signature.symbol(s).name for s in sorted(missing))
        raise NotTight(f"symbols without rules: {names}")
    theory.memo["tightness"] = tuple(beta.items())
    return beta


def natural_type(theory: RawTypeTheory, ctx: RawContext, t: Expr) -> Expr:
    """The type read off the symbol rules: a variable gets its context type,
    a symbol application the instantiated conclusion type of its rule.
    Natural types are defined for terms only."""
    if t.cls is not TM:
        raise ClassMismatch(f"natural types are defined for terms only, not for a {t.cls.value} expression")
    kind = theory.kind
    match t:
        case Var(pos=i):
            return ctx.type_at(i)
        case SymApp(sym=s, args=args, scope=scope):
            beta = theory_tightness(theory)
            rule = theory.rule(beta[s])
            inst = Instantiation(theory.signature.symbol(s).arity, scope, args)
            return instantiate_expr(kind, inst, rule.conclusion.boundary[0])
        case MetaApp():
            raise NotTight("natural types are undefined at metavariable applications")
    raise TypeError(f"not a term: {t!r}")
