"""A reference checker for derivations of a raw type theory.

Written from the definition of the closure system associated to a raw
type theory, with no shortcuts: every node validates all of its data (its
context, every instantiation entry, every substitution table and the
judgement it substitutes into) before it computes the closure rule it
cites, and it computes that rule with the textbook operations of
``naive``.  It shares the kernel's data types and ``validate_expr``, the
definition of a well-formed expression, and nothing of its checking loop.

``reference_check`` returns the conclusion or raises ``KernelError``; the
kernel's ``check_theory_derivation`` must agree with it on every tree.
"""

from __future__ import annotations

from naive import naive_instantiate, naive_rename, naive_substitute
from gtt.errors import (
    ArityMismatch,
    ChildCountMismatch,
    IndexOutOfRange,
    KernelError,
    NotObjectRule,
    PremiseMismatch,
    ScopeMismatch,
    TrivialityViolated,
)
from gtt.judgements import Judgement, JudgementForm, RawContext, is_term, is_type, tm_eq, ty_eq
from gtt.rules import BuiltinRule, _conversion_rules, _equivalence_rules
from gtt.scopes import inl_renaming
from gtt.syntax import TM, TY, Var, validate_expr
from gtt.theories import (
    EqSubstInst,
    Hyp,
    RuleInst,
    SubstInst,
    VariableInst,
    ambient_signature,
)


# The eight built-in rules by wire family and name, built afresh here rather
# than read off the ref a node carries.
BUILTIN_BY_WIRE_NAME = dict(
    zip(
        [("equiv", n) for n in ("ty-refl", "ty-sym", "ty-trans", "tm-refl", "tm-sym", "tm-trans")]
        + [("conv", "conv"), ("conv", "conv-eq")],
        _equivalence_rules() + _conversion_rules(),
    )
)


def reference_check(theory, hyps, d, ambient=None, ambient_names=()) -> Judgement:
    """The conclusion of ``d`` over ``theory`` and ``hyps``, or KernelError."""
    sig = ambient_signature(theory, ambient, ambient_names)

    def go(node, path):
        if isinstance(node, Hyp):
            if not 0 <= node.index < len(hyps):
                raise IndexOutOfRange(f"hypothesis {node.index} of {len(hyps)}")
            return hyps[node.index]
        premises, conclusion = closure_rule(theory, sig, node)
        if len(node.children) != len(premises):
            raise ChildCountMismatch(f"{len(premises)} premises, {len(node.children)} children")
        for i, (child, premise) in enumerate(zip(node.children, premises)):
            got = go(child, path + (i,))
            if got != premise:
                raise PremiseMismatch(path + (i,), premise, got)
        return conclusion

    return go(d, ())


def closure_rule(theory, sig, node) -> tuple[tuple[Judgement, ...], Judgement]:
    kind = sig.kind
    match node:
        case RuleInst(ref=BuiltinRule(family=family, wire_name=name), inst=inst, context=ctx):
            return rule_instance(sig, BUILTIN_BY_WIRE_NAME[family, name], inst, ctx)
        case RuleInst(ref=r, inst=inst, context=ctx):
            if not (isinstance(r, int) and 0 <= r < len(theory.rules)):
                raise IndexOutOfRange(f"rule {r!r} of {len(theory.rules)}")
            return rule_instance(sig, theory.rules[r], inst, ctx)
        case VariableInst(context=ctx, pos=i):
            validate_context(sig, ctx)
            if not 0 <= i < ctx.scope:
                raise IndexOutOfRange(f"variable {i} of scope {ctx.scope}")
            a = ctx.types[i]
            return (is_type(ctx, a),), is_term(ctx, Var(i, ctx.scope), a)
        case SubstInst(subst=f, context=ctx, trivial=K, judgement=j):
            validate_substitution_data(sig, (f,), ctx, K, j)
            premises = [j]
            for i in range(j.context.scope):
                f_ty = naive_substitute(kind, f, j.context.types[i])
                if i in K:
                    check_trivial(ctx, f(i), f_ty, i)
                else:
                    premises.append(is_term(ctx, f(i), f_ty))
            head = None if j.head is None else naive_substitute(kind, f, j.head)
            boundary = tuple(naive_substitute(kind, f, e) for e in j.boundary)
            return tuple(premises), Judgement(ctx, j.form, boundary, head)
        case EqSubstInst(left=f, right=g, context=ctx, trivial=K, judgement=j):
            validate_substitution_data(sig, (f, g), ctx, K, j)
            if not j.is_object:
                raise NotObjectRule("equality substitution applies to object judgements")
            premises = [j]
            for i in range(j.context.scope):
                f_ty = naive_substitute(kind, f, j.context.types[i])
                g_ty = naive_substitute(kind, g, j.context.types[i])
                if i in K:
                    check_trivial(ctx, f(i), f_ty, i)
                    check_trivial(ctx, g(i), g_ty, i)
                    if f(i) != g(i):
                        raise TrivialityViolated(i)
                else:
                    premises += [is_term(ctx, f(i), f_ty), is_term(ctx, g(i), g_ty), tm_eq(ctx, f(i), g(i), f_ty)]
            f_head, g_head = naive_substitute(kind, f, j.head), naive_substitute(kind, g, j.head)
            if j.form is JudgementForm.IS_TY:
                return tuple(premises), ty_eq(ctx, f_head, g_head)
            return tuple(premises), tm_eq(ctx, f_head, g_head, naive_substitute(kind, f, j.boundary[0]))
    raise KernelError(f"not a derivation node: {node!r}")


def rule_instance(sig, rule, inst, ctx):
    """Premises and conclusion of a raw rule instantiated by ``inst`` over ``ctx``."""
    validate_context(sig, ctx)
    for e, slot in zip(inst.exprs, inst.arity):
        validate_expr(sig, e, inst.scope + slot.binder, slot.cls)
    if inst.arity != rule.arity:
        raise ArityMismatch("instantiation arity differs from rule arity")
    if inst.scope != ctx.scope:
        raise ScopeMismatch("instantiation scope differs from context scope")
    premises = tuple(instantiate_judgement(sig.kind, inst, ctx, p) for p in rule.premises)
    return premises, instantiate_judgement(sig.kind, inst, ctx, rule.conclusion)


def instantiate_judgement(kind, inst, ctx, j) -> Judgement:
    """ctx extended by the instantiated rule context, with the slots instantiated."""
    gamma, delta = ctx.scope, j.context.scope
    inl = inl_renaming(kind, gamma, delta)
    types = [None] * (gamma + delta)
    for i in range(gamma):
        types[kind.inl(gamma, delta, i)] = naive_rename(kind, inl, ctx.types[i])
    for k in range(delta):
        types[kind.inr(gamma, delta, k)] = naive_instantiate(kind, inst, j.context.types[k])
    boundary = tuple(naive_instantiate(kind, inst, e) for e in j.boundary)
    head = None if j.head is None else naive_instantiate(kind, inst, j.head)
    return Judgement(RawContext(gamma + delta, tuple(types)), j.form, boundary, head)


def validate_context(sig, ctx) -> None:
    for t in ctx.types:
        validate_expr(sig, t, ctx.scope, TY)


def validate_substitution_data(sig, tables, ctx, trivial, j) -> None:
    validate_context(sig, ctx)
    validate_context(sig, j.context)
    for e, cls in zip(j.boundary, j.form.boundary_classes):
        validate_expr(sig, e, j.context.scope, cls)
    if j.head is not None:
        validate_expr(sig, j.head, j.context.scope, j.form.head_class)
    for f in tables:
        if f.src != ctx.scope or f.dst != j.context.scope:
            raise ScopeMismatch("substitution endpoints do not match the contexts")
        for e in f.table:
            validate_expr(sig, e, f.src, TM)
    for i in trivial:
        if not 0 <= i < j.context.scope:
            raise IndexOutOfRange(f"trivial position {i} of scope {j.context.scope}")


def check_trivial(target, e, ty, i) -> None:
    """A trivial position is sent to a variable whose type is the substituted type."""
    if not isinstance(e, Var) or target.types[e.pos] != ty:
        raise TrivialityViolated(i)
