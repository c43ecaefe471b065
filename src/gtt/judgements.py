"""Raw flat contexts, the four judgement forms, boundaries, presuppositions.

Contexts are flat: a scope together with one type per position, each over
the whole scope, with no ordering assumed.  Sequentiality is layered on
top in the presentation module.

RawContext, Judgement and Boundary are tuple records (``scopes._record``),
like expressions: the checker builds them at every node and compares
them by equality, which is then tuple equality, in C and class-aware.
Their ``__post_init__`` runs on every construction, copies and unpickled
records included, so a context or judgement that breaks its invariants is
never built.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from .errors import (
    ClassMismatch,
    HeadForbidden,
    HeadRequired,
    IndexOutOfRange,
    ScopeMismatch,
)
from .scopes import Scope, ScopeKind, _record
from .syntax import (
    TM,
    TY,
    Expr,
    Instantiation,
    Signature,
    Substitution,
    SyntacticClass,
    _shift,
    instantiate_expr,
    substitute_expr,
    validate_expr,
)


@_record
class RawContext:
    scope: Scope
    types: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.types) != self.scope:
            raise ScopeMismatch(f"{len(self.types)} types for scope {self.scope}")
        for t in self.types:
            if t.cls is not TY:
                raise ClassMismatch("context entries must be types")
            if t.scope != self.scope:
                raise ScopeMismatch(f"context entry in scope {t.scope}, expected {self.scope}")

    def type_at(self, i: int) -> Expr:
        if not 0 <= i < self.scope:
            raise IndexOutOfRange(f"position {i} of scope {self.scope}")
        return self.types[i]

    def map_exprs(self, fn: Callable[[Expr], Expr]) -> "RawContext":
        """Apply a scope- and class-preserving map to every entry."""
        return RawContext(self.scope, tuple(map(fn, self.types)))


EMPTY_CONTEXT = RawContext(0, ())


class JudgementForm(Enum):
    """The four judgement forms.  Each member carries, as plain attributes,
    the classes of its boundary slots, the class of its head (None for an
    equation) and whether it is an object form."""

    IS_TY = "IsTy", (), TY
    IS_TM = "IsTm", (TY,), TM
    TY_EQ = "TyEq", (TY, TY), None
    TM_EQ = "TmEq", (TM, TM, TY), None

    __hash__ = object.__hash__  # as ScopeKind's

    def __new__(cls, value: str, boundary_classes: tuple[SyntacticClass, ...],
                head_class: SyntacticClass | None):
        member = object.__new__(cls)
        member._value_ = value
        member.boundary_classes = boundary_classes
        member.head_class = head_class
        member.is_object = head_class is not None
        return member


def _check_slots(self) -> None:
    """The ``__post_init__`` of Judgement and Boundary: each slot has its
    class and the context's scope, and a judgement has a head iff its form does."""
    ctx, form, boundary = self.context, self.form, self.boundary
    classes = form.boundary_classes
    if len(boundary) != len(classes):
        raise ClassMismatch(f"{form.value} takes {len(classes)} boundary slots, got {len(boundary)}")
    for e, c in zip(boundary, classes):
        if e.cls is not c:
            raise ClassMismatch(f"boundary slot of {form.value}: expected {c}, got {e.cls}")
        if e.scope != ctx.scope:
            raise ScopeMismatch(f"slot in scope {e.scope}, context scope {ctx.scope}")
    if type(self) is Judgement:
        head, hc = self.head, form.head_class
        if hc is None:
            if head is not None:
                raise HeadForbidden(f"{form.value} has no head slot")
        else:
            if head is None:
                raise HeadRequired(f"{form.value} requires a head")
            if head.cls is not hc:
                raise ClassMismatch(f"head of {form.value}: expected {hc}, got {head.cls}")
            if head.scope != ctx.scope:
                raise ScopeMismatch(f"head in scope {head.scope}, context scope {ctx.scope}")


@_record
class Judgement:
    context: RawContext
    form: JudgementForm
    boundary: tuple[Expr, ...]
    head: Expr | None
    __post_init__ = _check_slots

    @property
    def is_object(self) -> bool:
        return self.form.is_object

    def map_exprs(self, fn: Callable[[Expr], Expr]) -> "Judgement":
        """Apply a scope- and class-preserving map to every expression."""
        return Judgement(
            self.context.map_exprs(fn),
            self.form,
            tuple(map(fn, self.boundary)),
            None if self.head is None else fn(self.head),
        )


@_record
class Boundary:
    context: RawContext
    form: JudgementForm
    boundary: tuple[Expr, ...]
    __post_init__ = _check_slots


def is_type(ctx: RawContext, a: Expr) -> Judgement:
    return Judgement(ctx, JudgementForm.IS_TY, (), a)

def is_term(ctx: RawContext, t: Expr, a: Expr) -> Judgement:
    return Judgement(ctx, JudgementForm.IS_TM, (a,), t)

def ty_eq(ctx: RawContext, a: Expr, b: Expr) -> Judgement:
    return Judgement(ctx, JudgementForm.TY_EQ, (a, b), None)

def tm_eq(ctx: RawContext, s: Expr, t: Expr, a: Expr) -> Judgement:
    return Judgement(ctx, JudgementForm.TM_EQ, (s, t, a), None)


def validate_context(sig: Signature, ctx: RawContext) -> None:
    for t in ctx.types:
        validate_expr(sig, t, ctx.scope, TY)


def validate_judgement(sig: Signature, j: Judgement) -> None:
    validate_context(sig, j.context)
    for e, c in zip(j.boundary, j.form.boundary_classes):
        validate_expr(sig, e, j.context.scope, c)
    if j.head is not None:
        validate_expr(sig, j.head, j.context.scope, j.form.head_class)


# (kind, type, cut, delta) -> _shift(kind, type, cut, delta), one per owner
WeakeningMemo = dict[tuple[ScopeKind, Expr, int, Scope], Expr]


def extend_context(
    kind: ScopeKind, ctx: RawContext, new_types: tuple[Expr, ...], memo: WeakeningMemo | None = None
) -> RawContext:
    """Extend by delta-many types already scoped over the sum; old types are weakened.

    The old types are weakened along the left inclusion and form one block:
    the last ``ctx.scope`` positions for indices, the first for levels.
    ``memo`` keeps each weakened type under (kind, type, cut, delta), the
    four values ``_shift`` is a function of, compared by value: its owner
    weakens each distinct type once, in whatever contexts it occurs.  A call
    given none makes a fresh one.  The context is still built anew.
    """
    delta = len(new_types)
    if delta == 0:
        return ctx
    memo = {} if memo is None else memo
    cut = 0 if kind is ScopeKind.INDICES else ctx.scope
    old = []
    for t in ctx.types:
        w = memo.get(k := (kind, t, cut, delta))
        old.append(w if w is not None else memo.setdefault(k, _shift(*k)))
    types = tuple(new_types) + tuple(old) if kind is ScopeKind.INDICES else tuple(old) + tuple(new_types)
    return RawContext(ctx.scope + delta, types)


def instantiate_context(
    kind: ScopeKind, inst: Instantiation, ctx: RawContext, inner: RawContext, memo: WeakeningMemo | None = None
) -> RawContext:
    """Context extension of ``ctx`` by the instantiations of ``inner``'s types.

    An empty ``inner`` extends by nothing: ``ctx`` itself is returned.
    ``memo`` is passed on to ``extend_context``.
    """
    if inst.scope != ctx.scope:
        raise ScopeMismatch(f"instantiation over scope {inst.scope}, context scope {ctx.scope}")
    return extend_context(kind, ctx, tuple([instantiate_expr(kind, inst, t) for t in inner.types]), memo)


def instantiate_judgement(
    kind: ScopeKind, inst: Instantiation, ctx: RawContext, j: Judgement, memo: WeakeningMemo | None = None
) -> Judgement:
    """The judgement instantiation: context extension plus pointwise action on slots."""
    return Judgement(
        instantiate_context(kind, inst, ctx, j.context, memo),
        j.form,
        tuple([instantiate_expr(kind, inst, e) for e in j.boundary]),
        None if j.head is None else instantiate_expr(kind, inst, j.head),
    )


def substitute_judgement(kind: ScopeKind, f: Substitution, target: RawContext, j: Judgement) -> Judgement:
    """The judgement target |- f*J for f : target -> j.context."""
    if f.src != target.scope or f.dst != j.context.scope:
        raise ScopeMismatch("substitution endpoints do not match the contexts")
    return Judgement(
        target,
        j.form,
        tuple([substitute_expr(kind, f, e) for e in j.boundary]),
        None if j.head is None else substitute_expr(kind, f, j.head),
    )


def presuppositions(j: Judgement | Boundary) -> tuple[Judgement, ...]:
    """The judgements obtained by promoting boundary slots to heads; a
    boundary has the same ones, with no head needed."""
    ctx = j.context
    match j.form:
        case JudgementForm.IS_TY:
            return ()
        case JudgementForm.IS_TM:
            return (is_type(ctx, j.boundary[0]),)
        case JudgementForm.TY_EQ:
            a, b = j.boundary
            return (is_type(ctx, a), is_type(ctx, b))
        case JudgementForm.TM_EQ:
            s, t, a = j.boundary
            return (is_type(ctx, a), is_term(ctx, s, a), is_term(ctx, t, a))
    raise TypeError(j.form)
