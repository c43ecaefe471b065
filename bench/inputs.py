"""Seeded benchmark inputs over the bundled base MLTT theory.

Everything here is built from the public API (``gtt.bundled``,
``gtt.derive``, ``gtt.syntax``, ``gtt.judgements``) and never from the test
corpus, so that editing a test cannot change what the benchmark measures.
Each item carries the judgement it must check to.  That judgement is
assembled here from the expressions themselves (symbol applications,
weakening by renaming, single substitution), never by asking the checker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gtt import derive
from gtt.bundled import mltt_base
from gtt.judgements import (
    EMPTY_CONTEXT,
    Judgement,
    RawContext,
    extend_context,
    is_term,
    is_type,
    tm_eq,
    ty_eq,
)
from gtt.syntax import Instantiation, Substitution, Var, mk_sym, substitute_expr, weaken_expr

# Transformer operations an item may be sent through, besides ``check``.
PRESUP, ELIM, INVERT, UNIQUE = "presup", "elim-subst", "invert", "unique-typing"


@dataclass(frozen=True)
class Ty:
    """A type over ``ctx`` with a derivation of ``ctx |- expr type``."""

    ctx: RawContext
    expr: object
    d: object


@dataclass(frozen=True)
class Tm:
    """A term over ``ctx`` of type ``ty`` with a derivation of the typing."""

    ctx: RawContext
    expr: object
    ty: Ty
    d: object


@dataclass(frozen=True)
class Item:
    """One benchmark input: a derivation, its expected conclusion, and the
    transformers it goes through.  ``n`` is the family's size parameter
    (depth, chain length, or for shallow shapes the node count).
    ``second`` is a conv-wrapped second typing of the same term, the
    partner for unique-typing."""

    family: str
    n: int
    d: object
    expected: Judgement
    ops: tuple[str, ...]
    second: object = None


class Kit:
    """Typed builders over ``mltt_base``; the theory comes from ``gtt.bundled``."""

    def __init__(self):
        self.theory, self.witnesses = mltt_base()
        self.sig = self.theory.signature
        self.kind = self.theory.kind
        r = self.theory.rule_index
        self.pi_form, self.lam_intro, self.app_elim = r("Pi-form"), r("lam-intro"), r("app-elim")
        self.beta_rule, self.unit_form, self.tt_intro = r("beta"), r("unit-form"), r("tt-intro")
        arity_of = lambda name: self.sig.symbol(self.sig.symbol_index(name)).arity
        self.pi_arity, self.lam_arity, self.app_arity = arity_of("Pi"), arity_of("lam"), arity_of("app")
        self.beta_arity = self.theory.rule(self.beta_rule).arity

    # --- types and terms ----------------------------------------------------

    def unit(self, ctx: RawContext) -> Ty:
        return Ty(ctx, mk_sym(self.sig, "unit", (), ctx.scope),
                  derive.rule(self.unit_form, Instantiation((), ctx.scope, ()), ctx, ()))

    def tt(self, ctx: RawContext) -> Tm:
        return Tm(ctx, mk_sym(self.sig, "tt", (), ctx.scope), self.unit(ctx),
                  derive.rule(self.tt_intro, Instantiation((), ctx.scope, ()), ctx, ()))

    def extend(self, ctx: RawContext, a: Ty) -> RawContext:
        return extend_context(self.kind, ctx, (weaken_expr(self.kind, a.expr, 1),))

    def pi(self, a: Ty, b: Ty) -> Ty:
        """Pi(a, b) over a.ctx; ``b`` lives over a.ctx extended by a."""
        ctx = a.ctx
        inst = Instantiation(self.pi_arity, ctx.scope, (a.expr, b.expr))
        return Ty(ctx, mk_sym(self.sig, "Pi", (a.expr, b.expr), ctx.scope),
                  derive.rule(self.pi_form, inst, ctx, (a.d, b.d)))

    def entry(self, ctx: RawContext, pi: bool) -> Ty:
        """A context entry type: ``Pi(unit, unit)`` if ``pi``, else ``unit``."""
        u = self.unit(ctx)
        return self.pi(u, self.unit(self.extend(ctx, u))) if pi else u

    def context(self, length: int, rng: random.Random) -> RawContext:
        ctx = EMPTY_CONTEXT
        for _ in range(length):
            ctx = self.extend(ctx, self.entry(ctx, rng.random() < 0.5))
        return ctx

    def type_in(self, ctx: RawContext, e) -> Ty:
        """Derive a unit/Pi type expression over ``ctx`` in place."""
        name = self.sig.symbol(e.sym).name
        if name == "unit":
            return self.unit(ctx)
        if name != "Pi":
            raise ValueError(f"not a unit/Pi type: {name}")
        a = self.type_in(ctx, e.args[0])
        return self.pi(a, self.type_in(self.extend(ctx, a), e.args[1]))

    def var(self, ctx: RawContext, i: int) -> Tm:
        ty = self.type_in(ctx, ctx.type_at(i))
        return Tm(ctx, Var(i, ctx.scope), ty, derive.var(ctx, i, ty.d))

    def newest(self, ctx: RawContext) -> int:
        """Position of the variable bound last in ``ctx`` (scope >= 1)."""
        return self.kind.inr(ctx.scope - 1, 1, 0)

    def lam(self, a: Ty, body: Tm) -> Tm:
        """lam(a, B, body) with B the type of ``body``, over a.ctx extended by a."""
        ctx, b = a.ctx, body.ty
        e = mk_sym(self.sig, "lam", (a.expr, b.expr, body.expr), ctx.scope)
        inst = Instantiation(self.lam_arity, ctx.scope, (a.expr, b.expr, body.expr))
        return Tm(ctx, e, self.pi(a, b), derive.rule(self.lam_intro, inst, ctx, (a.d, b.d, body.d)))

    def single(self, ctx: RawContext, t) -> Substitution:
        """The substitution over ``ctx`` sending the newest variable of ctx.A to ``t``."""
        n = ctx.scope
        table = [None] * (n + 1)
        for i in range(n):
            table[self.kind.inl(n, 1, i)] = Var(i, n)
        table[self.kind.inr(n, 1, 0)] = t
        return Substitution(n, n + 1, tuple(table))

    def app(self, f: Tm, arg: Tm) -> Tm:
        """app(A, B, f, arg) for f : Pi(A, B); its type B[arg/x] is derived by a subst node."""
        ctx = f.ctx
        a, b = f.ty.expr.args
        d_a = f.ty.d.children[0]
        d_b = f.ty.d.children[1]
        e = mk_sym(self.sig, "app", (a, b, f.expr, arg.expr), ctx.scope)
        inst = Instantiation(self.app_arity, ctx.scope, (a, b, f.expr, arg.expr))
        sub = self.single(ctx, arg.expr)
        b_of_t = substitute_expr(self.kind, sub, b)
        inl = frozenset(self.kind.inl(ctx.scope, 1, i) for i in range(ctx.scope))
        ctx_a = self.extend(ctx, Ty(ctx, a, d_a))
        d_type = derive.subst(sub, ctx, inl, is_type(ctx_a, b), d_b, (arg.d,))
        return Tm(ctx, e, Ty(ctx, b_of_t, d_type),
                  derive.rule(self.app_elim, inst, ctx, (d_a, d_b, f.d, arg.d)))

    def beta(self, fn: Tm, arg: Tm) -> tuple[object, Judgement]:
        """The beta equation app(lam(A, B, t), u) == t[u/x] : B[u/x] for fn = lam(A, B, t)."""
        ctx = fn.ctx
        a, b, t = fn.expr.args
        d_a, d_b, d_t = fn.d.children
        inst = Instantiation(self.beta_arity, ctx.scope, (a, b, t, arg.expr))
        d = derive.rule(self.beta_rule, inst, ctx, (d_a, d_b, d_t, arg.d))
        sub = self.single(ctx, arg.expr)
        lhs = mk_sym(self.sig, "app", (a, b, fn.expr, arg.expr), ctx.scope)
        return d, tm_eq(ctx, lhs, substitute_expr(self.kind, sub, t), substitute_expr(self.kind, sub, b))

    def conv_wrap(self, t: Tm) -> Tm:
        """The same typing, wrapped in a conversion along reflexivity."""
        ty = t.ty
        refl = derive.refl_ty(t.ctx, ty.expr, ty.d)
        return Tm(t.ctx, t.expr, ty, derive.conv(t.ctx, ty.expr, ty.expr, t.expr, ty.d, ty.d, t.d, refl))

    def weakening(self, ctx: RawContext, by: int) -> Substitution:
        """The substitution ctx.E_1..E_by -> ctx that weakens by ``by`` variables."""
        n = ctx.scope
        return Substitution(n + by, n, tuple(Var(self.kind.inl(n, by, i), n + by) for i in range(n)))

    # --- families -----------------------------------------------------------

    def nested_pi(self, ctx: RawContext, binders: list[bool]) -> Ty:
        """Pi over one binder per entry of ``binders`` (True: a Pi(unit, unit) domain)."""
        if not binders:
            return self.unit(ctx)
        a = self.entry(ctx, binders[0])
        return self.pi(a, self.nested_pi(self.extend(ctx, a), binders[1:]))

    def lam_tower(self, ctx: RawContext, binders: list[bool], rng: random.Random) -> Tm:
        """One lambda per entry of ``binders``; the body is tt or a variable of type unit."""
        if not binders:
            unit = mk_sym(self.sig, "unit", (), ctx.scope)
            units = [i for i in range(ctx.scope) if ctx.type_at(i) == unit]
            if units and rng.random() < 0.5:
                return self.var(ctx, rng.choice(units))
            return self.tt(ctx)
        a = self.entry(ctx, binders[0])
        return self.lam(a, self.lam_tower(self.extend(ctx, a), binders[1:], rng))


def binders(n: int, share: float, rng: random.Random) -> list[bool]:
    """n binder domains, round(share * n) of them Pi(unit, unit), in an order drawn by rng."""
    out = [i < round(share * n) for i in range(n)]
    rng.shuffle(out)
    return out


def nodes(d) -> int:
    """Size of a derivation tree in nodes."""
    return 1 + sum(nodes(c) for c in d.children)


def _weaken_chain(kit: Kit, k: int, share: float, rng: random.Random) -> Item:
    """k stacked weakening subst nodes over a closed lam tower of depth 2."""
    t = kit.lam_tower(EMPTY_CONTEXT, binders(2, 0.5, rng), rng)
    ctx, term, ty, d = EMPTY_CONTEXT, t.expr, t.ty.expr, t.d
    for pi in binders(k, share, rng):
        f = kit.weakening(ctx, 1)
        target = kit.extend(ctx, kit.entry(ctx, pi))
        d = derive.subst(f, target, frozenset(range(ctx.scope)), is_term(ctx, term, ty), d)
        ctx, term, ty = target, substitute_expr(kit.kind, f, term), substitute_expr(kit.kind, f, ty)
    expected = is_term(ctx, weaken_expr(kit.kind, t.expr, k), weaken_expr(kit.kind, t.ty.expr, k))
    return Item("weaken-chain", k, d, expected, (ELIM,))


# The deep-binders schedule: (family, size, copies).  Nested Pi reaches
# n = 64, where the cubic growth of checking shows.  Lam towers stop at 8:
# their derivations also hold every codomain Pi (n^2 nodes), and checking
# one of depth 32 takes seconds.  The seed draws the order of the binder
# domains, the ambient contexts and the bodies; the sizes, and the share of
# Pi(unit, unit) domains in each copy, are fixed, so every seed costs about
# the same.  The copies are chosen so that each percentile falls inside a
# group of similar cost: check p50 in nested Pi 8, check p90 in nested Pi 24,
# transform p50 in weaken-chain 6, transform p90 in lam tower 8 and
# weaken-chain 16.
DEEP_SCHEDULE = (
    ("nested-pi", 4, 12), ("nested-pi", 8, 16), ("nested-pi", 16, 2), ("nested-pi", 24, 10),
    ("nested-pi", 32, 1), ("nested-pi", 64, 1),
    ("lam-tower", 2, 2), ("lam-tower", 8, 10),
    ("weaken-chain", 2, 3), ("weaken-chain", 6, 16), ("weaken-chain", 16, 8), ("weaken-chain", 32, 1),
)
DEEP_SCHEDULE_MIN = (("nested-pi", 4, 1), ("nested-pi", 8, 1), ("lam-tower", 3, 1), ("weaken-chain", 3, 1))


def deep_binders(seed: int, schedule=DEEP_SCHEDULE) -> list[Item]:
    kit = Kit()
    rng = random.Random(seed)
    items = []
    for family, n, copies in schedule:
        for j in range(copies):
            share = (j + 0.5) / copies
            if family == "weaken-chain":
                items.append(_weaken_chain(kit, n, share, rng))
                continue
            ctx = kit.context(j % 3, rng)
            if family == "nested-pi":
                t = kit.nested_pi(ctx, binders(n, share, rng))
                items.append(Item(family, n, t.d, is_type(ctx, t.expr), ()))
            else:
                t = kit.lam_tower(ctx, binders(n, share, rng), rng)
                items.append(Item(family, n, t.d, is_term(ctx, t.expr, t.ty.expr), (PRESUP, INVERT)))
    return items


def _shallow_item(kit: Kit, shape: str, length: int, rng: random.Random) -> Item:
    """One small derivation of the given shape in a context of the given length."""
    ctx = kit.context(length, rng)

    def term_item(t: Tm) -> Item:
        return Item(shape, nodes(t.d), t.d, is_term(ctx, t.expr, t.ty.expr),
                    (PRESUP, ELIM, INVERT, UNIQUE), kit.conv_wrap(t).d)

    def type_item(a: Ty) -> Item:
        return Item(shape, nodes(a.d), a.d, is_type(ctx, a.expr), (ELIM, INVERT))

    def eq_item(d, j: Judgement) -> Item:
        return Item(shape, nodes(d), d, j, (PRESUP, ELIM))

    def ident(a: Ty) -> Tm:
        inner = kit.extend(ctx, a)
        return kit.lam(a, kit.var(inner, kit.newest(inner)))

    def closed_value(a: Ty) -> Tm:
        """A closed-form inhabitant of a unit/Pi(unit, unit) entry type."""
        if a.expr.args:
            return kit.lam(kit.unit(ctx), kit.tt(kit.extend(ctx, kit.unit(ctx))))
        return kit.tt(ctx)

    if shape == "unit":
        return type_item(kit.unit(ctx))
    if shape == "tt":
        return term_item(kit.tt(ctx))
    if shape == "var":
        if ctx.scope == 0:
            ctx = kit.context(1, rng)
        return term_item(kit.var(ctx, rng.randrange(ctx.scope)))
    if shape == "pi":
        a = kit.entry(ctx, rng.random() < 0.5)
        return type_item(kit.pi(a, kit.entry(kit.extend(ctx, a), rng.random() < 0.5)))
    if shape == "lam":
        a = kit.entry(ctx, rng.random() < 0.5)
        if rng.random() < 0.5:
            return term_item(ident(a))
        return term_item(kit.lam(a, kit.tt(kit.extend(ctx, a))))
    if shape == "app":
        a = kit.entry(ctx, rng.random() < 0.5)
        f = ident(a) if rng.random() < 0.5 else kit.lam(a, kit.tt(kit.extend(ctx, a)))
        return term_item(kit.app(f, closed_value(a)))
    if shape == "app-type":
        a = kit.entry(ctx, rng.random() < 0.5)
        t = kit.app(ident(a), closed_value(a))
        return type_item(t.ty)
    if shape == "beta":
        a = kit.entry(ctx, rng.random() < 0.5)
        fn = ident(a) if rng.random() < 0.5 else kit.lam(a, kit.tt(kit.extend(ctx, a)))
        return eq_item(*kit.beta(fn, closed_value(a)))
    if shape == "equiv":
        a = kit.entry(ctx, rng.random() < 0.5)
        refl = derive.refl_ty(ctx, a.expr, a.d)
        which = rng.randrange(4)
        if which == 0:
            return eq_item(refl, ty_eq(ctx, a.expr, a.expr))
        if which == 1:
            return eq_item(derive.sym_ty(ctx, a.expr, a.expr, a.d, a.d, refl), ty_eq(ctx, a.expr, a.expr))
        if which == 2:
            d = derive.trans_ty(ctx, a.expr, a.expr, a.expr, a.d, a.d, a.d, refl, refl)
            return eq_item(d, ty_eq(ctx, a.expr, a.expr))
        t = closed_value(a)
        return eq_item(derive.refl_tm(ctx, a.expr, t.expr, a.d, t.d), tm_eq(ctx, t.expr, t.expr, a.expr))
    if shape == "conv":
        return term_item(kit.conv_wrap(closed_value(kit.entry(ctx, rng.random() < 0.5))))
    if shape == "weaken":
        # a closed typing carried into ctx by the empty substitution
        a = kit.entry(EMPTY_CONTEXT, rng.random() < 0.5)
        t = closed_value_closed(kit, a)
        d = derive.weaken_closed(ctx, is_term(EMPTY_CONTEXT, t.expr, a.expr), t.d)
        j = is_term(ctx, weaken_expr(kit.kind, t.expr, ctx.scope), weaken_expr(kit.kind, a.expr, ctx.scope))
        return Item(shape, nodes(d), d, j, (PRESUP, ELIM, INVERT))
    if shape == "eq-subst":
        # [app(id, tt)/x] == [tt/x] into ctx.x:unit |- x : unit
        u = kit.unit(ctx)
        inner = kit.extend(ctx, u)
        x = kit.var(inner, kit.newest(inner))
        idf = kit.lam(u, x)
        tt = kit.tt(ctx)
        ap = kit.app(idf, tt)
        d_beta, _ = kit.beta(idf, tt)
        f, g = kit.single(ctx, ap.expr), kit.single(ctx, tt.expr)
        keep = frozenset(kit.kind.inl(ctx.scope, 1, i) for i in range(ctx.scope))
        d = derive.eq_subst(f, g, ctx, keep, is_term(inner, x.expr, x.ty.expr), x.d, ((ap.d, tt.d, d_beta),))
        return eq_item(d, tm_eq(ctx, ap.expr, tt.expr, u.expr))
    raise AssertionError(shape)


def closed_value_closed(kit: Kit, a: Ty) -> Tm:
    if a.expr.args:
        return kit.lam(kit.unit(EMPTY_CONTEXT), kit.tt(kit.extend(EMPTY_CONTEXT, kit.unit(EMPTY_CONTEXT))))
    return kit.tt(EMPTY_CONTEXT)


SHALLOW_SHAPES = (
    "unit", "tt", "var", "pi", "lam", "app", "app-type", "beta", "equiv", "conv", "weaken", "eq-subst",
)


def shallow_corpus(seed: int, count: int) -> list[Item]:
    """``count`` small derivations: the shapes and context lengths (0 to 3) go
    round in turn, so every seed has the same mix; the seed draws the context
    entries and the choices inside each shape."""
    kit = Kit()
    rng = random.Random(seed)
    k = len(SHALLOW_SHAPES)
    return [_shallow_item(kit, SHALLOW_SHAPES[i % k], i // k % 4, rng) for i in range(count)]
