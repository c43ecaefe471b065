"""Random well-scoped expression generator shared by the law tests.

Uniform over applicable constructors with a depth budget; class and scope
mismatches are avoided by construction rather than rejection.
"""

from __future__ import annotations

import random

from gtt.syntax import (
    TM,
    TY,
    Argument,
    Arity,
    Expr,
    Instantiation,
    Renaming,
    Signature,
    Substitution,
    Symbol,
    arity,
    mk_meta,
    mk_sym,
    mk_var,
)

# Five symbols, mixed binders: enough to exercise every recursion case.
LAW_SIGNATURE = Signature(
    (
        Symbol("b", TY, ()),
        Symbol("el", TY, arity((TM, 0))),
        Symbol("pi", TY, arity((TY, 0), (TY, 1))),
        Symbol("lam", TM, arity((TY, 0), (TY, 1), (TM, 1))),
        Symbol("app", TM, arity((TY, 0), (TY, 1), (TM, 0), (TM, 0))),
    )
)


def minimal_expr(sig: Signature, scope: int, cls) -> Expr:
    if cls is TY:
        return mk_sym(sig, "b", (), scope)
    if scope > 0:
        return mk_var(scope, 0)
    b0 = mk_sym(sig, "b", (), 0)
    b1 = mk_sym(sig, "b", (), 1)
    return mk_sym(sig, "lam", (b0, b1, mk_var(1, 0)), 0)


def gen_expr(rng: random.Random, sig: Signature, scope: int, cls, depth: int) -> Expr:
    if depth <= 0:
        if cls is TM and scope > 0:
            return mk_var(scope, rng.randrange(scope))
        return minimal_expr(sig, scope, cls)
    options = []
    if cls is TM and scope > 0:
        options.extend(["var"] * 2)
    for i, s in enumerate(sig.symbols):
        if s.cls is cls:
            options.append(("sym", i))
    for i in range(sig.mv_count):
        if sig.mv_class(i) is cls:
            options.append(("meta", i))
    choice = rng.choice(options)
    if choice == "var":
        return mk_var(scope, rng.randrange(scope))
    kind, i = choice
    if kind == "sym":
        s = sig.symbol(i)
        args = tuple(
            gen_expr(rng, sig, scope + a.binder, a.cls, depth - 1) for a in s.arity
        )
        return mk_sym(sig, i, args, scope)
    args = tuple(
        gen_expr(rng, sig, scope, TM, depth - 1) for _ in range(sig.mv_binder(i))
    )
    return mk_meta(sig, i, args, scope)


def gen_renaming(rng: random.Random, src: int, dst: int) -> Renaming:
    assert dst > 0 or src == 0
    return Renaming(src, dst, tuple(rng.randrange(dst) for _ in range(src)))


def gen_subst(rng: random.Random, sig: Signature, src: int, dst: int, depth: int = 2) -> Substitution:
    return Substitution(
        src, dst, tuple(gen_expr(rng, sig, src, TM, depth) for _ in range(dst))
    )


def gen_instantiation(
    rng: random.Random, sig: Signature, alpha: Arity, scope: int, depth: int = 2
) -> Instantiation:
    exprs = tuple(
        gen_expr(rng, sig, scope + a.binder, a.cls, depth) for a in alpha
    )
    return Instantiation(alpha, scope, exprs)


def gen_arity(rng: random.Random, max_args: int = 3, max_binder: int = 2) -> Arity:
    return tuple(
        Argument(rng.choice([TY, TM]), rng.randrange(max_binder + 1))
        for _ in range(rng.randrange(max_args + 1))
    )


def generic_occurrence(sig, m, scope):
    """M(x_0 ... x_{b-1}): metavariable m applied to the variables of its own binder."""
    return mk_meta(sig, m, tuple(mk_var(scope, j) for j in range(scope)), scope)


def gen_template(rng, sig, scope, cls, depth):
    """Like ``gen_expr``, but a metavariable whose binder is the scope is
    written as its generic occurrence half of the time."""
    generic = [m for m in range(sig.mv_count) if sig.mv_binder(m) == scope and sig.mv_class(m) is cls]
    if generic and rng.random() < 0.5:
        return generic_occurrence(sig, rng.choice(generic), scope)
    if depth <= 0 or rng.random() < 0.3:
        return gen_expr(rng, sig, scope, cls, depth)
    syms = [i for i, sym in enumerate(sig.symbols) if sym.cls is cls]
    sym = sig.symbol(rng.choice(syms))
    args = tuple(gen_template(rng, sig, scope + a.binder, a.cls, depth - 1) for a in sym.arity)
    return mk_sym(sig, sym.name, args, scope)
