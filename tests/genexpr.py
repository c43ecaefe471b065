"""Random well-scoped expression generator shared by the law tests.

Uniform over applicable constructors with a depth budget; class and scope
mismatches are avoided by construction rather than rejection.
"""

from __future__ import annotations

import random

from gtt.derivation_ops import generic_rule_instance
from gtt.maps import RawSyntaxMap, RawTheoryMap, identity_syntax_map
from gtt.rules import generic_application
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
    SyntacticClass,
    mk_meta,
    mk_sym,
    mk_var,
    mv_extend_signature,
)
from gtt.theories import RawTypeTheory


def arity(*pairs: tuple[SyntacticClass, int]) -> Arity:
    """The arity of the (class, binder) pairs given, in order."""
    return tuple(Argument(c, b) for c, b in pairs)


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


# --- syntax maps out of a law signature, and theory maps ----------------------

def relabelling(src: Signature, dst: Signature, table: tuple[int, ...]) -> RawSyntaxMap:
    """The simple map sending symbol i of ``src`` to symbol ``table[i]`` of
    ``dst``: a raw syntax map whose interpretations are generic applications."""
    return RawSyntaxMap(src, dst, tuple(generic_application(dst, j) for j in table))


def twin_map(sig: Signature = LAW_SIGNATURE) -> RawSyntaxMap:
    """The simple map from the law signature onto its twin, the same symbols
    renamed, in the scope kind of ``sig``."""
    twin = Signature(tuple(s._replace(name=f"{s.name}2") for s in sig.symbols), sig.kind)
    return relabelling(sig, twin, tuple(range(sig.base_count)))


def compound_map(sig: Signature = LAW_SIGNATURE) -> RawSyntaxMap:
    """A raw syntax map from the law signature to itself that is not simple:
    b goes to pi(b, x.b) and pi(A, x.B) to pi(A, x.pi(B, y.B[x])), where the
    last B sits under two binders; the other symbols go to their generic
    applications."""
    b = sig.symbol_index("b")
    pi = sig.symbol_index("pi")
    exprs = [generic_application(sig, s) for s in range(sig.base_count)]
    exprs[b] = mk_sym(sig, "pi", (mk_sym(sig, "b", (), 0), mk_sym(sig, "b", (), 1)), 0)
    ext = mv_extend_signature(sig, sig.symbol(pi).arity)
    x = mk_var(2, sig.kind.inl(1, 1, 0))
    inner = mk_sym(ext, "pi", (generic_occurrence(ext, 1, 1), mk_meta(ext, 1, (x,), 2)), 1)
    exprs[pi] = mk_sym(ext, "pi", (mk_meta(ext, 0, (), 0), inner), 0)
    return RawSyntaxMap(sig, sig, tuple(exprs))


def identity_theory_map(theory: RawTypeTheory) -> RawTheoryMap:
    """The identity raw theory map: the identity syntax map, each rule sent
    to its own generic instance."""
    m = identity_syntax_map(theory.signature)
    derivations = {i: generic_rule_instance(i, rule) for i, rule in enumerate(theory.rules)}
    return RawTheoryMap(m, theory, theory, derivations)


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
    """M(x_0 ... x_{b-1}), for b the binder of metavariable m, in ``scope``:
    the generic pattern when ``scope`` is b, a weakening occurrence when it
    is larger."""
    return mk_meta(sig, m, tuple(mk_var(scope, j) for j in range(sig.mv_binder(m))), scope)


def gen_template(rng, sig, scope, cls, depth, weakening=False):
    """Like ``gen_expr``, but a metavariable whose binder is the scope is
    written as its generic occurrence half of the time.  With ``weakening``
    so is one whose binder is smaller than the scope: a weakening
    occurrence."""
    generic = [
        m for m in range(sig.mv_count)
        if sig.mv_class(m) is cls and (sig.mv_binder(m) <= scope if weakening else sig.mv_binder(m) == scope)
    ]
    if generic and rng.random() < 0.5:
        return generic_occurrence(sig, rng.choice(generic), scope)
    if depth <= 0 or rng.random() < 0.3:
        return gen_expr(rng, sig, scope, cls, depth)
    syms = [i for i, sym in enumerate(sig.symbols) if sym.cls is cls]
    sym = sig.symbol(rng.choice(syms))
    args = tuple(gen_template(rng, sig, scope + a.binder, a.cls, depth - 1, weakening) for a in sym.arity)
    return mk_sym(sig, sym.name, args, scope)
