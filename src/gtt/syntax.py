"""Arities, signatures, scoped expressions, substitution, and instantiation.

A signature owns the scope kind and may carry a marked trailing segment of
metavariable symbols described by an arity.  Expressions index base
symbols with SymApp and metavariable symbols with MetaApp, so translating
along the inclusion of a signature into its metavariable extension is a
structural no-op on trees: base symbol indices stay valid and MetaApp
nodes keep referring to the newest segment.

Expressions carry their scope and syntactic class; the mk_* constructors
validate argument counts, classes, and scopes, so everything downstream
works with well-scoped, well-classed trees by construction.

Var, SymApp and MetaApp are tuple records (``scopes._record``): the
expression is the tuple (class, fields...), so building one is cheap and
``==`` and ``hash`` are tuple equality and hashing, in C and class-aware.
The checker builds and compares expressions at every node, so both must
be cheap.  Fields are read-only properties;
``__post_init__``, where a class defines one, runs on every construction.

Substitution under binders follows the sigma-calculus: below k binders a
substitution f acts as the pair (f, lift k), where lift f = 0 . (f o shift),
and the pair is applied on lookup at each variable instead of building the
table of f + k.  A renaming acts as the substitution by variables
``Substitution.of_renaming(r)``; there is no second walk for it.  Weakening
is one arithmetic shift with a cutoff: positions >= cut move up by ``by``.
The two scope kinds differ only in where the bound positions sit:

- indices: positions below k are bound; entry p - k of f is shifted up by
  k with cut 0, and the cut grows under each binder inside the entry;
- levels: positions from f.dst on are bound and become f.src + (p - f.dst);
  entry p is shifted up by k with cut f.src, which stays fixed under
  binders.

Instantiation substitutes each metavariable occurrence's arguments into
its entry, except where the table of that substitution is a weakening:
an occurrence M(x_0 ... x_{b-1}) of the first b variables, in any scope
delta >= b, is one shift of its entry by delta - b, and the entry itself
when delta = b.  No table is built for it.

The scope checks stay at the entry points (the table classes, the guard of
substitute_expr, the mk_* constructors); the recursions below them trust
the tree.  A walker costs one Python frame per node, its own recursion: it
dispatches on ``type(e)`` and calls no helper at a node, and where a check
it makes inline fails it calls the helper that made it, to raise the same
error.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from .errors import (
    ArityMismatch,
    ClassMismatch,
    IndexOutOfRange,
    ScopeMismatch,
)
from .scopes import (
    Renaming,
    Scope,
    ScopeKind,
    _record,
)


class SyntacticClass(Enum):
    TY = "Ty"
    TM = "Tm"

    __hash__ = object.__hash__  # as ScopeKind's


TY = SyntacticClass.TY
TM = SyntacticClass.TM


@_record
class Argument:
    """One argument slot of an arity: its class and how many variables it binds."""

    cls: SyntacticClass
    binder: Scope


Arity = tuple[Argument, ...]


def simple_arity(gamma: Scope) -> Arity:
    """gamma-many binder-free term arguments."""
    return tuple(Argument(TM, 0) for _ in range(gamma))


@_record
class Symbol:
    name: str
    cls: SyntacticClass
    arity: Arity


@_record
class Signature:
    """Symbols plus an optional trailing metavariable segment.

    ``symbols`` holds the base symbols only; the metavariable segment is
    generated from ``mv_arity`` (argument i becomes a symbol of class
    argclass(i) with the simple arity of its binder).  ``mv_names`` name
    the segment (``?i`` when empty) and take part in equality, as the
    symbols' names do.
    """

    symbols: tuple[Symbol, ...]
    kind: ScopeKind = ScopeKind.INDICES
    mv_arity: Arity | None = None
    mv_names: tuple[str, ...] = ()

    def __post_init__(self):
        names = [s.name for s in self.symbols]
        if len(set(names)) != len(names):
            raise ArityMismatch(f"duplicate symbol names in signature: {names}")
        if self.mv_arity is not None and self.mv_names and len(self.mv_names) != len(self.mv_arity):
            raise ArityMismatch("metavariable name list does not match arity length")

    @property
    def base_count(self) -> int:
        return len(self.symbols)

    @property
    def mv_count(self) -> int:
        return 0 if self.mv_arity is None else len(self.mv_arity)

    def symbol(self, i: int) -> Symbol:
        if not 0 <= i < self.base_count:
            raise IndexOutOfRange(f"symbol {i} of {self.base_count}")
        return self.symbols[i]

    def symbol_index(self, name: str) -> int:
        for i, s in enumerate(self.symbols):
            if s.name == name:
                return i
        raise IndexOutOfRange(f"no symbol named {name!r}")

    def mv_class(self, i: int) -> SyntacticClass:
        return self._mv_arg(i).cls

    def mv_binder(self, i: int) -> Scope:
        return self._mv_arg(i).binder

    def _mv_arg(self, i: int) -> Argument:
        if self.mv_arity is None or not 0 <= i < len(self.mv_arity):
            raise IndexOutOfRange(f"metavariable {i} of {self.mv_count}")
        return self.mv_arity[i]

    def mv_name(self, i: int) -> str:
        self._mv_arg(i)
        return self.mv_names[i] if self.mv_names else f"?{i}"

    def mv_index(self, name: str) -> int:
        names = self.mv_names[:self.mv_count] or tuple(f"?{i}" for i in range(self.mv_count))
        try:
            return names.index(name)
        except ValueError:
            raise IndexOutOfRange(f"no metavariable named {name!r}") from None


def mv_extend_signature(sig: Signature, alpha: Arity, names: tuple[str, ...] = ()) -> Signature:
    """The metavariable extension of ``sig`` by the arity ``alpha``.

    A previous metavariable segment is absorbed into the base: its symbols
    become ordinary symbols of the extended signature, mirroring how
    (Sigma+alpha)+beta treats the alpha-segment as plain symbols.
    """
    base = sig.symbols
    if sig.mv_arity is not None:
        absorbed = tuple(
            Symbol(_fresh_name(base, sig.mv_name(i), i), sig.mv_class(i), simple_arity(sig.mv_binder(i)))
            for i in range(sig.mv_count)
        )
        base = base + absorbed
    return Signature(base, sig.kind, alpha, names)


def _fresh_name(existing: tuple[Symbol, ...], candidate: str, i: int) -> str:
    taken = {s.name for s in existing}
    name = candidate
    while name in taken:
        name = f"{name}~{i}"
    return name


@_record
class Var:
    pos: int
    scope: Scope
    cls = TM  # not a field: every variable is a term


@_record
class SymApp:
    sym: int
    args: tuple["Expr", ...]
    scope: Scope
    cls: SyntacticClass


@_record
class MetaApp:
    idx: int
    args: tuple["Expr", ...]
    scope: Scope
    cls: SyntacticClass


Expr = Var | SymApp | MetaApp


def mk_var(scope: Scope, pos: int) -> Var:
    if not 0 <= pos < scope:
        raise IndexOutOfRange(f"variable {pos} of scope {scope}")
    return Var(pos, scope)


def mk_sym(sig: Signature, sym: int | str, args: tuple[Expr, ...], scope: Scope) -> SymApp:
    if isinstance(sym, str):
        sym = sig.symbol_index(sym)
    decl = sig.symbol(sym)
    _check_args(decl.arity, args, scope, decl.name)
    return SymApp(sym, tuple(args), scope, decl.cls)


def mk_meta(sig: Signature, idx: int | str, args: tuple[Expr, ...], scope: Scope) -> MetaApp:
    if isinstance(idx, str):
        idx = sig.mv_index(idx)
    cls = sig.mv_class(idx)
    _check_args(simple_arity(sig.mv_binder(idx)), args, scope, sig.mv_name(idx))
    return MetaApp(idx, tuple(args), scope, cls)


def _check_args(ar: Arity, args: tuple[Expr, ...], scope: Scope, name: str) -> None:
    if len(args) != len(ar):
        raise ArityMismatch(f"{name} expects {len(ar)} arguments, got {len(args)}")
    for i, (arg, slot) in enumerate(zip(args, ar)):
        if arg.cls is not slot.cls:
            raise ClassMismatch(f"argument {i} of {name}: expected {slot.cls}, got {arg.cls}")
        if arg.scope != scope + slot.binder:
            raise ScopeMismatch(
                f"argument {i} of {name}: expected scope {scope + slot.binder}, got {arg.scope}"
            )


def validate_expr(sig: Signature, e: Expr, scope: Scope, cls: SyntacticClass | None = None) -> None:
    """Recursively re-validate an expression tree against a signature.

    A node checks its symbol or variable, then its arguments' classes and
    scopes before it visits them, so only ``e``'s are checked here."""
    if cls is not None and e.cls is not cls:
        raise ClassMismatch(f"expected {cls}, got {e.cls} at {e!r}")
    if e.scope != scope:
        raise ScopeMismatch(f"expected scope {scope}, got {e.scope} at {e!r}")
    _validate(sig, e)


def _validate(sig: Signature, e: Expr) -> None:
    t, scope = type(e), e.scope
    if t is Var:
        if not 0 <= e.pos < scope:
            raise IndexOutOfRange(f"variable {e.pos} of scope {scope}")
    elif t is SymApp:
        s, symbols, args = e.sym, sig.symbols, e.args
        decl = symbols[s] if 0 <= s < len(symbols) else sig.symbol(s)
        if e.cls is not decl.cls:
            raise ClassMismatch(f"{decl.name} has class {decl.cls}, node says {e.cls}")
        ar = decl.arity
        if len(args) != len(ar):
            _check_args(ar, args, scope, decl.name)
        for a, slot in zip(args, ar):
            if a.cls is not slot.cls or a.scope != scope + slot.binder:
                _check_args(ar, args, scope, decl.name)
        for a in args:
            _validate(sig, a)
    elif t is MetaApp:
        m, mv, args = e.idx, sig.mv_arity, e.args
        slot = mv[m] if mv is not None and 0 <= m < len(mv) else sig._mv_arg(m)
        if e.cls is not slot.cls:
            raise ClassMismatch(f"metavariable {m} has class {slot.cls}")
        if len(args) != slot.binder:
            _check_args(simple_arity(slot.binder), args, scope, sig.mv_name(m))
        for a in args:
            if a.cls is not TM or a.scope != scope:
                _check_args(simple_arity(slot.binder), args, scope, sig.mv_name(m))
        for a in args:
            _validate(sig, a)


def weaken_expr(kind: ScopeKind, e: Expr, by: Scope) -> Expr:
    """Rename along the left coproduct inclusion scope -> scope + by.

    One arithmetic shift: positions ``>= cut`` move up by ``by``.  The cut
    starts at 0 for indices and grows under each binder; for levels it is
    the outer scope throughout.
    """
    if by == 0:
        return e
    return _shift(kind, e, 0 if kind is ScopeKind.INDICES else e.scope, by)


def _shift(kind: ScopeKind, e: Expr, cut: int, by: Scope) -> Expr:
    t = type(e)
    if t is Var:
        p = e.pos
        return Var(p + by if p >= cut else p, e.scope + by)
    if t is SymApp:
        scope = e.scope
        if kind is ScopeKind.INDICES:
            new_args = tuple([_shift(kind, arg, cut + arg.scope - scope, by) for arg in e.args])
        else:
            new_args = tuple([_shift(kind, arg, cut, by) for arg in e.args])
        return SymApp(e.sym, new_args, scope + by, e.cls)
    if t is MetaApp:
        return MetaApp(e.idx, tuple([_shift(kind, arg, cut, by) for arg in e.args]), e.scope + by, e.cls)
    raise TypeError(f"not an expression: {e!r}")


@_record
class Substitution:
    """A raw substitution src -> dst: one term over ``src`` per position of ``dst``."""

    src: Scope
    dst: Scope
    table: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.table) != self.dst:
            raise ScopeMismatch(f"table of length {len(self.table)} for scope {self.dst}")
        for t in self.table:
            if t.cls is not TM:
                raise ClassMismatch("substitution entries must be terms")
            if t.scope != self.src:
                raise ScopeMismatch(f"entry in scope {t.scope}, expected {self.src}")

    def __call__(self, i: int) -> Expr:
        if not 0 <= i < self.dst:
            raise IndexOutOfRange(f"position {i} of scope {self.dst}")
        return self.table[i]

    def map_exprs(self, fn: Callable[[Expr], Expr]) -> "Substitution":
        """Apply a scope- and class-preserving map to every entry."""
        return Substitution(self.src, self.dst, tuple(map(fn, self.table)))

    @staticmethod
    def identity(scope: Scope) -> "Substitution":
        return Substitution(scope, scope, tuple(Var(i, scope) for i in range(scope)))

    @staticmethod
    def of_renaming(r: Renaming) -> "Substitution":
        """The substitution r.dst -> r.src induced by a renaming r: src -> dst."""
        return Substitution(r.dst, r.src, tuple(Var(r(i), r.dst) for i in range(r.src)))


def extend_substitution(kind: ScopeKind, f: Substitution, eta: Scope) -> Substitution:
    """f + eta : (src+eta) -> (dst+eta) as a table; new positions map to themselves.

    Entry p is what ``substitute_expr(kind, f, e, eta)`` does to the
    variable p; this is for callers that need the entries themselves.
    """
    if eta == 0:
        return f
    dst = f.dst + eta
    return Substitution(f.src + eta, dst, tuple(_substitute(kind, f, Var(p, dst), eta) for p in range(dst)))


def substitute_expr(kind: ScopeKind, f: Substitution, e: Expr, k: Scope = 0) -> Expr:
    """The contravariant action of f + id_k on an expression under ``k`` binders.

    ``e`` lives in scope ``f.dst + k`` and the result in ``f.src + k``.  The
    pair (f, lift k) is applied on lookup at each variable, with
    lift f = 0 . (f o shift), and no extended table is built:

    - indices: ``p < k`` is bound and stays; otherwise entry ``p - k`` is
      shifted up by ``k`` (cut 0);
    - levels: ``p < f.dst`` is entry ``p`` shifted by ``k`` at cut
      ``f.src``; otherwise it becomes ``f.src + (p - f.dst)``.
    """
    if e.scope != f.dst + k:
        raise ScopeMismatch(f"expression in scope {e.scope}, substitution into {f.dst} under {k}")
    return _substitute(kind, f, e, k)


def _substitute(kind: ScopeKind, f: Substitution, e: Expr, k: Scope) -> Expr:
    t = type(e)
    if t is Var:
        p = e.pos
        if kind is ScopeKind.INDICES:
            if p < k:
                return Var(p, f.src + k)
            p -= k
        elif p >= f.dst:
            return Var(f.src + (p - f.dst), f.src + k)
        entry = f.table[p] if 0 <= p < f.dst else f(p)  # f(p) raises
        return _shift(kind, entry, 0 if kind is ScopeKind.INDICES else f.src, k) if k else entry
    if t is SymApp:
        scope = e.scope
        new_args = tuple([_substitute(kind, f, arg, k + arg.scope - scope) for arg in e.args])
        return SymApp(e.sym, new_args, f.src + k, e.cls)
    if t is MetaApp:
        return MetaApp(e.idx, tuple([_substitute(kind, f, a, k) for a in e.args]), f.src + k, e.cls)
    raise TypeError(f"not an expression: {e!r}")


@_record
class Instantiation:
    """Expressions for the metavariables of an arity, over an ambient scope.

    Entry i has the class of argument i and lives in scope ``scope + binder(i)``.
    """

    arity: Arity
    scope: Scope
    exprs: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.exprs) != len(self.arity):
            raise ArityMismatch(f"{len(self.exprs)} entries for arity of length {len(self.arity)}")
        for i, (e, slot) in enumerate(zip(self.exprs, self.arity)):
            if e.cls is not slot.cls:
                raise ClassMismatch(f"entry {i}: expected {slot.cls}, got {e.cls}")
            if e.scope != self.scope + slot.binder:
                raise ScopeMismatch(
                    f"entry {i}: expected scope {self.scope + slot.binder}, got {e.scope}"
                )

    def __call__(self, i: int) -> Expr:
        return self.exprs[i]

    def map_exprs(self, fn: Callable[[Expr], Expr]) -> "Instantiation":
        """Apply a scope- and class-preserving map to every entry."""
        return Instantiation(self.arity, self.scope, tuple(map(fn, self.exprs)))


def generic_meta(i: int, arg: Argument) -> MetaApp:
    """M_i(x_0 ... x_{b-1}) in scope b, for b the binder of ``arg``: the
    metavariable applied to the variables its argument binds."""
    b = arg.binder
    return MetaApp(i, tuple(Var(j, b) for j in range(b)), b, arg.cls)


def generic_instantiation(alpha: Arity, shift: int = 0) -> Instantiation:
    """The closed instantiation of ``alpha`` sending metavariable i to the
    generic pattern of metavariable i + ``shift``.  With shift 0 it is the
    identity; with shift n it relabels into the second copy of a doubled
    arity."""
    return Instantiation(alpha, 0, tuple(generic_meta(i + shift, a) for i, a in enumerate(alpha)))


def is_generic_occurrence(e: MetaApp, binder: Scope) -> bool:
    """M(x_0 ... x_{b-1}) for b = ``binder``: in scope b, with the variable
    at position j as its j-th argument.  ``instantiate_expr`` returns the
    entry of M itself for these occurrences; for the same pattern in a
    larger scope it returns a weakening of the entry, a new tree."""
    return e.scope == binder and len(e.args) == binder and all(
        type(a) is Var and a.pos == j and a.scope == binder for j, a in enumerate(e.args)
    )


def exposed_metavariables(alpha: Arity, e: Expr) -> frozenset[int]:
    """The metavariables of ``alpha`` whose entry ``instantiate_expr`` puts
    into the result of ``e`` verbatim: those with a generic occurrence
    reached through symbol arguments only (an occurrence inside a
    metavariable's arguments is substituted into that entry, not kept)."""
    match e:
        case SymApp(args=args):
            return frozenset().union(*(exposed_metavariables(alpha, a) for a in args))
        case MetaApp(idx=m) if 0 <= m < len(alpha) and is_generic_occurrence(e, alpha[m].binder):
            return frozenset({m})
    return frozenset()


def instantiate_expr(kind: ScopeKind, inst: Instantiation, e: Expr) -> Expr:
    """Replace metavariables by their instantiation, landing in scope I.scope + e.scope.

    An occurrence M(x_0 ... x_{b-1}) of a metavariable with b binders, in a
    scope delta >= b and with the variable at position j as its j-th
    argument, is a weakening occurrence: the table it would build sends the
    binder's positions to themselves and gamma along the left inclusion
    into gamma + delta, which is the weakening of the entry by delta - b.
    So it is one ``_shift`` of the entry: cut b for indices, cut the
    entry's scope for levels.  At delta = b it is the generic pattern,
    the table is the identity, and the entry itself is returned (e[id] = e),
    not a copy.  Every other occurrence substitutes along its table.
    """
    gamma, delta = inst.scope, e.scope
    target = gamma + delta
    t = type(e)
    if t is Var:
        p = e.pos
        if not 0 <= p < delta:
            kind.inr(gamma, delta, p)  # raises
        return Var(p if kind is ScopeKind.INDICES else p + gamma, target)
    if t is SymApp:
        return SymApp(e.sym, tuple([instantiate_expr(kind, inst, a) for a in e.args]), target, e.cls)
    if t is MetaApp:
        m, args = e.idx, e.args
        binder, entry = inst.arity[m].binder, inst.exprs[m]
        for j, a in enumerate(args):
            if type(a) is not Var or a.pos != j:
                break
        else:
            if len(args) == binder:  # the table is a weakening: one shift of the entry, none at delta = b
                if delta == binder:
                    return entry
                return _shift(kind, entry, binder if kind is ScopeKind.INDICES else entry.scope, delta - binder)
        # gamma's positions go along the left inclusion into gamma + delta,
        # as one block of the table; the arguments take the binder's positions,
        # the table's dst is the entry's scope, so no guard is needed
        table: list[Expr] = [None] * (gamma + binder)  # type: ignore[list-item]
        if kind is ScopeKind.INDICES:
            table[binder:] = [Var(i + delta, target) for i in range(gamma)]
        else:
            table[:gamma] = [Var(i, target) for i in range(gamma)]
        for j, arg in enumerate(args):
            table[kind.inr(gamma, binder, j)] = instantiate_expr(kind, inst, arg)
        return _substitute(kind, Substitution(target, gamma + binder, tuple(table)), entry, 0)
    raise TypeError(f"not an expression: {e!r}")
