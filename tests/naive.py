"""Textbook oracles for renaming, substitution and instantiation.

Each builds the tables the definitions speak of (one per binder crossed,
one per metavariable occurrence) and copies every entry it uses; the
kernel's versions apply them on lookup and share what they can, and the
kernel renames by substituting variables.  The law tests, the reference
checker and the reference transformers compare against these.
``table_instantiate`` is the kernel's instantiation with a table for every
weakening occurrence, where the kernel shifts the entry.
"""

from gtt.scopes import Renaming, ScopeKind, inl_renaming
from gtt.syntax import MetaApp, Substitution, SymApp, Var, is_generic_occurrence, substitute_expr


def identity_renaming(scope):
    """The identity renaming of ``scope`` as a table."""
    return Renaming(scope, scope, tuple(range(scope)))


def inr_renaming(kind, gamma, delta):
    """The right coproduct inclusion delta -> gamma + delta as a table."""
    return Renaming(delta, gamma + delta, tuple(kind.inr(gamma, delta, j) for j in range(delta)))


def naive_sum_renaming(kind, r, s):
    """Oracle: the coproduct map r+s : (r.src + s.src) -> (r.dst + s.dst) as a table."""
    table = [0] * (r.src + s.src)
    for i in range(r.src):
        table[kind.inl(r.src, s.src, i)] = kind.inl(r.dst, s.dst, r(i))
    for j in range(s.src):
        table[kind.inr(r.src, s.src, j)] = kind.inr(r.dst, s.dst, s(j))
    return Renaming(r.src + s.src, r.dst + s.dst, tuple(table))


def naive_extend_renaming(kind, r, binder):
    """Oracle: the table of r + id_binder, built when descending under a binder."""
    return naive_sum_renaming(kind, r, identity_renaming(binder))


def naive_rename(kind, r, e, depth=0):
    """Oracle: tracks binder depth explicitly and reads each variable through
    the coproduct maps of ``kind``: a position of r.src + depth is either an
    outer position i, sent to inl(r(i)), or a bound one j, kept as inr(j)."""
    match e:
        case Var(pos=p):
            side, i = kind.unsum(r.src, depth, p)
            q = kind.inl(r.dst, depth, r(i)) if side == "left" else kind.inr(r.dst, depth, i)
            return Var(q, r.dst + depth)
        case SymApp(sym=sym, args=args, scope=s, cls=c):
            new = tuple(naive_rename(kind, r, a, depth + (a.scope - s)) for a in args)
            return SymApp(sym, new, r.dst + depth, c)
        case MetaApp(idx=m, args=args, cls=c):
            new = tuple(naive_rename(kind, r, a, depth) for a in args)
            return MetaApp(m, new, r.dst + depth, c)


def naive_extend(kind, f, eta):
    """Oracle: the table of f + eta, old entries renamed along inl by ``naive_rename``."""
    src, dst = f.src + eta, f.dst + eta
    table = [None] * dst
    inl = inl_renaming(kind, f.src, eta)
    for i in range(f.dst):
        table[kind.inl(f.dst, eta, i)] = naive_rename(kind, inl, f(i))
    for j in range(eta):
        table[kind.inr(f.dst, eta, j)] = Var(kind.inr(f.src, eta, j), src)
    return Substitution(src, dst, tuple(table))


def naive_substitute(kind, f, e):
    """Oracle: the textbook definition, extending the table under each binder."""
    match e:
        case Var(pos=p):
            return f(p)
        case SymApp(sym=sym, args=args, scope=s, cls=c):
            new = tuple(naive_substitute(kind, naive_extend(kind, f, a.scope - s), a) for a in args)
            return SymApp(sym, new, f.src, c)
        case MetaApp(idx=m, args=args, cls=c):
            return MetaApp(m, tuple(naive_substitute(kind, f, a) for a in args), f.src, c)


def naive_instantiate(kind, inst, e):
    """Oracle: every metavariable occurrence builds the table sending the
    ambient positions to themselves and its binder positions to its
    instantiated arguments, and substitutes it into a copy of its entry."""
    gamma, delta = inst.scope, e.scope
    target = gamma + delta
    match e:
        case Var(pos=p):
            return Var(kind.inr(gamma, delta, p), target)
        case SymApp(sym=sym, args=args, cls=c):
            return SymApp(sym, tuple(naive_instantiate(kind, inst, a) for a in args), target, c)
        case MetaApp(idx=m, args=args):
            binder = inst.arity[m].binder
            table = [None] * (gamma + binder)
            for i in range(gamma):
                table[kind.inl(gamma, binder, i)] = Var(kind.inl(gamma, delta, i), target)
            for j, a in enumerate(args):
                table[kind.inr(gamma, binder, j)] = naive_instantiate(kind, inst, a)
            return naive_substitute(kind, Substitution(target, gamma + binder, tuple(table)), inst(m))


def table_instantiate(kind, inst, e):
    """Oracle: every metavariable occurrence other than the generic pattern
    builds its table, weakening occurrences included, and substitutes it
    into its entry with the kernel's ``substitute_expr``; the generic
    pattern returns its entry."""
    gamma, delta = inst.scope, e.scope
    target = gamma + delta
    match e:
        case Var(pos=p):
            return Var(kind.inr(gamma, delta, p), target)
        case SymApp(sym=sym, args=args, cls=c):
            return SymApp(sym, tuple(table_instantiate(kind, inst, a) for a in args), target, c)
        case MetaApp(idx=m, args=args):
            binder = inst.arity[m].binder
            if is_generic_occurrence(e, binder):
                return inst(m)
            table = [None] * (gamma + binder)
            if kind is ScopeKind.INDICES:
                table[binder:] = [Var(i + delta, target) for i in range(gamma)]
            else:
                table[:gamma] = [Var(i, target) for i in range(gamma)]
            for j, a in enumerate(args):
                table[kind.inr(gamma, binder, j)] = table_instantiate(kind, inst, a)
            return substitute_expr(kind, Substitution(target, gamma + binder, tuple(table)), inst(m))
