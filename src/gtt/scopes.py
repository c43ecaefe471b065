"""Scopes, renamings, and the two de Bruijn scope systems.

Scopes are plain naturals; a scope n has positions 0..n-1 and the sum of
scopes is addition, so both systems are strict: gamma+0 == gamma and sums
associate on the nose.  The two systems differ only in the coproduct
position maps: indices shift old variables up when entering a binder,
levels give new variables the higher positions.

The module also holds ``_record``, which defines every kernel value of the
package, from the expressions and judgements the checker builds at each
node to signatures, rules, theories, derivation nodes and reports, as a
tuple record: there is no second way to define a value.
"""

from __future__ import annotations

from collections import _tuplegetter
from enum import Enum
from functools import cached_property

from .errors import IndexOutOfRange, ScopeMismatch

Scope = int


class ScopeKind(Enum):
    INDICES = "debruijn-indices"
    LEVELS = "debruijn-levels"

    # Enum equality is identity; Enum.__hash__ is a Python-level call that
    # every weakening-memo lookup would pay
    __hash__ = object.__hash__

    def inl(self, left: Scope, right: Scope, i: int) -> int:
        if not 0 <= i < left:
            raise IndexOutOfRange(f"position {i} of scope {left}")
        return i + right if self is ScopeKind.INDICES else i

    def inr(self, left: Scope, right: Scope, j: int) -> int:
        if not 0 <= j < right:
            raise IndexOutOfRange(f"position {j} of scope {right}")
        return j if self is ScopeKind.INDICES else j + left

    def unsum(self, left: Scope, right: Scope, p: int) -> tuple[str, int]:
        """Invert the coproduct: returns ("left", i) or ("right", j)."""
        if not 0 <= p < left + right:
            raise IndexOutOfRange(f"position {p} of scope {left + right}")
        if self is ScopeKind.INDICES:
            return ("right", p) if p < right else ("left", p - right)
        return ("left", p) if p < left else ("right", p - left)


_REQUIRED = object()


def _record(cls):
    """Rebuild an annotated class as an immutable tuple record.

    The record of ``cls`` with fields f1..fn (its annotations, in order) is
    the tuple (cls, f1, ..., fn).  Element 0 makes equality and hashing,
    which are the tuple's own and run in C, tell records of different
    classes apart; every field takes part in both.  Each field is a
    read-only descriptor over its tuple position, the C one of
    ``collections.namedtuple``, so assigning to it raises AttributeError.
    The methods and properties of ``cls`` carry over.  A class with a base
    class raises TypeError.

    - A class-level value of a field is its default.  A mutable default
      (a dict, list or set) would be shared by every record and raises
      TypeError when the class is built.  A field without a default may
      not follow one with a default; that raises TypeError naming the field.
    - A ``__post_init__`` of ``cls`` runs on every construction, looked up
      on the class at that time.  Its parameters after ``self`` are
      constructor arguments that are not fields, with the defaults it gives
      them.
    - ``r._replace(**changes)`` rebuilds ``r`` through its constructor with
      the given fields changed, so ``__post_init__`` runs again.
    - ``repr`` shows the class name and each field as ``name=value``.
      ``copy``, ``deepcopy`` and ``pickle`` rebuild a record through its
      constructor.
    - A ``functools.cached_property`` keeps the class a ``__dict__`` for its
      value, which is not a field: equality, hashing, repr, ``_replace``,
      copies and pickles leave it out.
    """
    name = cls.__qualname__
    if cls.__bases__ != (object,):
        raise TypeError(f"{name}: a record has no base class")
    ns = dict(vars(cls))
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    fields = tuple(ns.pop("__annotations__", {}))
    specs = [(f, ns.pop(f, _REQUIRED)) for f in fields]
    post = ns.get("__post_init__")
    extra: tuple[str, ...] = ()
    if post is not None:
        code = post.__code__
        extra = code.co_varnames[1:code.co_argcount]
        defaults = dict(zip(reversed(extra), reversed(post.__defaults__ or ())))
        specs += [(p, defaults.get(p, _REQUIRED)) for p in extra]
    scope, params, defaulted = {"_new": tuple.__new__}, [], False
    for f, spec in specs:
        if spec is _REQUIRED:
            if defaulted:
                raise TypeError(f"{name}.{f}: non-default field follows a default")
            params.append(f)
            continue
        if isinstance(spec, (dict, list, set)):
            raise TypeError(f"{name}.{f}: a mutable default {type(spec).__name__} would be shared")
        defaulted = True
        params.append(f"{f}=_default_{f}")
        scope[f"_default_{f}"] = spec
    body = f"_new(_cls, (_cls, {', '.join(fields)}))"
    if post is None:
        src = f"    return {body}\n"
    else:
        src = f"    self = {body}\n    _cls.__post_init__({', '.join(('self',) + extra)})\n    return self\n"
    exec(f"def __new__(_cls, {', '.join(params)}):\n" + src, scope)
    shown = ", ".join(f"{f}={{!r}}" for f in fields)

    def __repr__(self):
        return f"{name}({shown.format(*self[1:])})"

    def __reduce__(self):
        return type(self), self[1:]

    def _replace(self, **changes):
        args = [changes.pop(f, v) for f, v in zip(fields, self[1:])]
        if changes:
            raise TypeError(f"{name} has no constructor field {', '.join(changes)}")
        return type(self)(*args)

    if not any(isinstance(v, cached_property) for v in ns.values()):
        ns["__slots__"] = ()
    ns.update(
        __qualname__=name,
        __new__=scope["__new__"],
        __repr__=__repr__,
        __reduce__=__reduce__,
        __match_args__=fields,
        _replace=_replace,
    )
    for i, f in enumerate(fields, 1):
        ns[f] = _tuplegetter(i, f"Field {f!r}.")
    return type(cls.__name__, (tuple,), ns)


@_record
class Renaming:
    """A total map positions(src) -> positions(dst)."""

    src: Scope
    dst: Scope
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.src:
            raise ScopeMismatch(f"table of length {len(self.table)} for scope {self.src}")
        for v in self.table:
            if not 0 <= v < self.dst:
                raise IndexOutOfRange(f"image {v} outside scope {self.dst}")

    def __call__(self, i: int) -> int:
        if not 0 <= i < self.src:
            raise IndexOutOfRange(f"position {i} of scope {self.src}")
        return self.table[i]


def inl_renaming(kind: ScopeKind, gamma: Scope, delta: Scope) -> Renaming:
    return Renaming(gamma, gamma + delta, tuple(kind.inl(gamma, delta, i) for i in range(gamma)))
