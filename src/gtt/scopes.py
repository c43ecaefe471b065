"""Scopes, renamings, and the two de Bruijn scope systems.

Scopes are plain naturals; a scope n has positions 0..n-1 and the sum of
scopes is addition, so both systems are strict: gamma+0 == gamma and sums
associate on the nose.  The two systems differ only in the coproduct
position maps: indices shift old variables up when entering a binder,
levels give new variables the higher positions.

The module also holds ``_record``, which the layers above use to build
their per-premise values (expressions, contexts, judgements, closure
rules) as immutable tuple records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .errors import IndexOutOfRange, ScopeMismatch

Scope = int

EMPTY_SCOPE: Scope = 0


class ScopeKind(Enum):
    INDICES = "debruijn-indices"
    LEVELS = "debruijn-levels"

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


def sum_scope(gamma: Scope, delta: Scope) -> Scope:
    return gamma + delta


@dataclass(frozen=True)
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

    @staticmethod
    def identity(scope: Scope) -> "Renaming":
        return Renaming(scope, scope, tuple(range(scope)))


def inl_renaming(kind: ScopeKind, gamma: Scope, delta: Scope) -> Renaming:
    return Renaming(gamma, gamma + delta, tuple(kind.inl(gamma, delta, i) for i in range(gamma)))


def inr_renaming(kind: ScopeKind, gamma: Scope, delta: Scope) -> Renaming:
    return Renaming(delta, gamma + delta, tuple(kind.inr(gamma, delta, j) for j in range(delta)))


def _record(cls):
    """Rebuild an annotated class as an immutable tuple record.

    The record of ``cls`` with fields f1..fn (its annotations, in order) is
    the tuple (cls, f1, ..., fn).  Element 0 makes equality and hashing,
    which are the tuple's own and run in C, tell records of different
    classes apart.  Each field is a read-only property over a C
    ``itemgetter``, as in ``collections.namedtuple``, so assigning to it
    raises AttributeError.  A ``__post_init__`` defined by ``cls`` runs on
    every construction, looked up on the class at that time.  ``repr``
    reads like a dataclass's, and ``copy``, ``deepcopy`` and ``pickle``
    rebuild a record through its constructor.  The methods and properties
    of ``cls`` carry over.
    """
    ns = dict(vars(cls))
    fields = tuple(ns.pop("__annotations__", {}))
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    params = ", ".join(fields)
    body = f"_new(_cls, (_cls, {params}))"
    if "__post_init__" in ns:
        src = f"def __new__(_cls, {params}):\n    self = {body}\n    _cls.__post_init__(self)\n    return self\n"
    else:
        src = f"def __new__(_cls, {params}):\n    return {body}\n"
    scope = {"_new": tuple.__new__}
    exec(src, scope)
    name = cls.__qualname__
    shown = ", ".join(f"{f}={{!r}}" for f in fields)

    def __repr__(self):
        return f"{name}({shown.format(*self[1:])})"

    def __reduce__(self):
        return type(self), self[1:]

    ns.update(
        __slots__=(),
        __new__=scope["__new__"],
        __repr__=__repr__,
        __reduce__=__reduce__,
        __match_args__=fields,
    )
    for i, f in enumerate(fields, 1):
        ns[f] = property(itemgetter(i), doc=f"Field {f!r}.")
    bases = (tuple,) + tuple(b for b in cls.__bases__ if b is not object)
    return type(cls)(cls.__name__, bases, ns)
