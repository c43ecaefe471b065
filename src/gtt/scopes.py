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


class _Fresh:
    """The default of a record field that is built anew, by calling
    ``factory``, at each construction that leaves the field out; a mutable
    table is then never shared between records."""

    __slots__ = ("factory",)

    def __init__(self, factory):
        self.factory = factory


class _Derived:
    """A record field that the constructor computes from other fields: ``fn``
    is called with the fields its parameters name.  It is not a constructor
    argument, and repr, ``_replace``, copies and pickles leave it out."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn


_REQUIRED = object()
_MISSING = object()


def _record(cls):
    """Rebuild an annotated class as an immutable tuple record.

    The record of ``cls`` with fields f1..fn (its annotations, in order,
    after those of a record base) is the tuple (cls, f1, ..., fn).  Element
    0 makes equality and hashing, which are the tuple's own and run in C,
    tell records of different classes apart; every field takes part in
    both.  Each field is a read-only descriptor over its tuple position,
    the C one of ``collections.namedtuple``, so assigning to it raises
    AttributeError.  The methods and properties of ``cls`` carry over.

    - A class-level value of a field is its default.  A mutable default
      (a dict, list or set) would be shared by every record and raises
      TypeError when the class is built; ``_Fresh(factory)`` builds a new
      one at each construction instead.  ``_Derived(fn)`` marks a field the
      constructor computes.  A field without a default may not follow one
      with a default; that raises TypeError naming the field.
    - A ``__post_init__`` defined by ``cls`` or a record base runs on every
      construction, looked up on the class at that time.  Its parameters
      after ``self`` are constructor arguments that are not fields, with
      the defaults it gives them.
    - ``r._replace(**changes)`` rebuilds ``r`` through its constructor with
      the given fields changed, so ``__post_init__`` runs again.
    - ``repr`` shows the class name and each constructor field as
      ``name=value``.  ``copy``, ``deepcopy`` and ``pickle`` rebuild a
      record through its constructor.
    - A ``functools.cached_property`` keeps the class a ``__dict__`` for its
      value, which is not a field: equality, hashing, repr, ``_replace``,
      copies and pickles leave it out.
    """
    ns = dict(vars(cls))
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    name = cls.__qualname__
    specs: dict = {}
    for base in cls.__bases__:
        specs.update(getattr(base, "_field_specs", {}))
    for f in ns.pop("__annotations__", {}):
        specs[f] = ns.pop(f, _REQUIRED)
    fields = tuple(specs)
    init = tuple(f for f in fields if not isinstance(specs[f], _Derived))
    post = getattr(cls, "__post_init__", None)
    extra: tuple[str, ...] = ()
    defaults: dict = {}
    if post is not None:
        code = post.__code__
        extra = code.co_varnames[1:code.co_argcount]
        defaults = dict(zip(reversed(extra), reversed(post.__defaults__ or ())))
    scope = {"_new": tuple.__new__, "_missing": _MISSING}
    params, prologue, values = [], [], []
    defaulted = False
    for f, spec in [(f, specs[f]) for f in init] + [(p, defaults.get(p, _REQUIRED)) for p in extra]:
        if spec is _REQUIRED:
            if defaulted:
                raise TypeError(f"{name}.{f}: non-default field follows a default")
            params.append(f)
            continue
        defaulted = True
        if isinstance(spec, (dict, list, set)):
            raise TypeError(f"{name}.{f}: a mutable default {type(spec).__name__} would be shared; use _Fresh")
        elif isinstance(spec, _Fresh):
            params.append(f"{f}=_missing")
            prologue.append(f"    if {f} is _missing:\n        {f} = _make_{f}()\n")
            scope[f"_make_{f}"] = spec.factory
        else:
            params.append(f"{f}=_default_{f}")
            scope[f"_default_{f}"] = spec
    for f in fields:
        spec = specs[f]
        if isinstance(spec, _Derived):
            code = spec.fn.__code__
            values.append(f"_derive_{f}({', '.join(code.co_varnames[:code.co_argcount])})")
            scope[f"_derive_{f}"] = spec.fn
        else:
            values.append(f)
    body = f"_new(_cls, (_cls, {', '.join(values)}))"
    if post is None:
        src = f"    return {body}\n"
    else:
        src = f"    self = {body}\n    _cls.__post_init__({', '.join(('self',) + extra)})\n    return self\n"
    exec(f"def __new__(_cls, {', '.join(params)}):\n" + "".join(prologue) + src, scope)
    at = {f: i for i, f in enumerate(fields, 1)}
    init_at = tuple(at[f] for f in init)
    shown = ", ".join(f"{f}={{!r}}" for f in init)

    def __repr__(self):
        return f"{name}({shown.format(*map(self.__getitem__, init_at))})"

    def __reduce__(self):
        return type(self), tuple(map(self.__getitem__, init_at))

    def _replace(self, **changes):
        args = [changes.pop(f, self[i]) for f, i in zip(init, init_at)]
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
        __match_args__=init,
        _replace=_replace,
        _field_specs=specs,
    )
    for f, i in at.items():
        ns[f] = _tuplegetter(i, f"Field {f!r}.")
    bases = tuple(b for b in cls.__bases__ if b is not object)
    if not any(issubclass(b, tuple) for b in bases):
        bases = (tuple,) + bases
    return type(cls)(cls.__name__, bases, ns)


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
