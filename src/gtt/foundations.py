"""Closure systems, the derivation checker, and finite relations.

Everything here is independent of syntax: derivations are trees over an
arbitrary carrier set X.  Families are ordered finite tuples; the index
set of a family is its positions, so duplicates are allowed and uses of
an element stay tagged with where it came from.

``check_derivation`` is the only loop that checks derivation trees: the
paper's derivability in a closure system, for any ``rule_of`` that gives
the ``ClosureRule`` a node cites.  The typed checker in ``theories`` is one
instance of it, with ``closure_rule_of_node``, which recomputes the closure
rule a typed node cites.  Grafting (``presuppositions``) and the
well-foundedness of a finite relation (``acceptability``) live above the
raw layer.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from .errors import (
    ChildCountMismatch,
    DerivationError,
    IndexOutOfRange,
    KernelError,
    PremiseMismatch,
)
from .scopes import _record

X = TypeVar("X")


@_record
class ClosureRule:
    """Finitely many premises and one conclusion, all in the same carrier.
    ``check_derivation`` reads a rule through ``premise_count``, ``matches``
    and ``premise``, which ``rules.RuleInstance`` answers too."""

    premises: tuple[X, ...]
    conclusion: X

    @property
    def premise_count(self) -> int:
        return len(self.premises)

    def premise(self, i: int) -> X:
        return self.premises[i]

    def matches(self, i: int, got: X) -> bool:
        return got == self.premises[i]


@_record
class Hyp:
    """Leaf citing a hypothesis by its position in the hypothesis family:
    the one leaf of every derivation tree that ``check_derivation`` walks."""

    index: int

    @property
    def children(self) -> tuple:
        return ()


def check_derivation(hyps: tuple[X, ...], d, rule_of: Callable[[object], ClosureRule]) -> X:
    """Check a derivation tree over a closure system and return its conclusion.

    This is the one checking loop: a hypothesis leaf (a Hyp) concludes the
    cited hypothesis; at any other node ``rule_of`` gives the closure rule
    the node cites, and each child's conclusion must equal the corresponding
    premise, which ``rule.matches`` decides: a rule instance does so without
    building the premise (``rules.RuleInstance``), and ``rule.premise`` is
    built only to report a mismatch.  Failures carry the path of child
    indices from the root: DerivationError wraps a bad index, a failed
    ``rule_of`` or a child-count mismatch, and PremiseMismatch reports a
    premise mismatch.  ``rule_of`` runs before the children are checked,
    which fixes that order and those paths, so the walk is its own, not a
    post-order ``derivation_ops.rebuild``.

    A derivation may share a node object between several occurrences.  Its
    conclusion depends only on the node and ``hyps``, so each node object is
    checked once per call, at its first occurrence in depth-first order, and
    met again it gives its conclusion without calling ``rule_of``; the parent
    still matches it with the premise at every occurrence.  A tree walk
    raises the same errors at the same paths.
    """
    # id -> (node, conclusion); holding the node keeps its id from reuse
    checked: dict[int, tuple[object, X]] = {}
    path: list[int] = []  # child indices from the root to the node at hand

    def go(node):
        if isinstance(node, Hyp):
            k = node.index
            if not 0 <= k < len(hyps):
                raise DerivationError(tuple(path), IndexOutOfRange(f"hypothesis {k} of {len(hyps)}"))
            return hyps[k]
        seen = checked.get(id(node))
        if seen is not None:
            return seen[1]
        try:
            rule = rule_of(node)
        except KernelError as e:
            raise DerivationError(tuple(path), e) from e
        children, n = node.children, rule.premise_count
        if len(children) != n:
            raise DerivationError(tuple(path), ChildCountMismatch(f"{n} premises, {len(children)} children"))
        for i, child in enumerate(children):
            path.append(i)
            got = go(child)
            if not rule.matches(i, got):
                raise PremiseMismatch(tuple(path), rule.premise(i), got)
            path.pop()
        checked[id(node)] = (node, rule.conclusion)
        return rule.conclusion

    return go(d)


@_record
class FinitePoset:
    """A relation on {0..size-1}; well-founded iff its transitive closure is
    irreflexive (``acceptability.check_well_founded``)."""

    size: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.edges:
            if not (0 <= i < self.size and 0 <= j < self.size):
                raise IndexOutOfRange(f"edge ({i},{j}) outside 0..{self.size - 1}")

    @staticmethod
    def of(size: int, edges: Iterable[tuple[int, int]] = ()) -> "FinitePoset":
        return FinitePoset(size, frozenset(edges))
