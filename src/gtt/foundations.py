"""Closure systems, generic derivations, and finite relations.

Everything here is independent of syntax: derivations are trees over an
arbitrary carrier set X.  Families are ordered finite tuples; the index
set of a family is its positions, so duplicates are allowed and uses of
an element stay tagged with where it came from.

``check_derivation`` is the only loop that checks derivation trees.  The
generic checker runs it with the rules of a closure system; the typed
checker in ``theories`` runs it with ``closure_rule_of_node``, which
recomputes the closure rule a typed node cites.  A tree may be stored as a
DAG that shares node objects; each distinct node object is checked once
per call, and its conclusion is compared with the premise at every
occurrence.  Grafting and maps of closure systems (``presuppositions``)
and the well-foundedness of a finite relation (``acceptability``) live
above the raw layer.
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
    """Finitely many premises and one conclusion, all in the same carrier."""

    premises: tuple[X, ...]
    conclusion: X


# A closure system is just a family of closure rules.
ClosureSystem = tuple


@_record
class Hyp:
    """Leaf citing a hypothesis by its position in the hypothesis family,
    in generic and typed derivations alike."""

    index: int

    @property
    def children(self) -> tuple:
        return ()


@_record
class GStep:
    """Node citing a rule, with one child derivation per premise."""

    rule: int
    children: tuple


GenericDerivation = Hyp | GStep


def check_derivation(
    hyps: tuple[X, ...],
    d,
    rule_of: Callable[[object], ClosureRule],
) -> X:
    """Check a derivation tree over a closure system and return its conclusion.

    This is the one checking loop: a hypothesis leaf (a Hyp) concludes the
    cited hypothesis; at any other node ``rule_of`` gives the closure rule
    the node cites, and each child's conclusion must equal the corresponding
    premise.  Failures carry the path of child indices from the root:
    DerivationError wraps a bad index, a failed ``rule_of`` or a child-count
    mismatch, and PremiseMismatch reports a premise mismatch.  ``rule_of``
    runs before the children are checked, which fixes that order and those
    paths, so the walk is its own, not a post-order ``derivation_ops.rebuild``.

    A derivation may share a node object between several occurrences.  Its
    conclusion depends only on the node and ``hyps``, so each node object is
    checked once per call, at its first occurrence in depth-first order, and
    met again it gives its conclusion without calling ``rule_of``; the parent
    still compares it with the premise at every occurrence.  A tree walk
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
        children = node.children
        if len(children) != len(rule.premises):
            raise DerivationError(
                tuple(path),
                ChildCountMismatch(f"{len(rule.premises)} premises, {len(children)} children"),
            )
        for i, (child, premise) in enumerate(zip(children, rule.premises)):
            path.append(i)
            got = go(child)
            if got != premise:
                raise PremiseMismatch(tuple(path), premise, got)
            path.pop()
        checked[id(node)] = (node, rule.conclusion)
        return rule.conclusion

    return go(d)


def check_generic_derivation(
    system: ClosureSystem, hyps: tuple[X, ...], d: GenericDerivation
) -> X:
    """Check ``d`` over ``system`` and ``hyps`` and return its conclusion."""

    def rule_of(step: GStep) -> ClosureRule:
        if not 0 <= step.rule < len(system):
            raise IndexOutOfRange(f"rule {step.rule} of {len(system)}")
        return system[step.rule]

    return check_derivation(hyps, d, rule_of)


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
