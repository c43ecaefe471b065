"""Generic derivations: trees over an arbitrary closure system, their
checker, and the action of a map of closure systems on them.

A generic derivation is a hypothesis leaf (``foundations.Hyp``) or a
``GStep`` citing a rule of the system by its index.  Its checker is the one
loop ``foundations.check_derivation`` run with the rules of the system, and
a map of closure systems acts on it by grafting (``presuppositions.graft``).
No command runs these: they are the paper's derivability in a closure
system for library callers, and only the ``metatheory`` index, which no
module of the package imports, imports this module.
"""

from __future__ import annotations

from .derivation_ops import rebuild
from .errors import IndexOutOfRange
from .foundations import ClosureRule, ClosureSystem, Hyp, check_derivation
from .presuppositions import graft
from .scopes import _record


@_record
class GStep:
    """Node citing a rule, with one child derivation per premise."""

    rule: int
    children: tuple


GenericDerivation = Hyp | GStep


def check_generic_derivation(system: ClosureSystem, hyps: tuple, d: GenericDerivation):
    """Check ``d`` over ``system`` and ``hyps`` and return its conclusion."""

    def rule_of(step: GStep) -> ClosureRule:
        if not 0 <= step.rule < len(system):
            raise IndexOutOfRange(f"rule {step.rule} of {len(system)}")
        return system[step.rule]

    return check_derivation(hyps, d, rule_of)


def map_derivation(rule_images: tuple[GenericDerivation, ...], d: GenericDerivation) -> GenericDerivation:
    """Push ``d`` along a map of closure systems: ``rule_images[r]`` derives,
    over the target system, the image of rule r's conclusion from the images
    of its premises (premise i as hypothesis i).  Hypothesis leaves are kept."""

    def step(node, children):
        if not isinstance(node, GStep):
            raise TypeError(f"not a derivation node: {node!r}")
        if not 0 <= node.rule < len(rule_images):
            raise IndexOutOfRange(f"rule {node.rule} of {len(rule_images)}")
        return graft(rule_images[node.rule], children)

    return rebuild(d, lambda h: h, step)
