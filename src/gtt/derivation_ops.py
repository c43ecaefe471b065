"""Derivation operations the metatheorem transformers share: ``rebuild`` first, which visits the children
a caller selects (all by default), and the theory conditions substitution relies on; checking needs none."""

from __future__ import annotations

from typing import Callable

from .errors import NotSubstitutive, ScopeMismatch
from .judgements import EMPTY_CONTEXT
from .rules import BuiltinRule, RawRule, congruence_rule
from .syntax import Expr, Instantiation, generic_instantiation
from .theories import Hyp, RawTypeTheory, RuleInst, TheoryDerivation


def concat_inst(left: Instantiation, right: Instantiation) -> Instantiation:
    """Pair two instantiations over the same scope into one of the summed arity."""
    if left.scope != right.scope:
        raise ScopeMismatch("instantiations over different scopes")
    return Instantiation(left.arity + right.arity, left.scope, left.exprs + right.exprs)


def derivation_nodes(d: TheoryDerivation):
    """Every node occurrence of ``d``, pre-order, over an explicit stack."""
    stack = [d]
    while stack:
        yield (node := stack.pop())
        stack.extend(reversed(node.children))


def rebuild(d, leaf, step, children=lambda node: node.children):
    """``d`` rebuilt post-order over an explicit stack: a hypothesis leaf h as ``leaf(h)``, another node
    as ``step(node, rebuilt)``, ``rebuilt`` the results for ``children(node)`` (all its children, in premise
    order, unless a caller selects).  A node object met again gives its first result (one memo per call)."""
    memo, done, stack = {}, [], [(d, None)]  # kids None: not expanded; done: results of stacked children
    while stack:
        node, kids = stack.pop()
        if id(node) in memo:
            done.append(memo[id(node)][1])
        elif kids is None and not isinstance(node, Hyp):
            stack += [(node, kids := children(node))] + [(c, None) for c in reversed(kids)]
        else:
            k = len(done) - len(kids or ())
            out = leaf(node) if isinstance(node, Hyp) else step(node, tuple(done[k:]))
            memo[id(node)] = node, out
            done[k:] = [out]
    return done[0]


def map_node(node: TheoryDerivation, fn: Callable[[Expr], Expr], **changes) -> TheoryDerivation:
    """``node`` with a scope- and class-preserving map applied to every
    expression of its data, and the other fields as given in ``changes``
    (``ref``, ``pos``, ``trivial`` and the children stay otherwise)."""
    return node._replace(**{f: getattr(node, f).map_exprs(fn) for f in node.EXPR_FIELDS}, **changes)


def map_derivation_exprs(
    d: TheoryDerivation, fn: Callable[[Expr], Expr], hyp: Callable[[int], int] | None = None
) -> TheoryDerivation:
    """The same tree with ``fn`` applied to every expression of every node.

    ``fn`` must preserve scopes and classes.  ``hyp`` renumbers hypotheses
    (unchanged when None).
    """
    leaf = (lambda h: h) if hyp is None else lambda h: Hyp(hyp(h.index))
    return rebuild(d, leaf, lambda node, children: map_node(node, fn, children=children))


def generic_rule_instance(ref: int, rule: RawRule, shift: int = 0, hyp_shift: int = 0) -> RuleInst:
    """The instance of rule ``ref`` at the generic instantiation of
    ``rule.arity`` (relabelled by ``shift``, see ``generic_instantiation``)
    over the empty context, with premise k cited as ``Hyp(k + hyp_shift)``:
    the derivation of a rule from its own premises.  ``rule`` gives the
    arity and the premise count; it is the rule ``ref`` names, or a rule of
    another theory that a map sends to it."""
    return RuleInst(
        ref, generic_instantiation(rule.arity, shift), EMPTY_CONTEXT,
        tuple(Hyp(k + hyp_shift) for k in range(len(rule.premises))),
    )


def _node_name(theory: RawTypeTheory, node) -> str:
    """A node's kind and, for a rule instance, the name of the rule it cites."""
    match node:
        case RuleInst(ref=BuiltinRule() as ref):
            return f"RuleInst({ref.wire_name})"
        case RuleInst(ref=int() as r):
            return f"RuleInst({theory.rule_name(r)})"
    return type(node).__name__


def find_congruence(theory: RawTypeTheory, rule_index: int) -> int | None:
    """Index of a rule structurally equal to the congruence rule of ``rule_index``.

    Structural equality ignores metavariable names: a theory may name the
    metavariables of its congruence rules as it likes, or not at all.  The
    index is found once per theory object and rule (``memo``).
    """
    key = ("congruence", rule_index)
    if key not in theory.memo:
        target = congruence_rule(theory.kind, theory.rule(rule_index)).shape
        theory.memo[key] = next((j for j, r in enumerate(theory.rules) if r.shape == target), None)
    return theory.memo[key]


def require_substitutive(theory: RawTypeTheory) -> None:
    for i, rule in enumerate(theory.rules):
        if rule.conclusion.context.scope != 0:
            raise NotSubstitutive(f"rule {theory.rule_name(i)} has a non-empty conclusion context")
