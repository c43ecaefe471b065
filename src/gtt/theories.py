"""Raw type theories, typed derivation trees, and the kernel checker.

A derivation node stores the data of the closure-rule instance it cites
(context, instantiation, substitution, ...); the checker recomputes the
instance from that data and matches each child's conclusion against the
corresponding premise.  The typed checker is the closure-system loop
``foundations.check_derivation`` run with ``closure_rule_of_node``: a
derivation of a raw type theory is a derivation in its associated closure
system, whose judgements are well formed over the signature.

A derivation has five kinds of node.  ``RuleInst`` instantiates a raw
rule, either a rule of the theory or one of the eight built-in
equivalence and conversion rules of ``rules``; ``VariableInst``,
``SubstInst`` and ``EqSubstInst`` are the schematic structural families;
``Hyp``, the leaf of ``foundations``' closure-system derivations, cites
a hypothesis.  ``derivation_ops.rebuild`` and ``map_node`` are
the one rebuild of a derivation and the one map over a node's data (its
``EXPR_FIELDS``): the transformers build with them, this module only checks.

Well-formedness is a property of the whole tree, so each expression is
validated once, where it enters, and elsewhere by equality:

- the root's conclusion is validated once (``validate_judgement``);
- a node's context is its conclusion's context: for a variable or
  substitution node, and for a rule whose conclusion has an empty context
  (every bundled rule and the eight built-in rules) it is the same object.
  Under a rule whose conclusion has a context it enters the conclusion
  weakened.  Weakening (``syntax._shift``) adds the same amount to every
  scope field and to every variable at or above its cut, and below
  well-scoped nodes the cut is at most the variable's scope; so the first
  check of ``validate_expr`` that fails on an entry fails on its
  weakening too;
- an instantiation entry of a metavariable in ``RawRule.exposed`` sits in
  the conclusion verbatim; the others, listed in ``RawRule.plan``, are
  validated at the node;
- a substitution node validates its judgement and its tables: the
  substituted judgement may drop a term of the table, and a premise-free
  rule may expose that term below it, so nothing else would see it.

Induction from the root, for a theory whose rules are well formed over
their metavariable extensions (``RawTypeTheory`` validates them when it
is built): each node's conclusion is valid (the root's by validation, a
child's by equality with its parent's premise).  So are its context and
its exposed entries, which the conclusion contains, and the rest of its
data is validated explicitly.  Its premises, instances of valid templates
over valid data, are then valid, and so is each child's conclusion, which
equals one of them.  A hypothesis leaf is matched with a valid premise and
needs nothing more.

A derivation may share node objects, and ``check_derivation`` recomputes
the closure rule of each distinct node object once per check (see its
docstring); the induction above runs over the occurrences all the same.

A rule node is checked by its rule's node plan (``RawRule.plan``,
compiled once per rule): it validates the hidden entries, extends its
context by the planned inner types (one weakening memo per check,
``judgements.extend_context``, weakens each distinct type once) and
builds its conclusion, each slot an entry, a symbol over entries or a
template to instantiate.  It builds no premise: ``RuleInstance.matches``
compares a child's slots with the planned ones, and only a
``PremiseMismatch`` builds the premise it reports.  No check is lost: a
premise that matches equals a child's conclusion or a hypothesis, a
``Judgement`` whose constructor has already validated it.  Variable and
substitution nodes build their premises.

A witness bundle (``RuleWitnesses``, ``TheoryWitnesses``) is a set of
derivations over a raw theory, so it is defined here: the raw layer reads
and writes theory files without loading a metatheorem.

Derivations over a metavariable extension of the theory's signature reuse
the same trees: pass the extension arity as ``ambient``.  Base symbol
indices stay valid and MetaApp nodes refer to the ambient extension.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ArityMismatch, IndexOutOfRange, KernelError
from .foundations import ClosureRule, Hyp, check_derivation
from .scopes import ScopeKind, _record
from .syntax import TM, Arity, Instantiation, Signature, Substitution, mv_extend_signature, validate_expr
from .judgements import Judgement, RawContext, WeakeningMemo, validate_judgement
from .rules import (
    BuiltinRule, RawRule, equality_substitution_rule, instantiate_rule, substitution_rule, variable_rule,
)


@_record
class RawTypeTheory:
    """Rules over a signature, each validated against its metavariable
    extension when the theory is built.

    ``rule_names`` take part in equality.  A theory built with ``prefix``,
    an existing theory over the same signature whose rules begin this
    one's, validates only the rules after that prefix: the prefix's rules
    were validated when it was built.  The prefix is a constructor input,
    not a field.
    """

    signature: Signature
    rules: tuple[RawRule, ...]
    rule_names: tuple[str, ...] = ()

    def __post_init__(self, prefix: RawTypeTheory | None = None):
        if self.rule_names and len(self.rule_names) != len(self.rules):
            raise ArityMismatch("rule name list does not match rule count")
        known = 0
        if prefix is not None:
            if prefix.signature != self.signature or self.rules[:len(prefix.rules)] != prefix.rules:
                raise ArityMismatch("the prefix theory does not begin this theory")
            known = len(prefix.rules)
        for rule in self.rules[known:]:
            _validate_rule(self.signature, rule)

    @cached_property
    def memo(self) -> dict:
        """What this object's conditions came to, filled on first use and not
        a field: the symbol-rule bijection of ``tightness.theory_tightness``
        and the congruence rules ``derivation_ops.find_congruence`` found,
        each as an immutable value.  A copy, pickle or ``_replace`` starts
        empty."""
        return {}

    @property
    def kind(self) -> ScopeKind:
        return self.signature.kind

    def rule(self, ref: int | BuiltinRule) -> RawRule:
        """The raw rule a node cites: a built-in rule, or rule ``ref`` of the theory."""
        if isinstance(ref, BuiltinRule):
            return ref.rule
        if not (isinstance(ref, int) and 0 <= ref < len(self.rules)):
            raise IndexOutOfRange(f"rule {ref!r} of {len(self.rules)}")
        return self.rules[ref]

    def rule_name(self, i: int) -> str:
        return self.rule_names[i] if self.rule_names else f"rule{i}"

    def rule_index(self, name: str) -> int:
        for i, n in enumerate(self.rule_names):
            if n == name:
                return i
        raise IndexOutOfRange(f"no rule named {name!r}")


def _validate_rule(sig: Signature, rule: RawRule) -> None:
    ext = mv_extend_signature(sig, rule.arity)
    for j in rule.premises + (rule.conclusion,):
        validate_judgement(ext, j)


# --- derivation nodes --------------------------------------------------------
#
# Each node other than a hypothesis carries a context (its conclusion's) and its
# children in premise order, all ``derivation_ops.rebuild`` reads; ``EXPR_FIELDS``
# names the fields that hold expressions, all ``map_node`` needs of a node kind.

@_record
class RuleInst:
    """An instance of a raw rule: ``ref`` is a rule index of the theory or
    one of the eight members of ``rules.BuiltinRule``."""

    ref: int | BuiltinRule
    inst: Instantiation
    context: RawContext
    children: tuple
    EXPR_FIELDS = ("inst", "context")


@_record
class VariableInst:
    context: RawContext
    pos: int
    children: tuple
    EXPR_FIELDS = ("context",)


@_record
class SubstInst:
    subst: Substitution
    context: RawContext          # the target context the conclusion lives in
    trivial: frozenset[int]      # positions of the source context not re-checked
    judgement: Judgement         # the judgement being substituted into
    children: tuple
    EXPR_FIELDS = ("subst", "context", "judgement")


@_record
class EqSubstInst:
    left: Substitution
    right: Substitution
    context: RawContext
    trivial: frozenset[int]
    judgement: Judgement
    children: tuple
    EXPR_FIELDS = ("left", "right", "context", "judgement")


TheoryDerivation = Hyp | RuleInst | VariableInst | SubstInst | EqSubstInst


@_record
class RuleWitnesses:
    """Derivations of presuppositions, over the rule's premises as hypotheses.

    ``conclusion[p]`` derives the p-th presupposition of the conclusion;
    ``premises[(i, p)]`` the p-th presupposition of premise i.  All are over
    the theory at ambient arity(rule), with Hyp(k) citing premise k (the
    weak reading appends premise presuppositions after the premises; strong
    witnesses never cite those, so the same derivations serve both).
    """

    conclusion: dict[int, TheoryDerivation]
    premises: dict[tuple[int, int], TheoryDerivation]


TheoryWitnesses = dict[str, RuleWitnesses]


def ambient_signature(theory: RawTypeTheory, ambient: Arity | None, names: tuple[str, ...] = ()) -> Signature:
    if ambient is None:
        return theory.signature
    return mv_extend_signature(theory.signature, ambient, names)


def closure_rule_of_node(
    theory: RawTypeTheory, sig: Signature, node: TheoryDerivation, memo: WeakeningMemo | None = None
) -> ClosureRule:
    """Recompute the closure rule a node cites.

    The node's context is its conclusion's, and the entries the conclusion
    shows are in it verbatim: only the rest of the data is validated here
    (see the module docstring).  ``memo`` goes to ``instantiate_rule``.
    """
    kind, t = sig.kind, type(node)
    if t is RuleInst:
        inst, ref, rules = node.inst, node.ref, theory.rules  # a rule index is looked up without a call
        rule = rules[ref] if type(ref) is int and 0 <= ref < len(rules) else theory.rule(ref)
        ar = inst.arity  # of another length, it is refused by instantiate_rule after these validations
        for m in (*rule.plan[0], *range(len(rule.arity), len(ar))):
            if m < len(ar):
                validate_expr(sig, inst.exprs[m], inst.scope + ar[m].binder, ar[m].cls)
        return instantiate_rule(kind, inst, node.context, rule, memo)
    if t is VariableInst:
        return variable_rule(node.context, node.pos)
    if t is SubstInst:
        validate_judgement(sig, node.judgement)
        _validate_table(sig, node.subst)
        return substitution_rule(kind, node.subst, node.context, node.trivial, node.judgement)
    if t is EqSubstInst:
        f, g, j = node.left, node.right, node.judgement
        validate_judgement(sig, j)
        _validate_table(sig, f)
        _validate_table(sig, g)
        return equality_substitution_rule(kind, f, g, node.context, node.trivial, j)
    raise KernelError(f"not a derivation node: {node!r}")


def _validate_table(sig: Signature, f: Substitution) -> None:
    for t in f.table:
        validate_expr(sig, t, f.src, TM)


def check_theory_derivation(
    theory: RawTypeTheory,
    hyps: tuple[Judgement, ...],
    d: TheoryDerivation,
    ambient: Arity | None = None,
    ambient_names: tuple[str, ...] = (),
) -> Judgement:
    """Check ``d`` against the theory's closure system and return its conclusion.

    ``hyps`` are the allowed hypothesis judgements; ``ambient`` moves the
    whole check to the metavariable extension of the theory's signature.
    The root's conclusion is validated once, before its children are
    checked; every other node validates only the data its conclusion does
    not show (see the module docstring).  A hypothesis at the root is
    returned as given, as at every leaf.  One weakening memo serves the
    whole check, so each distinct type of its contexts is weakened once.
    """
    sig = ambient_signature(theory, ambient, ambient_names)
    memo: WeakeningMemo = {}

    def rule_of(node: TheoryDerivation) -> ClosureRule:
        rule = closure_rule_of_node(theory, sig, node, memo)
        if node is d:
            validate_judgement(sig, rule.conclusion)
        return rule

    return check_derivation(hyps, d, rule_of)
