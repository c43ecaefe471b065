"""Acceptability (checked against supplied witnesses: nothing here searches)
and well-foundedness of raw type theories."""

from __future__ import annotations

from .derivation_ops import derivation_nodes, find_congruence, map_derivation_exprs
from .errors import KernelError, NotTight
from .foundations import FinitePoset
from .judgements import Boundary, Judgement, presuppositions
from .jsonio import witness_key
from .rules import RawRule, _exprs
from .scopes import _record
from .syntax import Arity, Expr, SymApp, Var
from .theories import (
    RawTypeTheory, RuleInst, RuleWitnesses, TheoryDerivation, TheoryWitnesses, check_theory_derivation,
)
from .tightness import is_tight, theory_tightness


# --- presuppositivity ---------------------------------------------------------

def presupposition_hypotheses(rule: RawRule, weak: bool) -> tuple[Judgement, ...]:
    hyps = rule.premises
    if weak:
        for p in rule.premises:
            hyps = hyps + presuppositions(p)
    return hyps


def check_presuppositive(
    theory: RawTypeTheory,
    rule: RawRule,
    witnesses: RuleWitnesses | None,
    weak: bool = False,
    diagnostics: list[str] | None = None,
) -> bool:
    """Check the supplied witnesses: every presupposition of the conclusion
    (and, unless weak, of every premise) must be derived from the premises."""
    witnesses = witnesses or RuleWitnesses({}, {})
    witnesses.premises  # read even when weak: it decodes a theory file's entry whole, and so checks it
    hyps = presupposition_hypotheses(rule, weak)
    failures = witness_failures(theory, hyps, rule.conclusion, witnesses, None, rule.arity, rule.meta_names)
    if not weak:
        for i, premise in enumerate(rule.premises):
            failures += witness_failures(theory, hyps, premise, witnesses, i, rule.arity, rule.meta_names)
    if diagnostics is not None:
        diagnostics.extend(failures)
    return not failures


def derivation_failure(
    theory: RawTypeTheory, hyps: tuple[Judgement, ...], d: TheoryDerivation, target: Judgement,
    ambient: Arity, names: tuple[str, ...],
) -> str | None:
    """Why ``d`` does not derive ``target`` from ``hyps`` over the extension
    by ``ambient``: the checker's error, or the judgement it derives
    instead.  None when it derives ``target``.  This is the one derivability
    check of witnesses: presuppositions, premise families, rule-boundaries
    and derived rules (a replacement step's among them)."""
    try:
        got = check_theory_derivation(theory, hyps, d, ambient, names)
    except KernelError as e:
        return f"witness fails to check: {e}"
    return None if got == target else f"witness derives {got!r}, wanted {target!r}"


def witness_failures(
    theory: RawTypeTheory, hyps: tuple[Judgement, ...], j: Judgement | Boundary, witnesses: RuleWitnesses,
    premise: int | None, ambient: Arity, names: tuple[str, ...],
) -> list[str]:
    """One diagnostic for each presupposition of ``j`` whose witness is
    missing or fails, tagged with its JSON witness key: ``j`` is the
    conclusion (``premise`` None) or premise ``premise`` of the rule
    ``witnesses`` belong to."""
    out = []
    for p, target in enumerate(presuppositions(j)):
        d = witnesses.conclusion.get(p) if premise is None else witnesses.premises.get((premise, p))
        failure = "no witness supplied" if d is None else derivation_failure(theory, hyps, d, target, ambient, names)
        if failure is not None:
            out.append(f"{witness_key(premise, p)}: {failure}")
    return out


# --- acceptability ------------------------------------------------------------

@_record
class RuleReport:
    name: str
    tight: bool
    presuppositive: bool
    empty_conclusion_context: bool


@_record
class AcceptabilityReport:
    rules: list[RuleReport]
    tight: bool
    presuppositive: bool
    substitutive: bool
    congruous: bool
    diagnostics: list[str]

    @property
    def acceptable(self) -> bool:
        return self.tight and self.presuppositive and self.substitutive and self.congruous


def check_acceptable_theory(
    theory: RawTypeTheory, witnesses: TheoryWitnesses | None = None, weak: bool = False
) -> AcceptabilityReport:
    """Tightness, presuppositivity (weak presuppositivity if ``weak``: see
    ``check_presuppositive``), substitutivity and congruousness."""
    witnesses = witnesses or {}
    diagnostics: list[str] = []
    rule_reports = []
    all_presup = True
    for i, rule in enumerate(theory.rules):
        name = theory.rule_name(i)
        tight = is_tight(rule)
        presup = check_presuppositive(theory, rule, witnesses.get(name), weak, diagnostics)
        empty = rule.conclusion.context.scope == 0
        if not tight:
            diagnostics.append(f"rule {name} is not tight")
        if not presup:
            diagnostics.append(f"rule {name} is not presuppositive with the supplied witnesses")
        if not empty:
            diagnostics.append(f"rule {name} has a non-empty conclusion context")
        all_presup &= presup
        rule_reports.append(RuleReport(name, tight, presup, empty))
    try:
        theory_tightness(theory)
        theory_tight = True
    except NotTight as e:
        theory_tight = False
        diagnostics.append(str(e))
    substitutive = all(r.empty_conclusion_context for r in rule_reports)
    congruous = True
    for i, rule in enumerate(theory.rules):
        if rule.is_object and find_congruence(theory, i) is None:
            congruous = False
            diagnostics.append(f"no congruence rule for {theory.rule_name(i)}")
    return AcceptabilityReport(rule_reports, theory_tight, all_presup, substitutive, congruous, diagnostics)


# --- well-founded theories ------------------------------------------------------

def subexpressions(e: Expr):
    """Every node of ``e``, each before its arguments, read off an explicit
    stack; in both scope kinds a node sits under ``node.scope - e.scope``
    binders."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if type(node) is not Var:
            stack.extend(reversed(node.args))


def expr_symbols(*es: Expr) -> frozenset[int]:
    """Base symbol indices occurring anywhere in the expressions."""
    return frozenset(node.sym for e in es for node in subexpressions(e) if type(node) is SymApp)


def down_sets(p: FinitePoset) -> tuple[frozenset[int], ...]:
    """Each element's strict down-set: the elements with a path of edges to
    it, so an element on a cycle lies below itself."""
    direct: list[set[int]] = [set() for _ in range(p.size)]
    for i, j in p.edges:
        direct[j].add(i)
    out = []
    for x in range(p.size):
        below, stack = set(), list(direct[x])
        while stack:
            if (y := stack.pop()) not in below:
                below.add(y)
                stack.extend(direct[y])
        out.append(frozenset(below))
    return tuple(out)


def rule_symbols(rule: RawRule) -> frozenset[int]:
    """Symbols a rule depends on; the defining head of an object rule is the
    symbol being introduced, so only its arguments count there."""
    c = rule.conclusion
    head = () if c.head is None else c.head.args if type(c.head) is SymApp else (c.head,)
    return expr_symbols(*(e for p in rule.premises for e in _exprs(p)), *c.context.types, *c.boundary, *head)


def derivation_provenance(d: TheoryDerivation) -> tuple[frozenset[int], frozenset[int]]:
    """(symbols, specific rule indices) a derivation's nodes mention."""
    exprs: list[Expr] = []
    map_derivation_exprs(d, lambda e: exprs.append(e) or e)
    cited = frozenset(n.ref for n in derivation_nodes(d) if isinstance(n, RuleInst) and isinstance(n.ref, int))
    return expr_symbols(*exprs), cited


@_record
class WellFoundedReport:
    ok: bool
    diagnostics: list[str]


def required_precedence(
    theory: RawTypeTheory,
    beta: dict[int, int],
    witnesses: TheoryWitnesses | None = None,
) -> tuple[frozenset[tuple[int, int]], list[str]]:
    """Edges (i, j): rule i must precede rule j, from symbol occurrences and
    witness provenance."""
    edges: set[tuple[int, int]] = set()
    for j, rule in enumerate(theory.rules):
        for s in rule_symbols(rule):
            edges.add((beta[s], j))
        w = (witnesses or {}).get(theory.rule_name(j))
        if w is None:
            continue
        for dv in list(w.conclusion.values()) + list(w.premises.values()):
            syms, cited = derivation_provenance(dv)
            for s in syms:
                edges.add((beta[s], j))
            for r in cited:
                edges.add((r, j))
    diagnostics = [f"rule {theory.rule_name(j)} depends on itself" for i, j in sorted(edges) if i == j]
    return frozenset(edges), diagnostics


def check_well_founded_theory(
    theory: RawTypeTheory,
    order: FinitePoset | None = None,
    witnesses: TheoryWitnesses | None = None,
    beta: dict[int, int] | None = None,
) -> WellFoundedReport:
    """Acyclicity of the dependency constraints, and conformance of a supplied order.

    The constraints: every symbol occurring in a rule must be introduced by an
    earlier rule, and every witness may cite only earlier symbols and rules.
    A cyclic constraint is reported by its shortest cycle through the first
    rule that lies below itself, read off ``down_sets``: a breadth-first
    search over the rules below that one, smallest successor first.
    """
    if beta is None:
        try:
            beta = theory_tightness(theory)
        except NotTight as e:
            return WellFoundedReport(False, [str(e)])
    edges, diagnostics = required_precedence(theory, beta, witnesses)
    n = len(theory.rules)
    constraint = FinitePoset.of(n, {(i, j) for i, j in edges if i != j})
    below = down_sets(constraint)
    start = next((x for x in range(n) if x in below[x]), None)
    if start is not None:
        successors: dict[int, list[int]] = {i: [] for i in below[start]}
        for i, j in sorted(constraint.edges):
            if i in successors and j in successors:
                successors[i].append(j)
        parent: dict[int, int] = {}
        queue = [start]
        for i in queue:  # breadth first: the queue grows as it is read
            for j in successors[i]:
                if j not in parent:
                    parent[j] = i
                    queue.append(j)
        cycle = [parent[start]]
        while cycle[-1] != start:
            cycle.append(parent[cycle[-1]])
        names = " < ".join(theory.rule_name(i) for i in reversed(cycle))
        diagnostics.append(f"dependency cycle: {names}")
    if order is not None:
        below = down_sets(order)
        for i, j in sorted(edges):
            if i == j or i not in below[j]:
                diagnostics.append(
                    f"order does not place {theory.rule_name(i)} before {theory.rule_name(j)}"
                )
        if any(x in b for x, b in enumerate(below)):
            diagnostics.append("supplied order is cyclic")
    return WellFoundedReport(not diagnostics, diagnostics)
