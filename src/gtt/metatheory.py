"""Well-behavedness checks and the metatheorems as derivation transformers.

Derivability is undecidable for arbitrary raw theories, so nothing here
searches: presuppositivity and friends are checked against supplied
witness derivations, and the metatheorems are constructive transformers
whose outputs re-check against the kernel.
"""

from __future__ import annotations

import operator
from typing import Callable

from . import derive
from .errors import (
    ClassMismatch, FillerConclusionMismatch, IndexOutOfRange, KernelError, MissingWitness, NoBijection,
    NotCongruous, NotObjectRule, NotSubstitutive, NotTight, ScopeMismatch, TrivialityViolated,
)
from .foundations import FinitePoset, GenericDerivation, GHyp, GStep
from .judgements import (
    EMPTY_CONTEXT,
    Judgement,
    JudgementForm,
    RawContext,
    WeakeningMemo,
    instantiate_context,
    instantiate_judgement,
    is_type,
    presuppositions,
)
from .rules import (
    BuiltinRule,
    RawRule,
    acts_trivially,
    congruence_rule,
    generic_application,
)
from .scopes import Renaming, Scope, ScopeKind, _record, inl_renaming
from .syntax import (
    TM,
    Expr,
    Instantiation,
    MetaApp,
    Signature,
    Substitution,
    SymApp,
    Var,
    generic_instantiation,
    generic_meta,
    instantiate_expr,
    substitute_expr,
)
from .theories import (
    EqSubstInst,
    Hyp,
    RawTypeTheory,
    RuleInst,
    RuleWitnesses,
    SubstInst,
    TheoryDerivation,
    TheoryWitnesses,
    VariableInst,
    check_theory_derivation,
)

# --- syntax and derivation operations of the transformers -------------------------
# (here, not in the raw layer: checking a derivation needs none of them)

def compose_subst(kind: ScopeKind, g: Substitution, f: Substitution) -> Substitution:
    """g after f in the contravariant sense: (g o f)(k) = substitute(f, g(k)).

    With f : gamma -> delta and g : delta -> theta this is gamma -> theta.
    """
    if g.src != f.dst:
        raise ScopeMismatch(f"cannot compose {g.src}<-? with ?->{f.dst}")
    return Substitution(f.src, g.dst, tuple(substitute_expr(kind, f, g(k)) for k in range(g.dst)))


def inst_act_subst(kind: ScopeKind, inst: Instantiation, f: Substitution) -> Substitution:
    """I acting on f : delta' -> delta gives gamma+delta' -> gamma+delta."""
    gamma = inst.scope
    src, dst = gamma + f.src, gamma + f.dst
    table: list[Expr] = [None] * dst  # type: ignore[list-item]
    for i in range(gamma):
        table[kind.inl(gamma, f.dst, i)] = Var(kind.inl(gamma, f.src, i), src)
    for j in range(f.dst):
        table[kind.inr(gamma, f.dst, j)] = instantiate_expr(kind, inst, f(j))
    return Substitution(src, dst, tuple(table))


def inst_act_inst(kind: ScopeKind, inst: Instantiation, other: Instantiation) -> Instantiation:
    """I acting on J pointwise; the result lives in scope I.scope + J.scope."""
    return Instantiation(
        other.arity,
        inst.scope + other.scope,
        tuple(instantiate_expr(kind, inst, e) for e in other.exprs),
    )


def subst_act_inst(kind: ScopeKind, f: Substitution, inst: Instantiation, k: Scope = 0) -> Instantiation:
    """f + id_k, for f : delta -> gamma, acting on an instantiation over gamma + k.

    Entry i sits under ``k`` plus its own binder, and the result is over
    delta + k.
    """
    if f.dst + k != inst.scope:
        raise ScopeMismatch(f"substitution into scope {f.dst} under {k}, instantiation over {inst.scope}")
    exprs = tuple(substitute_expr(kind, f, e, slot.binder + k) for e, slot in zip(inst.exprs, inst.arity))
    return Instantiation(inst.arity, f.src + k, exprs)


def concat_inst(left: Instantiation, right: Instantiation) -> Instantiation:
    """Pair two instantiations over the same scope into one of the summed arity."""
    if left.scope != right.scope:
        raise ScopeMismatch("instantiations over different scopes")
    return Instantiation(left.arity + right.arity, left.scope, left.exprs + right.exprs)


def expr_symbols(e: Expr) -> frozenset[int]:
    """Base symbol indices occurring anywhere in the expression."""
    match e:
        case Var():
            return frozenset()
        case SymApp(sym=s, args=args):
            out = frozenset({s})
        case MetaApp(args=args):
            out = frozenset()
        case _:
            raise TypeError(f"not an expression: {e!r}")
    for a in args:
        out |= expr_symbols(a)
    return out


def derivation_nodes(d: TheoryDerivation):
    yield d
    for c in d.children:
        yield from derivation_nodes(c)


def graft(outer, fillers: tuple):
    """Replace each hypothesis leaf of ``outer`` by the corresponding filler.

    If ``outer`` derives c from H and ``fillers[h]`` derives H[h] from H',
    the result derives c from H'.  Any tree whose leaves are GHyp and whose
    other nodes have ``children`` and ``_replace`` grafts: generic
    derivations and the typed derivations of ``theories`` alike.
    Conclusion agreement between fillers and hypotheses is the caller's
    obligation; checking the result will catch violations.
    """
    if isinstance(outer, GHyp):
        k = outer.index
        if not 0 <= k < len(fillers):
            raise FillerConclusionMismatch(f"no filler for hypothesis {k}")
        return fillers[k]
    return outer._replace(children=tuple(graft(c, fillers) for c in outer.children))


def map_derivation(
    rule_images: tuple[GenericDerivation, ...], d: GenericDerivation
) -> GenericDerivation:
    """Push ``d`` along a map of closure systems.

    ``rule_images[r]`` must be a derivation, over the target system, of the
    image of rule r's conclusion from the images of its premises (premise i
    appearing as hypothesis i).  Hypothesis leaves are kept.
    """
    match d:
        case GHyp(index=k):
            return GHyp(k)
        case GStep(rule=r, children=children):
            if not 0 <= r < len(rule_images):
                raise IndexOutOfRange(f"rule {r} of {len(rule_images)}")
            return graft(rule_images[r], tuple(map_derivation(rule_images, c) for c in children))
    raise TypeError(f"not a derivation node: {d!r}")


def map_node(node: TheoryDerivation, fn: Callable[[Expr], Expr], **changes) -> TheoryDerivation:
    """``node`` with a scope- and class-preserving map applied to every
    expression of its data, and the other fields as given in ``changes``
    (``ref``, ``pos``, ``trivial`` and the children stay otherwise)."""
    return node._replace(**{f: getattr(node, f).map_exprs(fn) for f in node.EXPR_FIELDS}, **changes)


def node_exprs(node: TheoryDerivation) -> list[Expr]:
    """Every expression the data of one node carries."""
    out: list[Expr] = []

    def keep(e: Expr) -> Expr:
        out.append(e)
        return e

    if not isinstance(node, Hyp):
        map_node(node, keep)
    return out


def map_derivation_exprs(
    d: TheoryDerivation,
    fn: Callable[[Expr], Expr],
    hyp: Callable[[int], int] | None = None,
) -> TheoryDerivation:
    """The same tree with ``fn`` applied to every expression of every node.

    ``fn`` must preserve scopes and classes.  ``hyp`` renumbers hypotheses
    (unchanged when None).
    """

    def go(node: TheoryDerivation) -> TheoryDerivation:
        if isinstance(node, Hyp):
            return node if hyp is None else Hyp(hyp(node.index))
        return map_node(node, fn, children=tuple(go(c) for c in node.children))

    return go(d)


def instantiate_derivation(
    theory: RawTypeTheory,
    inst: Instantiation,
    ctx: RawContext,
    d: TheoryDerivation,
) -> TheoryDerivation:
    """Push a derivation over the extension by ``inst.arity`` down to the base.

    ``d`` must check over the theory at ambient ``inst.arity``; the result
    checks over the ambient the entries of ``inst`` are written in, with the
    instantiated conclusion.  Under strict scopes every node maps to a node
    of the same kind, so the tree shape is preserved.
    """
    kind = theory.kind
    gamma = inst.scope

    def inl_set(sigma: int) -> frozenset[int]:
        return frozenset(kind.inl(gamma, sigma, i) for i in range(gamma))

    def go(node: TheoryDerivation) -> TheoryDerivation:
        if isinstance(node, Hyp):
            return node
        children = tuple(go(c) for c in node.children)
        match node:
            case RuleInst(ref=ref, inst=j, context=delta):
                return RuleInst(
                    ref, inst_act_inst(kind, inst, j), instantiate_context(kind, inst, ctx, delta), children
                )
            case VariableInst(context=delta, pos=i):
                return VariableInst(
                    instantiate_context(kind, inst, ctx, delta), kind.inr(gamma, delta.scope, i), children
                )
            case SubstInst(subst=f, context=tgt, trivial=K, judgement=jj):
                sigma = jj.context.scope
                return SubstInst(
                    inst_act_subst(kind, inst, f),
                    instantiate_context(kind, inst, ctx, tgt),
                    inl_set(sigma) | frozenset(kind.inr(gamma, sigma, i) for i in K),
                    instantiate_judgement(kind, inst, ctx, jj),
                    children,
                )
            case EqSubstInst(left=f, right=g, context=tgt, trivial=K, judgement=jj):
                sigma = jj.context.scope
                return EqSubstInst(
                    inst_act_subst(kind, inst, f),
                    inst_act_subst(kind, inst, g),
                    instantiate_context(kind, inst, ctx, tgt),
                    inl_set(sigma) | frozenset(kind.inr(gamma, sigma, i) for i in K),
                    instantiate_judgement(kind, inst, ctx, jj),
                    children,
                )
        raise TypeError(f"not a derivation node: {node!r}")

    return go(d)


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


# --- tightness ----------------------------------------------------------------

@_record
class TightnessWitness:
    """For each argument of the rule's arity, the introducing object premise."""

    premise_of_arg: tuple[int, ...]


def check_tight(rule: RawRule) -> TightnessWitness:
    """Find the unique bijection arguments <-> object premises, or raise.

    Argument i must be introduced by a premise whose context scope is the
    argument's binder, whose form is the argument's class, and whose head
    is the metavariable applied to exactly the variables of that scope.
    """
    object_premises = rule.object_premises()
    if len(object_premises) != len(rule.arity):
        raise NoBijection(
            f"{len(rule.arity)} arguments but {len(object_premises)} object premises"
        )
    assignment = []
    used = set()
    for i, arg in enumerate(rule.arity):
        expected_head = generic_meta(i, arg)
        expected_form = JudgementForm.IS_TY if arg.cls.value == "Ty" else JudgementForm.IS_TM
        found = None
        for p in object_premises:
            premise = rule.premises[p]
            if (
                premise.form is expected_form
                and premise.context.scope == arg.binder
                and premise.head == expected_head
            ):
                found = p
                break
        if found is None:
            raise NoBijection(f"no introducing premise for argument {i}")
        if found in used:
            raise NoBijection(f"premise {found} introduces two arguments")
        used.add(found)
        assignment.append(found)
    return TightnessWitness(tuple(assignment))


def is_tight(rule: RawRule) -> bool:
    try:
        check_tight(rule)
        return True
    except NoBijection:
        return False


def is_symbol_rule(sig: Signature, rule: RawRule, sym: int) -> bool:
    """Arity, conclusion form, and generic-application head all match the symbol."""
    decl = sig.symbol(sym)
    if rule.arity != decl.arity:
        return False
    if not rule.conclusion.is_object:
        return False
    expected_form = JudgementForm.IS_TY if decl.cls.value == "Ty" else JudgementForm.IS_TM
    if rule.conclusion.form is not expected_form:
        return False
    if rule.conclusion.context.scope != 0:
        return False
    return rule.conclusion.head == generic_application(sig, sym)


def theory_tightness(theory: RawTypeTheory) -> dict[int, int]:
    """The bijection symbol -> rule index witnessing theory tightness."""
    for i, rule in enumerate(theory.rules):
        if not is_tight(rule):
            raise NotTight(f"rule {theory.rule_name(i)} is not tight")
    object_rules = [i for i, r in enumerate(theory.rules) if r.is_object]
    beta: dict[int, int] = {}
    for i in object_rules:
        head = theory.rules[i].conclusion.head
        if not isinstance(head, SymApp):
            raise NotTight(f"object rule {theory.rule_name(i)} does not conclude a symbol application")
        sym = head.sym
        if not is_symbol_rule(theory.signature, theory.rules[i], sym):
            raise NotTight(f"rule {theory.rule_name(i)} is not a symbol rule")
        if sym in beta:
            raise NotTight(
                f"symbol {theory.signature.symbol(sym).name} has two rules: "
                f"{theory.rule_name(beta[sym])} and {theory.rule_name(i)}"
            )
        beta[sym] = i
    missing = set(range(theory.signature.base_count)) - set(beta)
    if missing:
        names = ", ".join(theory.signature.symbol(s).name for s in sorted(missing))
        raise NotTight(f"symbols without rules: {names}")
    return beta


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
    witnesses = witnesses or RuleWitnesses()
    hyps = presupposition_hypotheses(rule, weak)
    ok = True

    def run(target: Judgement, d: TheoryDerivation | None, tag: str) -> bool:
        if d is None:
            _log(diagnostics, f"{tag}: no witness supplied")
            return False
        try:
            got = check_theory_derivation(theory, hyps, d, rule.arity, rule.meta_names)
        except KernelError as e:
            _log(diagnostics, f"{tag}: witness fails to check: {e}")
            return False
        if got != target:
            _log(diagnostics, f"{tag}: witness derives {got!r}, wanted {target!r}")
            return False
        return True

    for p, target in enumerate(presuppositions(rule.conclusion)):
        ok &= run(target, witnesses.conclusion.get(p), f"conclusion/{p}")
    if not weak:
        for i, premise in enumerate(rule.premises):
            for p, target in enumerate(presuppositions(premise)):
                ok &= run(target, witnesses.premises.get((i, p)), f"premise_{i}/{p}")
    return ok


def _log(diagnostics: list[str] | None, msg: str) -> None:
    if diagnostics is not None:
        diagnostics.append(msg)


def _builtin_witnesses() -> dict[BuiltinRule, RuleWitnesses]:
    """Presupposition witnesses for the eight built-in raw rules.

    Each conclusion/premise presupposition is a hypothesis outright, except
    the two sides of the equality-conversion conclusion, which convert.
    """
    c = EMPTY_CONTEXT

    def h(k):
        return Hyp(k)

    # conv-eq: metas A B s t; presups of s == t : B are B type, s : B, t : B
    ceq = BuiltinRule.CONV_EQ.rule
    mA = MetaApp(0, (), 0, ceq.arity[0].cls)
    mB = MetaApp(1, (), 0, ceq.arity[1].cls)
    ms = MetaApp(2, (), 0, ceq.arity[2].cls)
    mt = MetaApp(3, (), 0, ceq.arity[3].cls)
    s_in_B = derive.conv(c, mA, mB, ms, h(0), h(1), h(2), h(5))
    t_in_B = derive.conv(c, mA, mB, mt, h(0), h(1), h(3), h(5))
    return {
        BuiltinRule.EQUIV_TY_REFL: RuleWitnesses({0: h(0), 1: h(0)}, {}),
        BuiltinRule.EQUIV_TY_SYM: RuleWitnesses({0: h(1), 1: h(0)}, {(2, 0): h(0), (2, 1): h(1)}),
        BuiltinRule.EQUIV_TY_TRANS: RuleWitnesses(
            {0: h(0), 1: h(2)},
            {(3, 0): h(0), (3, 1): h(1), (4, 0): h(1), (4, 1): h(2)},
        ),
        BuiltinRule.EQUIV_TM_REFL: RuleWitnesses({0: h(0), 1: h(1), 2: h(1)}, {(1, 0): h(0)}),
        BuiltinRule.EQUIV_TM_SYM: RuleWitnesses(
            {0: h(0), 1: h(2), 2: h(1)},
            {(1, 0): h(0), (2, 0): h(0), (3, 0): h(0), (3, 1): h(1), (3, 2): h(2)},
        ),
        BuiltinRule.EQUIV_TM_TRANS: RuleWitnesses(
            {0: h(0), 1: h(1), 2: h(3)},
            {
                (1, 0): h(0),
                (2, 0): h(0),
                (3, 0): h(0),
                (4, 0): h(0),
                (4, 1): h(1),
                (4, 2): h(2),
                (5, 0): h(0),
                (5, 1): h(2),
                (5, 2): h(3),
            },
        ),
        BuiltinRule.CONV_TM: RuleWitnesses({0: h(1)}, {(2, 0): h(0), (3, 0): h(0), (3, 1): h(1)}),
        BuiltinRule.CONV_EQ: RuleWitnesses(
            {0: h(1), 1: s_in_B, 2: t_in_B},
            {
                (2, 0): h(0),
                (3, 0): h(0),
                (4, 0): h(0),
                (4, 1): h(2),
                (4, 2): h(3),
                (5, 0): h(0),
                (5, 1): h(1),
            },
        ),
    }

BUILTIN_WITNESSES = _builtin_witnesses()


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
    symbol_rules: dict[int, int] | None

    @property
    def acceptable(self) -> bool:
        return self.tight and self.presuppositive and self.substitutive and self.congruous


def find_congruence(theory: RawTypeTheory, rule_index: int) -> int | None:
    """Index of a rule structurally equal to the congruence rule of ``rule_index``.

    Structural equality ignores metavariable names: a theory may name the
    metavariables of its congruence rules as it likes, or not at all.
    """
    target = congruence_rule(theory.kind, theory.rule(rule_index)).shape
    for j, r in enumerate(theory.rules):
        if r.shape == target:
            return j
    return None


def check_acceptable_theory(
    theory: RawTypeTheory, witnesses: TheoryWitnesses | None = None
) -> AcceptabilityReport:
    witnesses = witnesses or {}
    diagnostics: list[str] = []
    rule_reports = []
    all_presup = True
    for i, rule in enumerate(theory.rules):
        name = theory.rule_name(i)
        tight = is_tight(rule)
        presup = check_presuppositive(
            theory, rule, witnesses.get(name), weak=False, diagnostics=diagnostics
        )
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
        beta = theory_tightness(theory)
        theory_tight = True
    except NotTight as e:
        beta = None
        theory_tight = False
        diagnostics.append(str(e))
    substitutive = all(r.empty_conclusion_context for r in rule_reports)
    congruous = True
    for i, rule in enumerate(theory.rules):
        if rule.is_object and find_congruence(theory, i) is None:
            congruous = False
            diagnostics.append(f"no congruence rule for {theory.rule_name(i)}")
    return AcceptabilityReport(
        rule_reports, theory_tight, all_presup, substitutive, congruous, diagnostics, beta
    )


def require_substitutive(theory: RawTypeTheory) -> None:
    for i, rule in enumerate(theory.rules):
        if rule.conclusion.context.scope != 0:
            raise NotSubstitutive(f"rule {theory.rule_name(i)} has a non-empty conclusion context")


# --- the presuppositions theorem ----------------------------------------------

def derive_presuppositions(
    theory: RawTypeTheory,
    d: TheoryDerivation,
    witnesses: TheoryWitnesses,
    hyp_presups: tuple[tuple[TheoryDerivation, ...], ...] | None = None,
) -> tuple[TheoryDerivation, ...]:
    """Derivations of every presupposition of d's conclusion.

    Requires (weak) presupposition witnesses for every specific rule used.
    Hypothesis leaves are only allowed if ``hyp_presups`` supplies
    derivations of the presuppositions of each hypothesis.  The results
    check over whatever ambient arity ``d`` checks over: each witness is
    instantiated by the node that cites its rule, so no ambient is passed.
    """
    def go(node: TheoryDerivation) -> tuple[TheoryDerivation, ...]:
        match node:
            case Hyp(index=k):
                if hyp_presups is None:
                    raise MissingWitness("presuppositions of a hypothesis are not derivable")
                return hyp_presups[k]
            case VariableInst(children=children):
                return (children[0],)
            case SubstInst(judgement=jj, children=children):
                sub_presups = go(children[0])
                return tuple(
                    node._replace(judgement=pj, children=(sub_presups[p],) + children[1:])
                    for p, pj in enumerate(presuppositions(jj))
                )
            case EqSubstInst():
                return _eq_subst_presups(theory, node, go)
            case RuleInst(ref=ref, inst=inst, context=ctx, children=children):
                rule = theory.rule(ref)
                if isinstance(ref, int):
                    rw = witnesses.get(theory.rule_name(ref))
                    if rw is None:
                        raise MissingWitness(f"no presupposition witnesses for rule {theory.rule_name(ref)}")
                else:
                    rw = BUILTIN_WITNESSES[ref]
                fillers = list(children)
                for j, premise in enumerate(rule.premises):
                    child_presups = go(children[j]) if presuppositions(premise) else ()
                    fillers.extend(child_presups)
                out = []
                for p in range(len(presuppositions(rule.conclusion))):
                    w = rw.conclusion.get(p)
                    if w is None:
                        raise MissingWitness(
                            f"missing conclusion presupposition witness {p}"
                        )
                    lowered = instantiate_derivation(theory, inst, ctx, w)
                    out.append(graft(lowered, tuple(fillers)))
                return tuple(out)
        raise TypeError(f"not a derivation node: {_node_name(theory, node)}")

    return go(d)


def _eq_subst_presups(theory, node, go):
    """Presuppositions at an equality-substitution node, per the theorem's proof."""
    kind = theory.kind
    f, g, tgt, K, jj = node.left, node.right, node.context, node.trivial, node.judgement
    children = node.children
    unchecked = [i for i in range(jj.context.scope) if i not in K]
    f_typ = tuple(children[1 + 3 * k] for k in range(len(unchecked)))
    g_typ = tuple(children[2 + 3 * k] for k in range(len(unchecked)))

    def subst_node(h, target_j, d_target, typings):
        return SubstInst(h, tgt, K, target_j, (d_target,) + tuple(typings))

    if jj.form is JudgementForm.IS_TY:
        d_fa = subst_node(f, jj, children[0], f_typ)
        d_ga = subst_node(g, jj, children[0], g_typ)
        return (d_fa, d_ga)
    # term judgement t : A
    a = jj.boundary[0]
    t = jj.head
    d_a = go(children[0])[0]
    ja = is_type(jj.context, a)
    d_fA = subst_node(f, ja, d_a, f_typ)
    d_gA = subst_node(g, ja, d_a, g_typ)
    d_ft = subst_node(f, jj, children[0], f_typ)
    d_gt = subst_node(g, jj, children[0], g_typ)
    d_eqA = EqSubstInst(f, g, tgt, K, ja, (d_a,) + tuple(children[1:]))
    fa = substitute_expr(kind, f, a)
    ga = substitute_expr(kind, g, a)
    gt = substitute_expr(kind, g, t)
    d_sym = derive.sym_ty(tgt, fa, ga, d_fA, d_gA, d_eqA)
    d_gt_at_fa = derive.conv(tgt, ga, fa, gt, d_gA, d_fA, d_gt, d_sym)
    return (d_fA, d_ft, d_gt_at_fa)


# --- admissibility of renaming and substitution ----------------------------------
#
# The two substitution transformers below follow the admissibility proofs of
# the paper with the root data held fixed, as ``substitute_expr`` does for
# expressions: the substitution f (or the pair f, g), the target context, the
# trivial set K and the typings stay as given, and the walk descends with a
# binder count k, acting as f + id_k on lookup.  A position p of a context at
# depth k is bound when ``kind.unsum(f.dst, k, p)`` says "right"; otherwise
# it stands for the root position it names.  No extended table, trivial set
# or typing copy is built: a typing is renamed by ``inl_renaming(f.src, k)``
# at the variable node that uses it.  Renaming is substitution by variables
# with every position trivial, so ``rename_derivation`` is one call of
# ``substitute_derivation``.
#
# The side conditions are checked once, at the root, against the root node's
# context (a hypothesis root has no context to check them against).
# Precondition: ``d`` checks in the theory (from any hypotheses).  Then they
# hold at every node by induction from the root.  A child's context is its
# parent's context extended by the instantiated premise context, and the
# child's target is the parent's target extended by the same premise context
# instantiated along f*I.  At a left position, both sides of a condition are
# the weakening of the parent's, since weakening commutes with substitution.
# At a bound position, the image is the bound variable itself, and its two
# types are (f + k)*(I(psi_p)) and (f*I)(psi_p), which are equal because
# instantiation commutes with substitution.  A variable node's child
# lives in the node's own context.  The kernel re-checks each output where it
# leaves the library: the CLI re-checks every derivation it prints.
#
# Equality substitution builds three images of each node: the f-image, the
# g-image and, for an object judgement, the (f == g)-image.  Under a binder
# premise the f-image and the equality of the child live over the target
# extended along f*I, the g-image over the target extended along g*I.  So the
# child is walked over the first for all three images and over the second for
# its g-image only.  A g-only walk builds the g-image of a rule node from the
# g-images of its children; at a variable whose type the target gives as its
# f-image it needs all three images of the variable's type derivation, to
# convert the variable to its g-image.  No binder premise is walked twice for
# all three images, so the work does not double with each binder level.
#
# ``eliminate_substitution`` hands each chain of stacked substitution nodes
# to ``substitute_derivation`` as one node; see the comment above it.

def is_substitution_free(d: TheoryDerivation) -> bool:
    return not any(isinstance(n, (SubstInst, EqSubstInst)) for n in derivation_nodes(d))


def _node_name(theory: RawTypeTheory, node) -> str:
    """A node's kind and, for a rule instance, the name of the rule it cites."""
    match node:
        case RuleInst(ref=BuiltinRule() as ref):
            return f"RuleInst({ref.wire_name})"
        case RuleInst(ref=int() as r):
            return f"RuleInst({theory.rule_name(r)})"
    return type(node).__name__


def _not_substitution_free(theory: RawTypeTheory, node) -> TypeError:
    return TypeError(f"substitution node in a substitution-free derivation: {_node_name(theory, node)}")


def rename_derivation(
    theory: RawTypeTheory,
    r: Renaming,
    target: RawContext,
    d: TheoryDerivation,
    memo: WeakeningMemo | None = None,
) -> TheoryDerivation:
    """Rename a substitution-free derivation along a type-respecting renaming.

    A renaming is substitution by variables: this is ``substitute_derivation``
    along ``Substitution.of_renaming(r)`` with every position trivial and no
    typings.  The renaming respects types exactly when that substitution acts
    trivially at every position, so a renaming that does not respect the type
    at position i raises ``TrivialityViolated(i)``.  ``d`` must check in the
    theory.  ``memo`` goes to ``substitute_derivation``.
    """
    return substitute_derivation(
        theory, Substitution.of_renaming(r), target, frozenset(range(r.src)), {}, d, memo
    )


def _check_trivial_action(kind, f, target, source, positions):
    for i in sorted(positions):
        if not acts_trivially(kind, f, target, source, i):
            raise TrivialityViolated(i)


def substitute_derivation(
    theory: RawTypeTheory,
    f: Substitution,
    target: RawContext,
    trivial: frozenset[int],
    typings: dict[int, TheoryDerivation],
    d: TheoryDerivation,
    memo: WeakeningMemo | None = None,
) -> TheoryDerivation:
    """Substitute into a substitution-free derivation, keeping it substitution-free.

    ``typings[i]`` must be a substitution-free derivation of
    target |- f(i) : f*(source type i) for every position i outside
    ``trivial``; positions inside it are only required to be trivial.  ``d``
    must check in the theory.  Triviality is checked against the root's
    context only; see the comment above for why it holds below.  ``memo``
    (``judgements.extend_context``) keeps the weakened types of each target
    context; without one, a fresh memo serves this call.
    """
    require_substitutive(theory)
    kind = theory.kind
    if memo is None:
        memo = {}
    if isinstance(d, (VariableInst, RuleInst)):
        _check_trivial_action(kind, f, target, d.context, trivial)

    def go(node, k: int, tgt: RawContext):
        match node:
            case Hyp():
                if f == Substitution.identity(f.src):
                    return node
                raise MissingWitness("cannot substitute into a hypothesis")
            case VariableInst(pos=i, children=children):
                side, root = kind.unsum(f.dst, k, i)
                if side == "right" or root in trivial:
                    image = substitute_expr(kind, f, Var(i, f.dst + k), k)
                    return VariableInst(tgt, image.pos, (go(children[0], k, tgt),))
                if root not in typings:
                    raise MissingWitness(f"no typing derivation for position {i}")
                if k == 0:
                    return typings[root]
                return rename_derivation(theory, inl_renaming(kind, f.src, k), tgt, typings[root], memo)
            case RuleInst(ref=ref, inst=inst, children=children):
                new_inst = subst_act_inst(kind, f, inst, k)
                return RuleInst(ref, new_inst, tgt, tuple(
                    go(c, k + p.context.scope, instantiate_context(kind, new_inst, tgt, p.context, memo))
                    for c, p in zip(children, theory.rule(ref).premises)
                ))
        raise _not_substitution_free(theory, node)

    return go(d, 0, target)


# --- admissibility of equality substitution --------------------------------------

def _check_joint_conditions(kind, f, g, target, source, K):
    for i in sorted(K):
        e1, e2 = f(i), g(i)
        if not (isinstance(e1, Var) and isinstance(e2, Var) and e1.pos == e2.pos):
            raise TrivialityViolated(i, "(jointly)")
        ty = source.type_at(i)
        fi = substitute_expr(kind, f, ty)
        gi = substitute_expr(kind, g, ty)
        if target.type_at(e1.pos) not in (fi, gi):
            raise TrivialityViolated(i, "(jointly)")


def substitute_equal_derivation(
    theory: RawTypeTheory,
    f: Substitution,
    g: Substitution,
    target: RawContext,
    trivial: frozenset[int],
    triples: dict[int, tuple[TheoryDerivation, TheoryDerivation, TheoryDerivation]],
    d: TheoryDerivation,
    memo: WeakeningMemo | None = None,
) -> tuple[TheoryDerivation, TheoryDerivation, TheoryDerivation | None]:
    """Substitute two judgementally equal substitutions into a derivation.

    Returns substitution-free derivations of target |- f*J, target |- g*J,
    and, for object J, target |- (f == g)*J.  ``triples[i]`` holds the
    f-typing, g-typing, and equality derivations for each unchecked i.
    ``d`` must check in the theory.  Joint triviality is checked against
    the root's context only; see the comment above for why it holds below.
    ``memo`` is as for ``substitute_derivation``.
    """
    require_substitutive(theory)
    kind = theory.kind
    if memo is None:
        memo = {}
    if isinstance(d, (VariableInst, RuleInst)):
        _check_joint_conditions(kind, f, g, target, d.context, trivial)
    congruence_of: dict[int, int] = {}

    def cong_index(r: int) -> int:
        if r not in congruence_of:
            j = find_congruence(theory, r)
            if j is None:
                raise NotCongruous(f"no congruence rule for {theory.rule_name(r)}")
            congruence_of[r] = j
        return congruence_of[r]

    def go(node, k: int, tgt: RawContext, only_g: bool = False):
        """The triple of images of ``node``; only its g-image if ``only_g``."""
        match node:
            case Hyp():
                raise MissingWitness("cannot substitute into a hypothesis")
            case VariableInst(context=ctx, pos=i, children=children):
                side, root = kind.unsum(f.dst, k, i)
                if side == "left" and root not in trivial:
                    if root not in triples:
                        raise MissingWitness(f"no typing triple for position {i}")
                    if k == 0:
                        return triples[root]
                    inl = inl_renaming(kind, f.src, k)
                    if only_g:
                        return None, rename_derivation(theory, inl, tgt, triples[root][1], memo), None
                    return tuple(rename_derivation(theory, inl, tgt, dv, memo) for dv in triples[root])
                j = substitute_expr(kind, f, Var(i, f.dst + k), k).pos
                fa = substitute_expr(kind, f, ctx.type_at(i), k)
                ga = substitute_expr(kind, g, ctx.type_at(i), k)
                x = Var(j, tgt.scope)
                if tgt.type_at(j) == fa:
                    d_fa, d_ga, d_ea = go(children[0], k, tgt)
                    dvar = VariableInst(tgt, j, (d_fa,))
                    d_g = derive.conv(tgt, fa, ga, x, d_fa, d_ga, dvar, d_ea)
                    if only_g:
                        return None, d_g, None
                    return dvar, d_g, derive.refl_tm(tgt, fa, x, d_fa, dvar)
                if only_g:
                    return None, VariableInst(tgt, j, (go(children[0], k, tgt, True)[1],)), None
                d_fa, d_ga, d_ea = go(children[0], k, tgt)
                dvar = VariableInst(tgt, j, (d_ga,))
                d_sym = derive.sym_ty(tgt, fa, ga, d_fa, d_ga, d_ea)
                d_f = derive.conv(tgt, ga, fa, x, d_ga, d_fa, dvar, d_sym)
                refl = derive.refl_tm(tgt, ga, x, d_ga, dvar)
                d_e = derive.conv_eq(tgt, ga, fa, x, x, d_ga, d_fa, dvar, dvar, refl, d_sym)
                return d_f, dvar, d_e
            case RuleInst(ref=ref, inst=inst, children=children):
                rule = theory.rule(ref)
                i_g = subst_act_inst(kind, g, inst, k)
                if only_g:
                    return None, RuleInst(ref, i_g, tgt, tuple(
                        go(c, k + p.context.scope, instantiate_context(kind, i_g, tgt, p.context, memo), True)[1]
                        for c, p in zip(children, rule.premises)
                    )), None
                i_f = subst_act_inst(kind, f, inst, k)
                f_children, g_children, eq_components = [], [], []
                for child, premise in zip(children, rule.premises):
                    psi = premise.context
                    d_f, d_g, d_e = go(child, k + psi.scope, instantiate_context(kind, i_f, tgt, psi, memo))
                    # under a binder the g-image of the premise lives over the
                    # g-target context: walk the child again, for its g-image only
                    if psi.scope:
                        d_g = go(child, k + psi.scope, instantiate_context(kind, i_g, tgt, psi, memo), True)[1]
                    f_children.append(d_f)
                    g_children.append(d_g)
                    eq_components.append(d_e)
                d_f = RuleInst(ref, i_f, tgt, tuple(f_children))
                d_g = RuleInst(ref, i_g, tgt, tuple(g_children))
                if not rule.conclusion.form.is_object:
                    return d_f, d_g, None
                d_e = _equal_image(theory, node, rule, tgt, i_f, i_g,
                                   f_children, g_children, eq_components, cong_index)
                return d_f, d_g, d_e
        raise _not_substitution_free(theory, node)

    return go(d, 0, target)


def _equal_image(theory, node, rule, tgt, i_f, i_g,
                 f_children, g_children, eq_components, cong_index):
    """The (f == g)-image at an object-rule node: congruence rule for specific
    rules, conversion bookkeeping for the term-conversion rule."""
    match node.ref:
        case int() as r:
            cidx = cong_index(r)
            ii = concat_inst(i_f, i_g)
            children = list(f_children) + list(g_children)
            for k in rule.object_premises():
                children.append(eq_components[k])
            return RuleInst(cidx, ii, tgt, tuple(children))
        case BuiltinRule.CONV_TM:
            # premises A, B, s : A, A == B; conclusion s : B.  Its metavariables
            # bind nothing, so the images of A, B and s are the entries of i_f, i_g
            t0 = (f_children[0], g_children[0], eq_components[0])
            t1 = (f_children[1], g_children[1], eq_components[1])
            t2 = (f_children[2], g_children[2], eq_components[2])
            t3 = (f_children[3], g_children[3], None)
            (fA, fB, fsx), (gA, _, gsx) = i_f.exprs, i_g.exprs
            sym = derive.sym_ty(tgt, fA, gA, t0[0], t0[1], t0[2])
            gs_at_fA = derive.conv(tgt, gA, fA, gsx, t0[1], t0[0], t2[1], sym)
            return derive.conv_eq(
                tgt, fA, fB, fsx, gsx, t0[0], t1[0], t2[0], gs_at_fA, t2[2], t3[0]
            )
    raise NotObjectRule(f"no equality image for node {_node_name(theory, node)}")


# --- elimination of substitution --------------------------------------------------
#
# A chain of stacked substitution nodes is folded into one node before
# anything below it is walked, so the body of the chain is walked once,
# however long the chain is: the composition law of explicit substitutions,
# applied to derivations.  Let the outer node carry f : target <- gamma with
# trivial set K and typings T, and its first child, the inner node, carry
# f' : gamma <- delta with K' and T' over the body d of delta |- J.  The
# folded node carries h = f*f' (``compose_subst(kind, f', f)``), the trivial
# set K'' = {i in K' : f'(i) = x_j with j in K} and, for each position i of
# delta outside K'', the typing
#
# - T(j), if i is in K' and f'(i) = x_j (so j is not in K);
# - f applied to the eliminated T'(i) by ``substitute_derivation``, if i is
#   not in K'.
#
# If both nodes check, these meet the side conditions of the substitution
# rule for h.  Let A_i be the type of i in delta.  For i in K'', f'(i) = x_j
# with gamma(j) = f'*A_i, and f(j) = x_l with target(l) = f*gamma(j); so
# h(i) = x_l and target(l) = f*f'*A_i = h*A_i.  For i in K' outside K'', T(j)
# derives target |- f(j) : f*gamma(j), that is target |- h(i) : h*A_i.  For
# i outside K', T'(i) derives gamma |- f'(i) : f'*A_i, and f carries it to
# target |- h(i) : h*A_i.  So the folded node is a substitution node over
# the inner node's body that checks, and by induction the fold runs down the
# whole chain.  Its output is the one bottom-up elimination gives: a variable
# of d sent to x_j with j outside K becomes T(j) either way, and substitution
# commutes with the renaming that lifts a typing under binders.  (Over a
# hypothesis the two differ only when h is the identity and a factor is not:
# bottom-up refuses, the fold returns the hypothesis, as one node with h
# would.)
#
# Outside the substitution nodes, a node whose children all come back as the
# same objects is returned as itself, so a substitution-free subtree is kept,
# object for object, with the sharing it had.  One weakening memo
# (``judgements.extend_context``) serves every substitution of one call.

def eliminate_substitution(theory: RawTypeTheory, d: TheoryDerivation) -> TheoryDerivation:
    """A substitution-free derivation of the same judgement.

    Folds each chain of stacked substitution nodes into one node (see the
    comment above) and walks its body once with substitute_derivation;
    equality substitution nodes go to substitute_equal_derivation.  Typing
    children are eliminated before they are used.  ``d`` must check in the
    theory: then so does each rewritten subtree handed on.
    """
    kind = theory.kind
    memo: WeakeningMemo = {}

    def typing_children(node, width: int) -> dict:
        """The eliminated typing children of a substitution node, ``width``
        per position outside its trivial set, keyed by that position."""
        kids = [go(c) for c in node.children[1:]]
        unchecked = [i for i in range(node.judgement.context.scope) if i not in node.trivial]
        if width == 1:
            return dict(zip(unchecked, kids))
        return {i: tuple(kids[width * k:width * k + width]) for k, i in enumerate(unchecked)}

    def go(node):
        match node:
            case Hyp():
                return node
            case SubstInst(subst=f, context=tgt, trivial=K):
                typings = typing_children(node, 1)
                body = node.children[0]
                while isinstance(body, SubstInst):
                    f_in, inner = body.subst, typing_children(body, 1)
                    folded = frozenset(i for i in body.trivial if f_in(i).pos in K)
                    typings = {
                        i: typings[f_in(i).pos] if i in body.trivial
                        else substitute_derivation(theory, f, tgt, K, typings, inner[i], memo)
                        for i in range(body.judgement.context.scope) if i not in folded
                    }
                    f, K, body = compose_subst(kind, f_in, f), folded, body.children[0]
                return substitute_derivation(theory, f, tgt, K, typings, go(body), memo)
            case EqSubstInst(left=f, right=g, context=tgt, trivial=K, children=children):
                triples = typing_children(node, 3)
                _, _, d_eq = substitute_equal_derivation(
                    theory, f, g, tgt, K, triples, go(children[0]), memo
                )
                return d_eq
        children = tuple(go(c) for c in node.children)
        if all(map(operator.is_, children, node.children)):
            return node
        return node._replace(children=children)

    return go(d)


# --- uniqueness of typing ----------------------------------------------------------

def unique_typing(
    theory: RawTypeTheory,
    d_a: TheoryDerivation,
    d_b: TheoryDerivation,
    d1: TheoryDerivation,
    d2: TheoryDerivation,
) -> TheoryDerivation:
    """From derivations of t : A and t : B (plus typings of A and B), a
    derivation of A == B.  Requires a tight, substitutive theory."""
    theory_tightness(theory)
    require_substitutive(theory)
    kind = theory.kind
    d1 = eliminate_substitution(theory, d1)
    d2 = eliminate_substitution(theory, d2)

    def type_of(node) -> Expr:
        match node:
            case VariableInst(context=ctx, pos=i):
                return ctx.type_at(i)
            case RuleInst(ref=BuiltinRule.CONV_TM, inst=inst):
                return inst.exprs[1]
            case RuleInst(ref=int() as r, inst=inst):
                c = theory.rule(r).conclusion
                return instantiate_expr(kind, inst, c.boundary[0])
        raise NotTight(f"no term-judgement type at {_node_name(theory, node)}")

    def conv_parts(node):
        # children: A' type, A type, s : A', A' == A; instantiation (A', A, s)
        return node.children, node.inst.exprs[0], node.inst.exprs[1]

    def go(e1, da, e2, db):
        ctx = e1.context
        match e1:
            case RuleInst(ref=BuiltinRule.CONV_TM):
                (ca_p, ca, ct, ceq), a_prime, a = conv_parts(e1)
                inner = go(ct, ca_p, e2, db)
                b = type_of(e2)
                sym = derive.sym_ty(ctx, a_prime, a, ca_p, ca, ceq)
                return derive.trans_ty(ctx, a, a_prime, b, ca, ca_p, db, sym, inner)
            case _:
                pass
        match e2:
            case RuleInst(ref=BuiltinRule.CONV_TM):
                (cb_p, cb, ct, ceq), b_prime, b = conv_parts(e2)
                inner = go(e1, da, ct, cb_p)
                a = type_of(e1)
                return derive.trans_ty(ctx, a, b_prime, b, da, cb_p, cb, inner, ceq)
            case _:
                pass
        match e1, e2:
            case (VariableInst(pos=i), VariableInst(pos=j)):
                if i != j:
                    raise NotTight("the two derivations type different variables")
                return derive.refl_ty(ctx, type_of(e1), da)
            case (RuleInst(ref=int() as r1, inst=i1), RuleInst(ref=int() as r2, inst=i2)):
                if r1 != r2:
                    raise NotTight("the two derivations cite different symbol rules")
                if i1 != i2:
                    raise NotTight("instantiations differ despite equal heads")
                return derive.refl_ty(ctx, type_of(e1), da)
        raise NotTight(f"unexpected node pair {type(e1).__name__}/{type(e2).__name__}")

    return go(d1, d_a, d2, d_b)


def unique_typing_acceptable(
    theory: RawTypeTheory,
    d1: TheoryDerivation,
    d2: TheoryDerivation,
    witnesses: TheoryWitnesses,
) -> TheoryDerivation:
    """The corollary form: typings of the two types come from presuppositions."""
    d_a = derive_presuppositions(theory, d1, witnesses)[0]
    d_b = derive_presuppositions(theory, d2, witnesses)[0]
    return unique_typing(theory, d_a, d_b, d1, d2)


# --- natural types and inversion -----------------------------------------------

def natural_type(theory: RawTypeTheory, ctx: RawContext, t: Expr) -> Expr:
    """The type read off the symbol rules: a variable gets its context type,
    a symbol application the instantiated conclusion type of its rule.
    Natural types are defined for terms only."""
    if t.cls is not TM:
        raise ClassMismatch(f"natural types are defined for terms only, not for a {t.cls.value} expression")
    kind = theory.kind
    match t:
        case Var(pos=i):
            return ctx.type_at(i)
        case SymApp(sym=s, args=args, scope=scope):
            beta = theory_tightness(theory)
            rule = theory.rule(beta[s])
            inst = Instantiation(theory.signature.symbol(s).arity, scope, args)
            return instantiate_expr(kind, inst, rule.conclusion.boundary[0])
        case MetaApp():
            raise NotTight("natural types are undefined at metavariable applications")
    raise TypeError(f"not a term: {t!r}")


def invert(
    theory: RawTypeTheory,
    d: TheoryDerivation,
    witnesses: TheoryWitnesses,
) -> TheoryDerivation:
    """Canonical form of a term- or type-judgement derivation.

    Term judgements end with exactly one conversion whose left branch ends in
    the variable or symbol rule at the natural type; type judgements end with
    the symbol rule.  Requires an acceptable theory (witnesses supplied).
    """
    kind = theory.kind
    d = eliminate_substitution(theory, d)

    def go(node):
        match node:
            case VariableInst(context=ctx, pos=i, children=children):
                a = ctx.type_at(i)
                refl = derive.refl_ty(ctx, a, children[0])
                return derive.conv(ctx, a, a, Var(i, ctx.scope), children[0], children[0], node, refl)
            case RuleInst(ref=int() as r, inst=inst, context=ctx):
                conclusion = theory.rule(r).conclusion
                if conclusion.form is JudgementForm.IS_TY:
                    return node
                if conclusion.form is not JudgementForm.IS_TM:
                    raise NotObjectRule("inversion applies to object judgements")
                natty = instantiate_expr(kind, inst, conclusion.boundary[0])
                head = instantiate_expr(kind, inst, conclusion.head)
                d_natty = derive_presuppositions(theory, node, witnesses)[0]
                refl = derive.refl_ty(ctx, natty, d_natty)
                return derive.conv(ctx, natty, natty, head, d_natty, d_natty, node, refl)
            case RuleInst(ref=BuiltinRule.CONV_TM, inst=inst, context=ctx, children=children):
                c_bp, c_b, c_t, c_eq = children
                b_prime, b, term = inst.exprs
                rec = go(c_t)
                r_natty, _, r_term = rec.inst.exprs
                r_dn, r_dbp, r_dt, r_deq = rec.children
                merged = derive.trans_ty(
                    ctx, r_natty, b_prime, b, r_dn, c_bp, c_b, r_deq, c_eq
                )
                return derive.conv(ctx, r_natty, b, term, r_dn, c_b, r_dt, merged)
            case Hyp():
                raise MissingWitness("cannot invert a hypothesis")
        raise NotObjectRule(f"inversion does not apply at {_node_name(theory, node)}")

    return go(d)


def is_canonical_inversion(theory: RawTypeTheory, d: TheoryDerivation) -> bool:
    """Shape test: one top conversion over a variable/symbol node at the
    natural type (term case), or a symbol-rule root (type case)."""
    match d:
        case RuleInst(ref=int() as r):
            return theory.rule(r).conclusion.form is JudgementForm.IS_TY
        case RuleInst(ref=BuiltinRule.CONV_TM, inst=inst, context=ctx, children=children):
            left = children[2]
            if not (isinstance(left, VariableInst) or isinstance(left, RuleInst) and isinstance(left.ref, int)):
                return False
            term = inst.exprs[2]
            try:
                natty = natural_type(theory, ctx, term)
            except KernelError:
                return False
            return inst.exprs[0] == natty
    return False


# --- well-founded theories ------------------------------------------------------

def transitive_closure(p: FinitePoset) -> frozenset[tuple[int, int]]:
    reach = {i: {j for (a, j) in p.edges if a == i} for i in range(p.size)}
    changed = True
    while changed:
        changed = False
        for i in range(p.size):
            extra = set()
            for j in reach[i]:
                extra |= reach[j] - reach[i]
            if extra:
                reach[i] |= extra
                changed = True
    return frozenset((i, j) for i in range(p.size) for j in reach[i])


def check_well_founded(p: FinitePoset) -> bool:
    """True iff the transitive closure of p.edges is acyclic."""
    return all(i != j for i, j in transitive_closure(p))


def judgement_symbols(j: Judgement) -> frozenset[int]:
    out = frozenset()
    for t in j.context.types:
        out |= expr_symbols(t)
    for e in j.boundary:
        out |= expr_symbols(e)
    if j.head is not None:
        out |= expr_symbols(j.head)
    return out


def rule_symbols(rule: RawRule) -> frozenset[int]:
    """Symbols a rule depends on; the defining head of an object rule is the
    symbol being introduced, so only its arguments count there."""
    out = frozenset()
    for p in rule.premises:
        out |= judgement_symbols(p)
    c = rule.conclusion
    for t in c.context.types:
        out |= expr_symbols(t)
    for e in c.boundary:
        out |= expr_symbols(e)
    if c.head is not None:
        if rule.is_object and isinstance(c.head, SymApp):
            for a in c.head.args:
                out |= expr_symbols(a)
        else:
            out |= expr_symbols(c.head)
    return out


def derivation_provenance(d: TheoryDerivation) -> tuple[frozenset[int], frozenset[int]]:
    """(symbols, specific rule indices) a derivation's nodes mention."""
    syms: frozenset[int] = frozenset()
    cited: frozenset[int] = frozenset()
    for node in derivation_nodes(d):
        if isinstance(node, RuleInst) and isinstance(node.ref, int):
            cited |= {node.ref}
        for e in node_exprs(node):
            syms |= expr_symbols(e)
    return syms, cited


@_record
class WellFoundedReport:
    ok: bool
    required_edges: frozenset[tuple[int, int]]
    diagnostics: list[str]


def required_precedence(
    theory: RawTypeTheory,
    beta: dict[int, int],
    witnesses: TheoryWitnesses | None = None,
) -> tuple[frozenset[tuple[int, int]], list[str]]:
    """Edges (i, j): rule i must precede rule j, from symbol occurrences and
    witness provenance."""
    edges: set[tuple[int, int]] = set()
    diagnostics: list[str] = []
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
    for i, j in sorted(edges):
        if i == j:
            diagnostics.append(
                f"rule {theory.rule_name(j)} depends on itself"
            )
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
    """
    diagnostics: list[str] = []
    if beta is None:
        try:
            beta = theory_tightness(theory)
        except NotTight as e:
            return WellFoundedReport(False, frozenset(), [str(e)])
    edges, diag = required_precedence(theory, beta, witnesses)
    diagnostics.extend(diag)
    n = len(theory.rules)
    constraint = FinitePoset.of(n, {(i, j) for i, j in edges if i != j})
    if not check_well_founded(constraint):
        cycle = _find_cycle(n, constraint.edges)
        names = " < ".join(theory.rule_name(i) for i in cycle)
        diagnostics.append(f"dependency cycle: {names}")
    if order is not None:
        closure = transitive_closure(order)
        for i, j in sorted(edges):
            if i == j or (i, j) not in closure:
                diagnostics.append(
                    f"order does not place {theory.rule_name(i)} before {theory.rule_name(j)}"
                )
        if not check_well_founded(order):
            diagnostics.append("supplied order is cyclic")
    ok = not diagnostics
    return WellFoundedReport(ok, edges, diagnostics)


def _find_cycle(n: int, edges: frozenset[tuple[int, int]]) -> list[int]:
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
    state = {i: 0 for i in range(n)}
    stack: list[int] = []

    def dfs(v):
        state[v] = 1
        stack.append(v)
        for w in adj[v]:
            if state[w] == 1:
                return stack[stack.index(w):]
            if state[w] == 0:
                found = dfs(w)
                if found:
                    return found
        stack.pop()
        state[v] = 2
        return None

    for v in range(n):
        if state[v] == 0:
            found = dfs(v)
            if found:
                return found
    return []
