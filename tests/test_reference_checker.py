"""The kernel against the reference checker, on valid and ill-formed trees.

The kernel validates each expression once, where it enters the tree, and
elsewhere relies on equality with validated judgements (see the
``theories`` docstring).  The reference checker validates everything at
every node.  The two must agree: the same conclusion, or both raise
``KernelError``.  Agreement is asserted on the corpus, on generated
derivations over random raw theories in both scope systems, on mutants
that plant one ill-formed expression in one field of one node, and on
mutants that change the structure of one node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from corpus import (
    SIG,
    THEORY,
    UNIT_FORM,
    build_corpus,
    extend,
    hypothetical_app_rule,
    substitution_corpus,
    tt_at,
    unit_at,
)
from genexpr import LAW_SIGNATURE, arity, gen_arity, gen_expr, gen_instantiation, gen_subst, gen_template
from reference_checker import reference_check
from gtt.errors import DerivationError, KernelError
from gtt.judgements import (
    EMPTY_CONTEXT,
    Judgement,
    JudgementForm,
    RawContext,
    instantiate_judgement,
    is_term,
    is_type,
    substitute_judgement,
    tm_eq,
    ty_eq,
)
from gtt.rules import BuiltinRule, RawRule, instantiate_rule
from gtt.scopes import ScopeKind
from gtt.syntax import (
    TM,
    TY,
    Instantiation,
    MetaApp,
    Signature,
    Substitution,
    SymApp,
    Var,
    mk_sym,
    mv_extend_signature,
    substitute_expr,
)
from gtt.theories import (
    EqSubstInst,
    Hyp,
    RawTypeTheory,
    RuleInst,
    SubstInst,
    VariableInst,
    ambient_signature,
    check_theory_derivation,
    closure_rule_of_node,
)


def outcome(check, *args):
    """The conclusion, or KernelError; any other exception propagates."""
    try:
        return check(*args)
    except KernelError:
        return KernelError


def assert_agree(theory, hyps, d, ambient=None, names=()):
    got = outcome(check_theory_derivation, theory, hyps, d, ambient, names)
    assert got == outcome(reference_check, theory, hyps, d, ambient, names)
    return got


# --- the corpus -----------------------------------------------------------------

def corpus_items():
    """(theory, hyps, derivation, ambient, names, conclusion) of every corpus tree."""
    items = [(THEORY, (), d, None, (), j) for d, j in build_corpus() + substitution_corpus()]
    rule, witness = hypothetical_app_rule()
    items.append((THEORY, rule.premises, witness, rule.arity, rule.meta_names, rule.conclusion))
    return items


def test_reference_agrees_on_the_corpus():
    for theory, hyps, d, ambient, names, j in corpus_items():
        assert assert_agree(theory, hyps, d, ambient, names) == j


# --- generated derivations ------------------------------------------------------
#
# A raw theory over the law signature: four premise-free axioms that derive
# any judgement in one node, and random rules whose conclusions are written
# with generic metavariable occurrences, some with a non-empty context.

def _axioms() -> tuple[RawRule, ...]:
    A, B = MetaApp(0, (), 0, TY), MetaApp(1, (), 0, TY)
    s, t = MetaApp(1, (), 0, TM), MetaApp(2, (), 0, TM)
    c = EMPTY_CONTEXT
    return (
        RawRule(arity((TY, 0)), (), is_type(c, A)),
        RawRule(arity((TY, 0), (TM, 0)), (), is_term(c, s, A)),
        RawRule(arity((TY, 0), (TY, 0)), (), ty_eq(c, A, B)),
        RawRule(arity((TY, 0), (TM, 0), (TM, 0)), (), tm_eq(c, s, t, A)),
    )


AXIOMS = _axioms()
AX_OF = {JudgementForm.IS_TY: 0, JudgementForm.IS_TM: 1, JudgementForm.TY_EQ: 2, JudgementForm.TM_EQ: 3}


def axiom_entries(j: Judgement) -> tuple:
    match j.form:
        case JudgementForm.IS_TY:
            return (j.head,)
        case JudgementForm.IS_TM:
            return (j.boundary[0], j.head)
        case JudgementForm.TY_EQ:
            return j.boundary
    s, t, a = j.boundary
    return (a, s, t)


def random_judgement(rng, sig, ctx, gen) -> Judgement:
    scope = ctx.scope
    form = rng.choice(list(JudgementForm))
    if form is JudgementForm.IS_TY:
        return is_type(ctx, gen(rng, sig, scope, TY, 2))
    if form is JudgementForm.IS_TM:
        return is_term(ctx, gen(rng, sig, scope, TM, 2), gen(rng, sig, scope, TY, 2))
    if form is JudgementForm.TY_EQ:
        return ty_eq(ctx, gen(rng, sig, scope, TY, 2), gen(rng, sig, scope, TY, 2))
    return tm_eq(ctx, gen(rng, sig, scope, TM, 2), gen(rng, sig, scope, TM, 2), gen(rng, sig, scope, TY, 2))


def random_context(rng, sig, scope, gen=gen_expr) -> RawContext:
    return RawContext(scope, tuple(gen(rng, sig, scope, TY, 1) for _ in range(scope)))


def random_rule(rng, sig) -> RawRule:
    alpha = gen_arity(rng)
    ext = mv_extend_signature(sig, alpha)
    premises = tuple(random_judgement(rng, ext, EMPTY_CONTEXT, gen_expr) for _ in range(rng.randrange(3)))
    ctx = random_context(rng, ext, rng.choice((0, 0, 1)), gen_template)
    return RawRule(alpha, premises, random_judgement(rng, ext, ctx, gen_template))


def random_theory(rng, kind) -> RawTypeTheory:
    sig = Signature(LAW_SIGNATURE.symbols, kind)
    return RawTypeTheory(sig, AXIOMS + tuple(random_rule(rng, sig) for _ in range(5)))


class Generator:
    """Random derivations over one theory, built with the kernel's operations
    (the checkers recompute everything independently)."""

    def __init__(self, rng, theory):
        self.rng, self.theory = rng, theory
        self.sig, self.kind = theory.signature, theory.kind

    def derive(self, j: Judgement, depth: int):
        """A derivation of exactly ``j``."""
        rng, ctx = self.rng, j.context
        choice = rng.randrange(3) if depth > 0 else 0
        if choice == 1 and j.form is JudgementForm.IS_TM:
            # conversion from the same term at another type
            a, b, t = rng.choice((j.boundary[0], self.expr(ctx.scope, TY))), j.boundary[0], j.head
            inst = Instantiation(BuiltinRule.CONV_TM.rule.arity, ctx.scope, (a, b, t))
            judgements = (is_type(ctx, a), is_type(ctx, b), is_term(ctx, t, a), ty_eq(ctx, a, b))
            return RuleInst(BuiltinRule.CONV_TM, inst, ctx, self.derive_all(judgements, depth))
        if choice == 1 and j.form is JudgementForm.TY_EQ:
            a, b = j.boundary
            inst = Instantiation(BuiltinRule.EQUIV_TY_SYM.rule.arity, ctx.scope, (b, a))
            judgements = (is_type(ctx, b), is_type(ctx, a), ty_eq(ctx, b, a))
            return RuleInst(BuiltinRule.EQUIV_TY_SYM, inst, ctx, self.derive_all(judgements, depth))
        if choice == 2:
            # the identity substitution; untouched positions are typed by variable nodes
            f = Substitution.identity(ctx.scope)
            trivial = frozenset(i for i in range(ctx.scope) if rng.random() < 0.5)
            children = [self.derive(j, depth - 1)]
            for i in range(ctx.scope):
                if i not in trivial:
                    d_ty = self.derive(is_type(ctx, ctx.types[i]), depth - 1)
                    children.append(VariableInst(ctx, i, (d_ty,)))
            return SubstInst(f, ctx, trivial, j, tuple(children))
        return self.axiom(j)

    def derive_all(self, judgements, depth):
        return tuple(self.derive(p, depth - 1) for p in judgements)

    def axiom(self, j: Judgement):
        r = AX_OF[j.form]
        return RuleInst(r, Instantiation(AXIOMS[r].arity, j.context.scope, axiom_entries(j)), j.context, ())

    def expr(self, scope, cls):
        return gen_expr(self.rng, self.sig, scope, cls, 2)

    def any(self, ctx: RawContext, depth: int):
        """Some derivation over ``ctx`` and its conclusion."""
        rng, kind = self.rng, self.kind
        choice = rng.randrange(4) if depth > 0 else 0
        if choice == 1:
            source = random_context(rng, self.sig, rng.randrange(3))
            d, j = self.any(source, depth - 1)
            src = j.context
            f = gen_subst(rng, self.sig, ctx.scope, src.scope)
            typed = [is_term(ctx, f(i), substitute_expr(kind, f, src.types[i])) for i in range(src.scope)]
            if j.is_object and rng.random() < 0.5:
                g = gen_subst(rng, self.sig, ctx.scope, src.scope)
                children = [d]
                for i in range(src.scope):
                    g_ty = substitute_expr(kind, g, src.types[i])
                    children += [self.derive(typed[i], depth - 1), self.derive(is_term(ctx, g(i), g_ty), depth - 1),
                                 self.derive(tm_eq(ctx, f(i), g(i), typed[i].boundary[0]), depth - 1)]
                node = EqSubstInst(f, g, ctx, frozenset(), j, tuple(children))
                f_head, g_head = substitute_expr(kind, f, j.head), substitute_expr(kind, g, j.head)
                if j.form is JudgementForm.IS_TY:
                    return node, ty_eq(ctx, f_head, g_head)
                return node, tm_eq(ctx, f_head, g_head, substitute_expr(kind, f, j.boundary[0]))
            children = (d,) + tuple(self.derive(p, depth - 1) for p in typed)
            return SubstInst(f, ctx, frozenset(), j, children), substitute_judgement(kind, f, ctx, j)
        if choice == 2 and ctx.scope:
            i = rng.randrange(ctx.scope)
            node = VariableInst(ctx, i, (self.derive(is_type(ctx, ctx.types[i]), depth - 1),))
            return node, is_term(ctx, Var(i, ctx.scope), ctx.types[i])
        if choice == 3:
            a = self.expr(ctx.scope, TY)
            inst = Instantiation(BuiltinRule.EQUIV_TY_REFL.rule.arity, ctx.scope, (a,))
            node = RuleInst(BuiltinRule.EQUIV_TY_REFL, inst, ctx, (self.derive(is_type(ctx, a), depth - 1),))
            return node, ty_eq(ctx, a, a)
        r = rng.randrange(len(AXIOMS), len(self.theory.rules))
        rule = self.theory.rule(r)
        inst = gen_instantiation(rng, self.sig, rule.arity, ctx.scope)
        closure = instantiate_rule(kind, inst, ctx, rule)
        children = tuple(self.derive(closure.premise(i), depth - 1) for i in range(closure.premise_count))
        return RuleInst(r, inst, ctx, children), closure.conclusion


def test_reference_agrees_on_generated_derivations():
    shapes = 0
    for kind in ScopeKind:
        rng = random.Random(61)
        for _ in range(4):
            theory = random_theory(rng, kind)
            gen = Generator(rng, theory)
            for _ in range(15):
                ctx = random_context(rng, theory.signature, rng.randrange(3))
                d, j = gen.any(ctx, 2)
                assert assert_agree(theory, (), d) == j
                # and one planted mutant of the same tree
                path, node = rng.choice(list(nodes_with_paths(d)))
                mutants = list(field_mutants(theory, node))
                if mutants:
                    _, bad = rng.choice(mutants)
                    assert assert_agree(theory, (), replace_at(d, path, bad)) is KernelError
                shapes += sum(1 for _ in nodes_with_paths(d))
    assert shapes >= 500, shapes


def sample_rules(seed: int) -> list[RawRule]:
    """The rules of ``THEORY``, the eight built-in rules and random theories in both kinds."""
    rng = random.Random(seed)
    rules = list(THEORY.rules) + [ref.rule for ref in BuiltinRule]
    for kind in ScopeKind:
        rules += random_theory(rng, kind).rules
    return rules


def test_rule_exposed_set_is_the_generic_occurrences_of_its_conclusion():
    for rule in sample_rules(62):
        assert rule.exposed == exposed_by_definition(rule)


def test_rule_plan_reads_verbatim_exactly_the_markers_of_its_premises():
    # The same marker instantiation as ``exposed_by_definition``: a slot the
    # plan reads as metavariable m is the marker of m itself in the eagerly
    # built premise, and every other slot is no marker.
    for rule in sample_rules(62):
        markers = marker_entries(rule)
        inst = Instantiation(rule.arity, 0, markers)
        for p, (form, _, slots) in zip(rule.premises, rule.plan):
            built = instantiate_judgement(ScopeKind.INDICES, inst, EMPTY_CONTEXT, p)
            assert form is p.form
            exprs = built.boundary + (() if built.head is None else (built.head,))
            assert len(slots) == len(exprs)
            for s, e in zip(slots, exprs):
                found = [m for m, marker in enumerate(markers) if e is marker]
                assert found == ([s] if type(s) is int else []), (rule, p)


# --- the premise matcher ----------------------------------------------------------
#
# A rule node decides each premise by ``RuleInstance.matches`` instead of
# building it; the oracle builds the premise with ``instantiate_judgement``.

def rule_node_matches(theory, hyps, d, ambient=None, names=()):
    """(matches, equals) for each premise of each rule node of ``d``, against
    the child's conclusion and against the conclusion of a planted mutant of
    the child: what ``RuleInstance.matches`` says, and whether the conclusion
    equals the eagerly instantiated premise."""
    sig = ambient_signature(theory, ambient, names)
    for _, node in nodes_with_paths(d):
        if not isinstance(node, RuleInst):
            continue
        rule = theory.rule(node.ref)
        closure = instantiate_rule(theory.kind, node.inst, node.context, rule)
        for i, (child, template) in enumerate(zip(node.children, rule.premises)):
            premise = instantiate_judgement(theory.kind, node.inst, node.context, template)
            assert closure.premise(i) == premise
            got = [hyps[child.index] if isinstance(child, Hyp) else reference_check(theory, hyps, child, ambient, names)]
            if not isinstance(child, Hyp):
                for _, mutant in field_mutants(theory, child):
                    try:
                        got.append(closure_rule_of_node(theory, sig, mutant).conclusion)
                    except KernelError:
                        continue
            for j in got:
                yield closure.matches(i, j), j == premise


def test_the_matcher_agrees_with_built_premises_on_the_corpus():
    pairs = [pair for theory, hyps, d, ambient, names, _ in corpus_items()
             for pair in rule_node_matches(theory, hyps, d, ambient, names)]
    assert all(matches == equals for matches, equals in pairs)
    assert sum(equals for _, equals in pairs) >= 150 and sum(not equals for _, equals in pairs) >= 250


def test_the_matcher_agrees_with_built_premises_on_generated_derivations():
    pairs = []
    for kind in ScopeKind:
        rng = random.Random(63)
        for _ in range(4):
            theory = random_theory(rng, kind)
            gen = Generator(rng, theory)
            for _ in range(15):
                d, _ = gen.any(random_context(rng, theory.signature, rng.randrange(3)), 2)
                pairs += rule_node_matches(theory, (), d)
    assert all(matches == equals for matches, equals in pairs)
    assert sum(equals for _, equals in pairs) >= 150 and sum(not equals for _, equals in pairs) >= 400


# --- mutants --------------------------------------------------------------------

def marker_entries(rule: RawRule) -> tuple[MetaApp, ...]:
    """A fresh marker entry per metavariable, applied to the binder's
    variables, so a copy along any other table differs from it."""
    return tuple(
        MetaApp(10_000 + m, tuple(Var(j, a.binder) for j in range(a.binder)), a.binder, a.cls)
        for m, a in enumerate(rule.arity)
    )


def exposed_by_definition(rule: RawRule) -> frozenset[int]:
    """Metavariables whose entry an instantiation puts into the conclusion
    verbatim: instantiate with marker entries and look for the markers
    themselves."""
    markers = marker_entries(rule)
    c = instantiate_rule(ScopeKind.INDICES, Instantiation(rule.arity, 0, markers), EMPTY_CONTEXT, rule).conclusion
    found = set()
    for e in c.context.types + c.boundary + (() if c.head is None else (c.head,)):
        found.update(m for sub in subterms(e) for m, marker in enumerate(markers) if sub is marker)
    return frozenset(found)


def subterms(e):
    yield e
    if type(e) is not Var:
        for a in e.args:
            yield from subterms(a)


def _symbol(sig, cls, ar):
    return next(i for i, s in enumerate(sig.symbols) if s.cls is cls and s.arity == ar)


def ill_formed(sig, scope, cls):
    """Expressions of class ``cls`` and top scope ``scope`` that fail validation:
    an unknown symbol, an inner argument in the wrong scope, and (for terms) a
    variable out of range below a binder."""
    base = _symbol(sig, TY, ())
    pi = _symbol(sig, TY, arity((TY, 0), (TY, 1)))
    lam = _symbol(sig, TM, arity((TY, 0), (TY, 1), (TM, 1)))
    ty = lambda s: SymApp(base, (), s, TY)
    out = [SymApp(99, (), scope, cls)]
    if cls is TY:
        out.append(SymApp(pi, (ty(scope), ty(scope)), scope, TY))
    else:
        out.append(SymApp(lam, (ty(scope), ty(scope), Var(scope, scope + 1)), scope, TM))
        out.append(SymApp(lam, (ty(scope), ty(scope + 1), Var(scope + 1, scope + 1)), scope, TM))
    return out


def nodes_with_paths(d, path=()):
    if isinstance(d, Hyp):  # a hypothesis leaf carries no data
        return
    yield path, d
    for i, c in enumerate(d.children):
        yield from nodes_with_paths(c, path + (i,))


def replace_at(d, path, new):
    if not path:
        return new
    i = path[0]
    children = d.children[:i] + (replace_at(d.children[i], path[1:], new),) + d.children[i + 1:]
    return d._replace(children=children)


def _with(seq, k, e):
    return seq[:k] + (e,) + seq[k + 1:]


def field_mutants(theory, node):
    """(field, node) for one ill-formed expression planted in one field of ``node``."""
    sig = theory.signature
    ctx = node.context
    if ctx.scope:
        k = ctx.scope - 1
        for e in ill_formed(sig, ctx.scope, TY):
            yield "context", node._replace(context=RawContext(ctx.scope, _with(ctx.types, k, e)))
    if isinstance(node, RuleInst):
        rule, inst = theory.rule(node.ref), node.inst
        exposed = exposed_by_definition(rule)
        for label, picked in (("exposed", [m for m in range(len(inst.arity)) if m in exposed]),
                              ("non-exposed", [m for m in range(len(inst.arity)) if m not in exposed])):
            if not picked:
                continue
            m = picked[0]
            slot = inst.arity[m]
            for e in ill_formed(sig, inst.scope + slot.binder, slot.cls):
                new_inst = Instantiation(inst.arity, inst.scope, _with(inst.exprs, m, e))
                yield label, node._replace(inst=new_inst)
    if isinstance(node, (SubstInst, EqSubstInst)):
        for name in ("subst",) if isinstance(node, SubstInst) else ("left", "right"):
            f = getattr(node, name)
            if f.dst:
                for e in ill_formed(sig, f.src, TM):
                    table = Substitution(f.src, f.dst, _with(f.table, 0, e))
                    yield "table", node._replace(**{name: table})
        j = node.judgement
        for e in ill_formed(sig, j.context.scope, j.form.head_class or j.form.boundary_classes[0]):
            if j.head is not None:
                bad = Judgement(j.context, j.form, j.boundary, e)
            else:
                bad = Judgement(j.context, j.form, _with(j.boundary, 0, e), None)
            yield "judgement", node._replace(judgement=bad)


def test_every_planted_ill_formed_expression_is_rejected():
    fields = set()
    count = 0
    for theory, hyps, d, ambient, names, _ in corpus_items():
        for path, node in nodes_with_paths(d):
            for field, bad in field_mutants(theory, node):
                mutant = replace_at(d, path, bad)
                with pytest.raises(KernelError):
                    check_theory_derivation(theory, hyps, mutant, ambient, names)
                with pytest.raises(KernelError):
                    reference_check(theory, hyps, mutant, ambient, names)
                fields.add(field)
                count += 1
    assert fields == {"context", "exposed", "non-exposed", "table", "judgement"}, fields
    assert count >= 600, count


# --- structural mutants ---------------------------------------------------------
#
# A mutant of the structure of one node (the rule it cites, the order of its
# children, a variable position, a trivial set) is well formed, so it may be
# accepted; then both checkers must accept it with the same conclusion.

def structural_mutants(theory, node):
    """(family, node) for one change to the structure of ``node``."""
    if isinstance(node, RuleInst):
        n, builtins = len(theory.rules), list(BuiltinRule)
        if isinstance(node.ref, int):
            others = [(node.ref + 1) % n, builtins[node.ref % len(builtins)]]
        else:
            k = builtins.index(node.ref)
            others = [builtins[(k + 1) % len(builtins)], k % n]
        for other in others:
            yield "ref", node._replace(ref=other)
    kids = node.children
    if len(kids) >= 2:
        i, j = next(((i, j) for i in range(len(kids)) for j in range(i + 1, len(kids)) if kids[i] != kids[j]), (0, 1))
        swapped = list(kids)
        swapped[i], swapped[j] = kids[j], kids[i]
        yield "swap", node._replace(children=tuple(swapped))
    if isinstance(node, VariableInst):
        for step in (1, -1):
            yield "position", node._replace(pos=node.pos + step)
    if isinstance(node, (SubstInst, EqSubstInst)):
        K = node.trivial
        added = min(set(range(node.judgement.context.scope + 1)) - K)
        yield "trivial", node._replace(trivial=K | {added})
        if K:
            yield "trivial", node._replace(trivial=K - {min(K)})


def test_structural_mutants_agree_with_the_reference():
    families = set()
    count = accepted = 0
    for theory, hyps, d, ambient, names, _ in corpus_items():
        for path, node in nodes_with_paths(d):
            for family, mutant in structural_mutants(theory, node):
                got = assert_agree(theory, hyps, replace_at(d, path, mutant), ambient, names)
                families.add(family)
                count += 1
                accepted += got is not KernelError
    assert families == {"ref", "swap", "position", "trivial"}, families
    assert count >= 300, count
    assert 0 < accepted < count, accepted


def test_forged_builtin_ref_is_rejected():
    """A node cites a rule of the theory or a member of ``BuiltinRule``; an
    object that carries a built-in's family, wire name and some raw rule is
    neither, and both checkers reject it."""

    @dataclass(frozen=True)
    class ForgedRef:
        family: str
        wire_name: str
        rule: RawRule

    unit0 = unit_at(EMPTY_CONTEXT).type
    pi0 = mk_sym(SIG, "Pi", (unit0, unit_at(extend(EMPTY_CONTEXT, unit_at(EMPTY_CONTEXT))).type), 0)
    bogus = RawRule((), (), ty_eq(EMPTY_CONTEXT, unit0, pi0))
    inst = Instantiation((), 0, ())
    # cited as a rule of a theory that has it, the rule derives unit == Pi(unit, unit)
    theory, r = _with_rule("bogus", bogus)
    assert assert_agree(theory, (), RuleInst(r, inst, EMPTY_CONTEXT, ())) == bogus.conclusion
    for ref in (ForgedRef("equiv", "ty-refl", bogus), ForgedRef("conv", "conv", bogus), "ty-refl", None, 0.0):
        assert assert_agree(THEORY, (), RuleInst(ref, inst, EMPTY_CONTEXT, ())) is KernelError


# --- hand-built raw theories ----------------------------------------------------

def _with_rule(name: str, rule: RawRule) -> tuple[RawTypeTheory, int]:
    theory = RawTypeTheory(SIG, THEORY.rules + (rule,), THEORY.rule_names + (name,))
    return theory, len(THEORY.rules)


def _junk_tree(entry):
    """x:unit |- tt : unit, substituted along [entry], whose typing premise
    |- entry : unit is derived by the premise-free rule junk: |- M : unit."""
    alpha = arity((TM, 0))
    unit0 = unit_at(EMPTY_CONTEXT).type
    junk = RawRule(alpha, (), is_term(EMPTY_CONTEXT, MetaApp(0, (), 0, TM), unit0), ("M",))
    theory, r = _with_rule("junk", junk)
    ctx1 = extend(EMPTY_CONTEXT, unit_at(EMPTY_CONTEXT))
    tt1 = tt_at(ctx1)
    j = is_term(ctx1, tt1.term, tt1.type)
    f = Substitution(0, 1, (entry,))
    d = SubstInst(
        f, EMPTY_CONTEXT, frozenset(), j,
        (tt1.d_term, RuleInst(r, Instantiation(alpha, 0, (entry,)), EMPTY_CONTEXT, ())),
    )
    return theory, d


def test_entry_exposed_by_a_premise_free_rule_is_validated_at_the_substitution():
    theory, d = _junk_tree(tt_at(EMPTY_CONTEXT).term)
    t = tt_at(EMPTY_CONTEXT)
    assert assert_agree(theory, (), d) == is_term(EMPTY_CONTEXT, t.term, t.type)
    for bad in ill_formed(SIG, 0, TM):
        theory, d = _junk_tree(bad)
        assert assert_agree(theory, (), d) is KernelError


def test_substitution_node_reports_its_ill_formed_table_entry():
    # the node drops the entry from its conclusion, so it validates its
    # table itself; the junk leaf below it shows the entry and is trusted
    theory, d = _junk_tree(SymApp(99, (), 0, TM))
    with pytest.raises(DerivationError) as exc:
        check_theory_derivation(theory, (), d)
    assert exc.value.path == ()


def test_entry_of_a_metavariable_that_occurs_nowhere_is_validated():
    # ghost: |- unit type, over an arity whose metavariable it never mentions
    alpha = arity((TM, 0))
    ghost = RawRule(alpha, (), is_type(EMPTY_CONTEXT, unit_at(EMPTY_CONTEXT).type), ("M",))
    theory, r = _with_rule("ghost", ghost)
    assert exposed_by_definition(ghost) == frozenset()
    good = RuleInst(r, Instantiation(alpha, 0, (tt_at(EMPTY_CONTEXT).term,)), EMPTY_CONTEXT, ())
    assert assert_agree(theory, (), good) == is_type(EMPTY_CONTEXT, unit_at(EMPTY_CONTEXT).type)
    for bad in ill_formed(SIG, 0, TM):
        root = RuleInst(r, Instantiation(alpha, 0, (bad,)), EMPTY_CONTEXT, ())
        assert assert_agree(theory, (), root) is KernelError
        # the same node as the first premise of Pi-formation
        u = unit_at(EMPTY_CONTEXT)
        pi = RuleInst(THEORY.rule_index("Pi-form"),
                      Instantiation(THEORY.rule(THEORY.rule_index("Pi-form")).arity, 0,
                                    (u.type, unit_at(extend(EMPTY_CONTEXT, u)).type)),
                      EMPTY_CONTEXT, (root, unit_at(extend(EMPTY_CONTEXT, u)).d_type))
        assert assert_agree(theory, (), pi) is KernelError


def test_context_weakened_into_a_rule_conclusion_context_is_validated():
    # bind: A type / x:A |- x : A, a rule whose conclusion has a context; the
    # node's context enters its conclusion weakened past x
    alpha = arity((TY, 0))
    a0, a1 = MetaApp(0, (), 0, TY), MetaApp(0, (), 1, TY)
    bind = RawRule(alpha, (is_type(EMPTY_CONTEXT, a0),), is_term(RawContext(1, (a1,)), Var(0, 1), a1), ("A",))
    theory, r = _with_rule("bind", bind)

    def tree(gamma):
        unit = unit_at(gamma).type
        inst = Instantiation(alpha, gamma.scope, (unit,))
        return RuleInst(r, inst, gamma, (RuleInst(UNIT_FORM, Instantiation((), gamma.scope, ()), gamma, ()),))

    gamma = extend(EMPTY_CONTEXT, unit_at(EMPTY_CONTEXT))
    ctx2 = extend(gamma, unit_at(gamma))
    assert assert_agree(theory, (), tree(gamma)) == is_term(ctx2, Var(0, 2), unit_at(ctx2).type)
    for bad in ill_formed(SIG, 1, TY):
        # planted in the context of every node, so only the root's validation sees it
        assert assert_agree(theory, (), tree(RawContext(1, (bad,)))) is KernelError
