"""Sequential contexts, well-founded premise families, and well-presented theories.

A well-presented theory is specified in three stages: shapes (an index
poset plus forms and scopes), raw boundaries over the signature of the
strictly-earlier stage, and well-formedness witnesses over the flattened
earlier theory.  Elaboration realises every rule-boundary, checks the
supplied witnesses, adds the congruence rules of object rules with
synthesised witnesses, and gives the raw theory with its witness table.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Any, Callable

from .errors import (
    ArityMismatch,
    ClassMismatch,
    HeadForbidden,
    HeadRequired,
    KernelError,
    ParseError,
    ScopeMismatch,
    StageViolation,
    SymbolArityMismatch,
    SymbolForbidden,
    SymbolRequired,
    WitnessFailure,
)
from .foundations import FinitePoset
from .judgements import (
    Boundary,
    EMPTY_CONTEXT,
    Judgement,
    JudgementForm,
    RawContext,
)
from .jsonio import (
    _Decoder, _distinct, _form_from, _kind_from, _list, _obj, _str, _witness_keys, arity_to_json,
    derivation_to_json, expr_from_json, rule_to_json, witness_key, witnesses_from_json,
)
from .acceptability import down_sets, expr_symbols, subexpressions, witness_failures
from .derivation_ops import map_derivation_exprs
from .rules import RawRule, congruence_rule, generic_application
from .scopes import ScopeKind, _record
from .syntax import (
    Argument,
    Arity,
    Expr,
    MetaApp,
    Signature,
    Symbol,
    SymApp,
    TY,
    Var,
    mv_extend_signature,
    validate_expr,
    weaken_expr,
)
from .theories import RawTypeTheory, RuleWitnesses, TheoryWitnesses


def complete_boundary(b: Boundary, head: Expr | None) -> Judgement:
    """Fill an object boundary with a head; equality boundaries take none."""
    hc = b.form.head_class
    if hc is None:
        if head is not None:
            raise HeadForbidden(f"{b.form.value} boundary takes no head")
        return Judgement(b.context, b.form, b.boundary, None)
    if head is None:
        raise HeadRequired(f"{b.form.value} boundary needs a head")
    if head.cls is not hc:
        raise ClassMismatch(f"head of class {head.cls}, boundary wants {hc}")
    return Judgement(b.context, b.form, b.boundary, head)


# --- sequential contexts --------------------------------------------------------

SequentialContext = tuple  # of Expr; the i-th entry lives in scope i


def flatten_sequential_context(kind: ScopeKind, seq: SequentialContext) -> RawContext:
    """Weaken each entry along the left inclusion of its scope into the full scope."""
    n = len(seq)
    types: list[Expr] = [None] * n  # type: ignore[list-item]
    for i, entry in enumerate(seq):
        if entry.scope != i:
            raise ScopeMismatch(f"entry {i} has scope {entry.scope}, expected {i}")
        types[_declared_position(kind, i, n)] = weaken_expr(kind, entry, n - i)
    return RawContext(n, tuple(types))


def _declared_position(kind: ScopeKind, i: int, n: int) -> int:
    """The position of the i-th declared variable in the flat scope n: the
    new position of scope i + 1, included on the left into n.  The map is
    its own inverse: the variable at position p is declared at this value of p."""
    return kind.inl(i + 1, n - i - 1, kind.inr(i, 1, 0))


def is_sequential_flat_context(kind: ScopeKind, ctx: RawContext) -> SequentialContext | None:
    """Invert flattening: each type must be the weakening of one over its own scope."""
    n = ctx.scope
    out = []
    for i in range(n):
        entry = strengthen_expr(kind, ctx.type_at(_declared_position(kind, i, n)), n - i)
        if entry is None:
            return None
        out.append(entry)
    return tuple(out)


def map_expr(e: Expr, var: Callable[[Var], Expr | None], meta: Callable[[int], int], by: int) -> Expr | None:
    """``e`` rebuilt bottom-up: each variable ``v`` becomes ``var(v)``, each
    metavariable index ``m`` becomes ``meta(m)``, and every scope moves by
    ``by``; None wherever ``var`` gives None.  In both scope kinds a
    variable ``v`` sits under ``v.scope - root.scope`` binders."""
    if type(e) is Var:
        return var(e)
    args = []
    for a in e.args:
        if (new := map_expr(a, var, meta, by)) is None:
            return None
        args.append(new)
    if type(e) is SymApp:
        return SymApp(e.sym, tuple(args), e.scope + by, e.cls)
    return MetaApp(meta(e.idx), tuple(args), e.scope + by, e.cls)


def strengthen_expr(kind: ScopeKind, e: Expr, by: int) -> Expr | None:
    """The expression whose ``weaken_expr(kind, _, by)`` is ``e``, or None
    when ``e`` mentions one of the ``by`` positions weakening adds: those at
    ``cut <= p < cut + by``, with ``cut`` as in ``weaken_expr``."""

    def var(v: Var) -> Var | None:
        cut = v.scope - e.scope if kind is ScopeKind.INDICES else e.scope - by
        if cut <= v.pos < cut + by:
            return None
        return Var(v.pos - by if v.pos >= cut else v.pos, v.scope - by)

    return map_expr(e, var, lambda m: m, -by)


def sequential_by_occurrence(kind: ScopeKind, ctx: RawContext) -> bool:
    """Definition by variable occurrence: each type mentions only earlier variables."""
    n = ctx.scope
    for i in range(n):
        allowed = {_declared_position(kind, j, n) for j in range(i)}
        pos = _declared_position(kind, i, n)
        if not _occurring_outer(kind, ctx.type_at(pos), n) <= allowed:
            return False
    return True


def _occurring_outer(kind: ScopeKind, e: Expr, outer: int) -> set[int]:
    """Positions of the outer scope that occur free in e (under binders)."""
    out = set()
    for v in subexpressions(e):
        if type(v) is Var:
            side, q = kind.unsum(outer, v.scope - outer, v.pos)
            if side == "left":
                out.add(q)
    return out


def sequential_by_peeling(kind: ScopeKind, ctx: RawContext) -> bool:
    """Definition by the context-formation rules: peel one extension at a time."""
    n = ctx.scope
    if n == 0:
        return True
    types: list[Expr] = [None] * (n - 1)  # type: ignore[list-item]
    for i in range(n):
        entry = strengthen_expr(kind, ctx.type_at(_declared_position(kind, i, n)), 1)
        if entry is None:
            return False
        if i < n - 1:
            types[_declared_position(kind, i, n - 1)] = entry
    return sequential_by_peeling(kind, RawContext(n - 1, tuple(types)))


# --- premises shapes and well-founded premise families ---------------------------

def _check_index_order(order: FinitePoset, below: tuple[frozenset[int], ...], what: str) -> None:
    """Refuse an order of premises or rules (``what``) that has a cycle, or
    that their index order does not extend; ``below`` are its down-sets."""
    if any(i in b for i, b in enumerate(below)):
        raise StageViolation(f"{what} order has a cycle")
    if not all(i < j for i, j in order.edges):
        raise StageViolation(f"{what} indices must respect the order (list a linear extension)")


def total_order(n: int) -> FinitePoset:
    """The order 0 < 1 < ... < n - 1, every pair listed."""
    return FinitePoset.of(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@_record
class PremisesShape:
    """An index poset plus the form and binder scope of each premise."""

    order: FinitePoset
    slots: tuple[tuple[JudgementForm, int], ...]

    def __post_init__(self):
        if self.order.size != len(self.slots):
            raise ArityMismatch("poset size differs from the premise count")
        _check_index_order(self.order, self.below, "premise")

    def object_indices(self) -> tuple[int, ...]:
        return tuple(i for i, (f, _) in enumerate(self.slots) if f.is_object)

    def arity(self) -> Arity:
        return self.arity_of(self.object_indices())

    def arity_of(self, indices) -> Arity:
        """The arity of the object premises ``indices``, in that order."""
        return tuple(Argument(self.slots[i][0].head_class, self.slots[i][1]) for i in indices)

    @cached_property
    def below(self) -> tuple[frozenset[int], ...]:
        """Each premise's strict down-set."""
        return down_sets(self.order)

    def arity_below(self, i: int) -> tuple[int, ...]:
        """Object premise indices strictly below i in the poset, in index order."""
        return tuple(j for j in self.object_indices() if j in self.below[i])


@_record
class WellFoundedPremiseFamily:
    """Premise boundaries, each over the extension by its own down-set's arity.

    ``boundaries[i]`` has the declared form and a sequential context of the
    declared scope; its metavariables index ``shape.arity_below(i)``.
    The witnesses of boundary i (``RuleWitnesses.premises[(i, p)]``) derive
    its presuppositions from the flattening of the premises strictly below i.
    ``names`` label the premises and take part in equality.
    """

    shape: PremisesShape
    boundaries: tuple[tuple[SequentialContext, tuple[Expr, ...]], ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.boundaries) != self.shape.order.size:
            raise ArityMismatch("boundary count differs from the shape")

    def premise_count(self) -> int:
        return self.shape.order.size

    def meta_names(self) -> tuple[str, ...]:
        if not self.names:
            return tuple(f"?{i}" for i in self.shape.object_indices())
        return tuple(self.names[i] for i in self.shape.object_indices())


def relabel_metas(e: Expr, index: Callable[[int], int]) -> Expr:
    """``e`` with each metavariable m renamed to ``index(m)``."""
    return map_expr(e, lambda v: v, index, 0)


def _flatten_premises(
    kind: ScopeKind, family: WellFoundedPremiseFamily, indices, objects: tuple[int, ...]
) -> tuple[Judgement, ...]:
    """Premises ``indices`` over the extension by the arity of the object
    premises ``objects``: each boundary's metavariables reindexed from its
    down-set arity, object boundaries completed with their generic
    metavariable head."""
    out = []
    for i in indices:
        form, scope = family.shape.slots[i]
        below = family.shape.arity_below(i)
        relabel = partial(relabel_metas, index=tuple(objects.index(j) for j in below).__getitem__)
        seq, slots = family.boundaries[i]
        ctx = flatten_sequential_context(kind, seq).map_exprs(relabel)
        if ctx.scope != scope:
            raise ScopeMismatch(f"premise {i}: context scope {ctx.scope}, declared {scope}")
        boundary = Boundary(ctx, form, tuple(map(relabel, slots)))
        head = None
        if form.is_object:
            head = MetaApp(objects.index(i), tuple(Var(j, scope) for j in range(scope)), scope, form.head_class)
        out.append(complete_boundary(boundary, head))
    return tuple(out)


def flatten_premise_family(
    sig: Signature, family: WellFoundedPremiseFamily
) -> tuple[Judgement, ...]:
    """Judgements over the extension by the full arity."""
    return _flatten_premises(sig.kind, family, range(family.premise_count()), family.shape.object_indices())


def flatten_premises_below(
    sig: Signature, family: WellFoundedPremiseFamily, i: int
) -> tuple[Judgement, ...]:
    """The flattening of the strict down-set of i, in index order, over
    the extension by arity(shape below i)."""
    return _flatten_premises(sig.kind, family, sorted(family.shape.below[i]), family.shape.arity_below(i))


def check_premise_family(
    theory: RawTypeTheory,
    family: WellFoundedPremiseFamily,
    witnesses: RuleWitnesses,
    diagnostics: list[str] | None = None,
) -> bool:
    """Validate boundaries (scope, stage discipline) and their witnesses
    ``witnesses.premises``.

    The witnesses of a premise are not checked when a premise below it
    failed validation: their hypotheses would flatten that premise."""
    sig = theory.signature
    kind = sig.kind
    out: list[str] = []
    failed: set[int] = set()
    for i in range(family.premise_count()):
        form, scope = family.shape.slots[i]
        seq, slots = family.boundaries[i]
        sub_arity = family.shape.arity_of(family.shape.arity_below(i))
        sub_sig = mv_extend_signature(sig, sub_arity)
        try:
            ctx = flatten_sequential_context(kind, seq)
            for t in ctx.types:
                validate_expr(sub_sig, t, ctx.scope, TY)
            if ctx.scope != scope:
                raise ScopeMismatch(f"declared scope {scope}, got {ctx.scope}")
            boundary = Boundary(ctx, form, slots)
            for e, c in zip(slots, form.boundary_classes):
                validate_expr(sub_sig, e, scope, c)
        except KernelError as e:
            failed.add(i)
            out.append(f"premise {i}: {e}")
            continue
        if failed and (bad := failed & family.shape.below[i]):
            out.append(f"premise {i}: witnesses not checked, invalid premises below it: {sorted(bad)}")
            continue
        hyps = flatten_premises_below(sig, family, i)
        out += witness_failures(theory, hyps, boundary, witnesses, i, sub_arity, ())
    if diagnostics is not None:
        diagnostics.extend(out)
    return not out


# --- rule boundaries and realisation ----------------------------------------------

@_record
class RuleBoundarySpec:
    """A premise family plus an empty-context conclusion boundary over its arity."""

    premises: WellFoundedPremiseFamily
    conclusion_form: JudgementForm
    conclusion_slots: tuple[Expr, ...]

    def conclusion_boundary(self) -> Boundary:
        return Boundary(EMPTY_CONTEXT, self.conclusion_form, self.conclusion_slots)

    def arity(self) -> Arity:
        return self.premises.shape.arity()


def check_rule_boundary(
    theory: RawTypeTheory,
    spec: RuleBoundarySpec,
    witnesses: RuleWitnesses,
    diagnostics: list[str] | None = None,
) -> bool:
    """Premise family well-formed, and conclusion presuppositions derivable
    from the flattened premises."""
    out: list[str] = []
    check_premise_family(theory, spec.premises, witnesses, out)
    hyps = flatten_premise_family(theory.signature, spec.premises)
    boundary = spec.conclusion_boundary()
    out += witness_failures(theory, hyps, boundary, witnesses, None, spec.arity(), spec.premises.meta_names())
    if diagnostics is not None:
        diagnostics.extend(out)
    return not out


def realise_rule_boundary(
    sig: Signature, spec: RuleBoundarySpec, symbol: int | None = None
) -> RawRule:
    """Complete the conclusion: object boundaries take the generic application
    of the given symbol, equality boundaries stand as they are."""
    premises = flatten_premise_family(sig, spec.premises)
    boundary = spec.conclusion_boundary()
    alpha = spec.arity()
    if boundary.form.is_object:
        if symbol is None:
            raise SymbolRequired("an object rule-boundary needs a symbol to realise it")
        decl = sig.symbol(symbol)
        if decl.arity != alpha:
            raise SymbolArityMismatch(
                f"symbol {decl.name} has arity {decl.arity}, boundary wants {alpha}"
            )
        if decl.cls is not boundary.form.head_class:
            raise SymbolArityMismatch(f"symbol {decl.name} has the wrong class")
        conclusion = complete_boundary(boundary, generic_application(sig, symbol))
    else:
        if symbol is not None:
            raise SymbolForbidden("an equality rule-boundary takes no symbol")
        conclusion = complete_boundary(boundary, None)
    return RawRule(alpha, premises, conclusion, spec.premises.meta_names())


# --- well-presented type theories ---------------------------------------------------

@_record
class TheoryRuleSpec:
    name: str
    boundary: RuleBoundarySpec


@_record
class WellPresentedTheorySpec:
    """Rules in a well-founded order; rule i's syntax lives over the signature
    of the object-form rules strictly below it.

    ``witnesses`` maps a rule's name to the witnesses of its boundary.  A
    conclusion witness cites the flattened premises, as a rule witness
    does; a premise witness ``premises[(i, p)]`` cites the flattening of
    the premises strictly below i (Hyp(k) its k-th member, in index order),
    over the extension by their arity, ``shape.arity_below(i)``.
    """

    kind: ScopeKind
    order: FinitePoset
    rules: tuple[TheoryRuleSpec, ...]
    witnesses: TheoryWitnesses

    def __post_init__(self):
        if self.order.size != len(self.rules):
            raise ArityMismatch("order size differs from rule count")


def _spec_symbols(spec: WellPresentedTheorySpec) -> tuple[tuple[int, Symbol], ...]:
    """(rule index, symbol) pairs of the object-form rules."""
    return tuple(
        (i, Symbol(rs.name, rs.boundary.conclusion_form.head_class, rs.boundary.arity()))
        for i, rs in enumerate(spec.rules) if rs.boundary.conclusion_form.is_object
    )


def theory_signature_of_spec(spec: WellPresentedTheorySpec) -> Signature:
    return Signature(tuple(s for _, s in _spec_symbols(spec)), spec.kind)


def elaborate_theory(spec: WellPresentedTheorySpec) -> tuple[RawTypeTheory, TheoryWitnesses]:
    """Realise every rule-boundary in order, adding congruence rules for the
    object rules, checking stage discipline and every supplied witness along
    the way; give the raw theory and its witness table.

    The elaborated rule list interleaves each object rule with its congruence
    rule, so each initial segment of the spec flattens to a prefix.  The
    synthesised congruence witnesses are checked where the theory is used,
    by ``check_acceptable_theory``, not here.
    """
    from .congruence_witnesses import congruence_witnesses

    full_sig = theory_signature_of_spec(spec)
    witness_table: TheoryWitnesses = {}
    sym_index = {spec.rules[i].name: k for k, (i, _) in enumerate(_spec_symbols(spec))}

    # the theory of the rules elaborated so far, built once per spec rule
    # from the previous one, so that each rule is validated once
    theory = RawTypeTheory(full_sig, (), ())
    below = down_sets(spec.order)
    _check_index_order(spec.order, below, "rule")
    for i, rs in enumerate(spec.rules):
        allowed = {sym_index[spec.rules[j].name] for j in below[i] if spec.rules[j].boundary.conclusion_form.is_object}
        diagnostics: list[str] = []
        w = spec.witnesses.get(rs.name, RuleWitnesses({}, {}))
        _check_stage_symbols(full_sig, rs, allowed)
        if not check_rule_boundary(theory, rs.boundary, w, diagnostics):
            raise WitnessFailure(f"rule {rs.name}: " + "; ".join(diagnostics))
        index = len(theory.rules)
        theory = add_spec_rule(theory, rs)
        witness_table[rs.name] = _boundary_to_rule_witnesses(rs.boundary, w)
        if theory.rule(index).is_object:
            witness_table[f"{rs.name}-cong"] = congruence_witnesses(theory, index, witness_table[rs.name])
    return theory, witness_table


def add_spec_rule(stage: RawTypeTheory, rs: TheoryRuleSpec) -> RawTypeTheory:
    """``stage`` followed by the realisation of ``rs`` and, for an object
    rule, its congruence rule.

    ``stage`` holds the realised rules of a spec prefix over the whole
    spec's signature, whose k-th symbol is the k-th object rule; nothing is
    checked beyond the realisation, so a codec can name the rules a witness
    cites without elaborating.
    """
    sig = stage.signature
    symbol = None
    if rs.boundary.conclusion_form.is_object:
        symbol = sum(rule.is_object for rule in stage.rules)
    rule = realise_rule_boundary(sig, rs.boundary, symbol)
    rules, names = (rule,), (rs.name,)
    if rule.is_object:
        rules, names = (rule, congruence_rule(sig.kind, rule)), (rs.name, f"{rs.name}-cong")
    return RawTypeTheory(sig, stage.rules + rules, stage.rule_names + names, stage)


def _check_stage_symbols(sig: Signature, rs: TheoryRuleSpec, allowed: set[int]) -> None:
    boundaries = rs.boundary.premises.boundaries
    used = expr_symbols(*(e for seq, slots in boundaries for e in seq + slots), *rs.boundary.conclusion_slots)
    bad = used - allowed
    if bad:
        names = ", ".join(sig.symbol(s).name for s in sorted(bad))
        raise StageViolation(f"rule {rs.name} uses later symbols: {names}")


def _boundary_to_rule_witnesses(spec: RuleBoundarySpec, w: RuleWitnesses) -> RuleWitnesses:
    """Boundary witnesses as rule witnesses.

    A premise witness of boundary i cites the flattening of the premises
    below i, over the extension by their arity; as a rule witness it cites
    absolute premise positions over the full arity, so its hypotheses are
    renumbered and its metavariables relabelled in one walk.
    """
    shape = spec.premises.shape
    objects = shape.object_indices()
    premises = {}
    for (i, p), d in w.premises.items():
        metas = tuple(objects.index(j) for j in shape.arity_below(i))
        premises[(i, p)] = map_derivation_exprs(
            d, partial(relabel_metas, index=metas.__getitem__), sorted(shape.below[i]).__getitem__
        )
    return RuleWitnesses(dict(w.conclusion), premises)


# --- the JSON of specs and of raw theory files -------------------------------------
# (here, not in the raw layer's ``jsonio``: only the commands above it use them)

def signature_to_json(sig: Signature) -> Any:
    return [
        {"name": s.name, "class": s.cls.value, "arity": arity_to_json(s.arity)}
        for s in sig.symbols
    ]


def theory_to_json(
    theory: RawTypeTheory,
    witnesses: TheoryWitnesses | None = None,
    order: FinitePoset | None = None,
) -> Any:
    sig = theory.signature
    out = {
        "scope_system": theory.kind.value,
        "signature": signature_to_json(sig),
        "rules": [
            rule_to_json(sig, rule, theory.rule_name(i))
            for i, rule in enumerate(theory.rules)
        ],
    }
    if witnesses:
        out["witnesses"] = [
            {
                "rule": name,
                "presup_witnesses": _rule_witnesses_to_json(theory, name, w),
            }
            for name, w in sorted(witnesses.items())
        ]
    if order is not None:
        out["order"] = sorted(
            [theory.rule_name(i), theory.rule_name(j)] for i, j in order.edges
        )
    return out


def _rule_witnesses_to_json(theory, name, w: RuleWitnesses) -> Any:
    """``w`` keyed by ``witness_key``, each over the extension by the rule's arity."""
    rule = theory.rule(theory.rule_index(name))
    ext = mv_extend_signature(theory.signature, rule.arity, rule.meta_names)
    entries = [((None, p), d) for p, d in sorted(w.conclusion.items())] + sorted(w.premises.items())
    return {witness_key(i, p): derivation_to_json(theory, ext, d) for (i, p), d in entries}


def _stage_through(stage: RawTypeTheory, rules) -> RawTypeTheory:
    """``stage`` followed by the realisations of the spec rules ``rules``."""
    for rs in rules:
        stage = add_spec_rule(stage, rs)
    return stage


def spec_from_json(data: Any):
    """A ``WellPresentedTheorySpec`` read from its JSON."""
    data = _obj(data, "a theory spec")
    kind = _kind_from(data)
    raw_rules = [_obj(r, "a rule spec") for r in _list(data.get("rules", []), "rules")]
    names = [_str(r.get("name"), "rule name") for r in raw_rules]
    _distinct(names, "rule name")
    name_index = {n: i for i, n in enumerate(names)}
    edges = set()
    for pair in _list(data.get("order", []), "order"):
        a, b = _edge(pair, name_index)
        edges.add((name_index[a], name_index[b]))
    order = FinitePoset.of(len(raw_rules), edges)
    # before any witness is read: a witness can cite only the rules listed before its own
    _check_index_order(order, down_sets(order), "rule")

    # first pass: shapes, to compute the staged signatures
    raw_premises = [[_obj(p, "a premise") for p in _list(r.get("premises", []), "premises")] for r in raw_rules]
    shapes = [premises_shape_from_json(ps, r.get("premise_order")) for r, ps in zip(raw_rules, raw_premises)]
    symbols = []
    for i, r in enumerate(raw_rules):
        form = _form_from(r.get("conclusion_form"))
        if form.is_object:
            symbols.append(Symbol(names[i], form.head_class, shapes[i].arity()))
    sig = Signature(tuple(symbols), kind)
    congruences = {f"{s.name}-cong": s.name for s in symbols}
    if clash := next((n for n in names if n in congruences), None):
        raise ParseError(f"rule name {clash!r} is the name of the congruence rule of {congruences[clash]!r}")

    rules = []
    witnesses = {}
    stage, staged = RawTypeTheory(sig, (), ()), 0
    for i, r in enumerate(raw_rules):
        boundary = rule_boundary_from_json(
            sig, shapes[i], raw_premises[i], _form_from(r.get("conclusion_form")), r.get("conclusion_boundary", {})
        )
        rules.append(TheoryRuleSpec(names[i], boundary))
        raw_w = _obj(r.get("witnesses", {}), "witnesses")
        if raw_w:
            stage, staged = _stage_through(stage, rules[staged:i]), i
            fam = boundary.premises
            full = mv_extend_signature(sig, boundary.arity(), fam.meta_names())
            keys = _witness_keys((*(f for f, _ in fam.shape.slots), boundary.conclusion_form))
            witnesses[names[i]] = witnesses_from_json(raw_w, keys, lambda k: _Decoder(
                full if k is None else _sub_signature(sig, fam.shape, fam.names, k), stage
            ))
    return WellPresentedTheorySpec(kind, order, tuple(rules), witnesses)


def premises_shape_from_json(premises: list, order: Any) -> PremisesShape:
    """The shape of a list of premise objects: the form and context length
    of each, ordered by the JSON ``order`` (all pairs i < j when None)."""
    slots = tuple((_form_from(p.get("form")), len(_list(p.get("cxt_seq", []), "cxt_seq"))) for p in premises)
    n = len(slots)
    if order is None:
        return PremisesShape(total_order(n), slots)
    return PremisesShape(FinitePoset.of(n, {_edge(pair, range(n)) for pair in _list(order, "premise_order")}), slots)


def rule_boundary_from_json(
    sig: Signature, shape: PremisesShape, premises: list, form: JudgementForm, conclusion: Any
) -> RuleBoundarySpec:
    """A rule-boundary over ``sig``: the premise objects ``premises`` of
    shape ``shape``, each over the extension by the premises below it, and
    the JSON ``conclusion`` of its conclusion boundary of form ``form``."""
    names = tuple(_str(p.get("name", f"p{k}"), "premise name") for k, p in enumerate(premises))
    _distinct(list(names), "premise name")
    boundaries = []
    for k, p in enumerate(premises):
        sub = _sub_signature(sig, shape, names, k)
        seq = tuple(expr_from_json(sub, t, pos) for pos, t in enumerate(_list(p.get("cxt_seq", []), "cxt_seq")))
        slots = _Decoder(sub).boundary(
            _obj(p.get("boundary", {}), "premise boundary"), shape.slots[k][0], len(seq), "premise boundary"
        )
        boundaries.append((seq, slots))
    fam = WellFoundedPremiseFamily(shape, tuple(boundaries), names)
    full = mv_extend_signature(sig, shape.arity(), fam.meta_names())
    slots = _Decoder(full).boundary(_obj(conclusion, "conclusion boundary"), form, 0, "conclusion boundary")
    return RuleBoundarySpec(fam, form, slots)


def _edge(pair: Any, ends) -> tuple:
    """An order entry ``[a, b]`` with both ends in ``ends``: rule names or premise indices, not booleans."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(type(v) in (str, int) and v in ends for v in pair)):
        raise ParseError(f"bad order entry {pair!r}")
    return pair[0], pair[1]


def _sub_signature(sig: Signature, shape, names: tuple[str, ...], k: int) -> Signature:
    """``sig`` extended by the object premises below premise k."""
    below = shape.arity_below(k)
    return mv_extend_signature(sig, shape.arity_of(below), tuple(names[j] for j in below))
