"""Raw syntax maps, raw theory maps, realisers, and the well-founded replacement.

A raw syntax map interprets each symbol as a compound expression over the
target signature; a raw theory map additionally sends each specific rule
to a derivation of its translation.  A simple map, which relabels each
symbol as a symbol of the same arity, is the special case whose
interpretations are generic applications (``identity_syntax_map`` is
one); its theory map sends each rule to the generic instance of its
image.

The replacement builder adjoins, one witnessed step at a time, symbols
naming realisers of rule-boundaries and equations reflected from the
target theory; the section construction drives the builder from an
acceptable theory's own rules.
"""

from __future__ import annotations

from functools import partial

from .errors import (
    ArityMismatch,
    ClassMismatch,
    KernelError,
    MissingWitness,
    NotAcceptable,
    WitnessFailure,
)
from .judgements import (
    EMPTY_CONTEXT,
    Judgement,
    JudgementForm,
    RawContext,
)
from .acceptability import check_well_founded_theory, derivation_failure
from .derivation_ops import generic_rule_instance, map_node, rebuild
from .presuppositions import grafting, instantiate_derivation
from .presentation import (
    PremisesShape,
    RuleBoundarySpec,
    WellFoundedPremiseFamily,
    _declared_position,
    complete_boundary,
    flatten_premise_family,
    is_sequential_flat_context,
    map_expr,
    realise_rule_boundary,
    relabel_metas,
    total_order,
)
from .rules import RawRule, congruence_rule, generic_application
from .scopes import _record
from .syntax import (
    Expr,
    Instantiation,
    MetaApp,
    Signature,
    Substitution,
    SymApp,
    Symbol,
    TM,
    TY,
    Var,
    instantiate_expr,
    mv_extend_signature,
    validate_expr,
)
from .theories import (
    Hyp,
    RawTypeTheory,
    RuleInst,
    SubstInst,
    TheoryDerivation,
    TheoryWitnesses,
)
from .tightness import check_tight, theory_tightness


@_record
class RawSyntaxMap:
    """For each symbol of the source, a closed expression over the target
    extended by the symbol's arguments."""

    src: Signature
    dst: Signature
    exprs: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.exprs) != self.src.base_count:
            raise ArityMismatch("one interpretation per source symbol required")
        for i, e in enumerate(self.exprs):
            decl = self.src.symbol(i)
            ext = mv_extend_signature(self.dst, decl.arity)
            if e.cls is not decl.cls:
                raise ClassMismatch(f"interpretation of {decl.name} has the wrong class")
            validate_expr(ext, e, 0, decl.cls)

    def __call__(self, sym: int) -> Expr:
        return self.exprs[sym]


def identity_syntax_map(sig: Signature) -> RawSyntaxMap:
    return RawSyntaxMap(
        sig, sig, tuple(generic_application(sig, s) for s in range(sig.base_count))
    )


def apply_syntax_map(m: RawSyntaxMap, e: Expr) -> Expr:
    """Variables stay, symbols unfold to their interpretations, metavariables
    of an ambient extension are fixed.  A symbol unfolds by instantiation, not
    node for node, so this walk is not a ``map_expr``."""
    kind = m.dst.kind
    match e:
        case Var():
            return e
        case SymApp(sym=s, args=args, scope=scope):
            decl = m.src.symbol(s)
            inst = Instantiation(
                decl.arity, scope, tuple(apply_syntax_map(m, a) for a in args)
            )
            return instantiate_expr(kind, inst, m(s))
        case MetaApp(idx=i, args=args, scope=scope, cls=cls):
            return MetaApp(i, tuple(apply_syntax_map(m, a) for a in args), scope, cls)
    raise TypeError(e)


def compose_syntax_maps(g: RawSyntaxMap, f: RawSyntaxMap) -> RawSyntaxMap:
    """g after f: each symbol's interpretation is pushed through g."""
    if f.dst != g.src:
        raise ArityMismatch("syntax maps do not chain")
    return RawSyntaxMap(f.src, g.dst, tuple(apply_syntax_map(g, e) for e in f.exprs))


def map_judgement(m: RawSyntaxMap, j: Judgement) -> Judgement:
    return j.map_exprs(partial(apply_syntax_map, m))


def map_rule(m: RawSyntaxMap, rule: RawRule) -> RawRule:
    """The metavariable extension of the map acts on a rule's judgements."""
    return RawRule(
        rule.arity,
        tuple(map_judgement(m, p) for p in rule.premises),
        map_judgement(m, rule.conclusion),
        rule.meta_names,
    )


@_record
class RawTheoryMap:
    """A syntax map together with derivations of the translated rules.

    ``rule_derivations[i]`` derives the translation of rule i of the source
    theory over the target, from its translated premises; entries may be
    missing, in which case only derivations avoiding those rules can be
    pushed forward.
    """

    syntax: RawSyntaxMap
    src: RawTypeTheory
    dst: RawTypeTheory
    rule_derivations: dict[int, TheoryDerivation]

    def check(self, diagnostics: list[str] | None = None) -> bool:
        ok = True
        for i, d in sorted(self.rule_derivations.items()):
            rule = map_rule(self.syntax, self.src.rule(i))
            failure = derivation_failure(self.dst, rule.premises, d, rule.conclusion, rule.arity, rule.meta_names)
            if failure is not None:
                ok = False
                if diagnostics is not None:
                    diagnostics.append(f"rule {self.src.rule_name(i)}: {failure}")
        return ok


def apply_theory_map_derivation(f: RawTheoryMap, d: TheoryDerivation) -> TheoryDerivation:
    """Push a derivation along a theory map: an instance of a theory rule
    maps to the stored derived rule, instantiated with the mapped children
    grafted at its hypotheses in the same walk, every other node to a node
    of the same kind.  Children map first: the first unmapped rule in
    post-order is the one reported."""
    fn = partial(apply_syntax_map, f.syntax)

    def step(node, children):
        match node:
            case RuleInst(ref=int() as r, inst=inst, context=ctx):
                if r not in f.rule_derivations:
                    raise MissingWitness(f"theory map has no derivation for rule {f.src.rule_name(r)}")
                stored = f.rule_derivations[r]
                return instantiate_derivation(f.dst, inst.map_exprs(fn), ctx.map_exprs(fn), stored, grafting(children))
        return map_node(node, fn, children=children)

    return rebuild(d, lambda h: h, step)


def check_derived_rule(
    theory: RawTypeTheory, rule: RawRule, witness: TheoryDerivation
) -> bool:
    """True iff ``witness`` derives the rule's conclusion from its premises."""
    return derivation_failure(theory, rule.premises, witness, rule.conclusion, rule.arity, rule.meta_names) is None


# --- realisers ----------------------------------------------------------------

def check_realiser(
    theory: RawTypeTheory,
    spec: RuleBoundarySpec,
    e: Expr,
    witness: TheoryDerivation,
) -> bool:
    """e realises an object rule-boundary when the boundary completed with e
    is derivable from the flattened premises."""
    boundary = spec.conclusion_boundary()
    if not boundary.form.is_object:
        return False
    alpha = spec.arity()
    ext = mv_extend_signature(theory.signature, alpha)
    try:
        validate_expr(ext, e, 0, boundary.form.head_class)
    except KernelError:
        return False
    hyps = flatten_premise_family(theory.signature, spec.premises)
    target = complete_boundary(boundary, e)
    return derivation_failure(theory, hyps, witness, target, alpha, spec.premises.meta_names()) is None


def map_rule_boundary(m: RawSyntaxMap, spec: RuleBoundarySpec) -> RuleBoundarySpec:
    fam = spec.premises
    new_boundaries = tuple(
        (
            tuple(apply_syntax_map(m, t) for t in seq),
            tuple(apply_syntax_map(m, s) for s in slots),
        )
        for seq, slots in fam.boundaries
    )
    return RuleBoundarySpec(
        WellFoundedPremiseFamily(fam.shape, new_boundaries, fam.names),
        spec.conclusion_form,
        tuple(apply_syntax_map(m, s) for s in spec.conclusion_slots),
    )


# --- the witness-driven well-founded replacement -------------------------------------

@_record
class SymbolStep:
    name: str
    boundary: RuleBoundarySpec        # over the builder theory so far
    realiser: Expr                    # over the target, realising the image boundary
    witness: TheoryDerivation         # the realisation derivation in the target


@_record
class EquationStep:
    name: str
    rule: RawRule                     # an equality rule over the builder theory so far
    witness: TheoryDerivation         # derivation of its image in the target


class ReplacementBuilder:
    """Grows a well-founded theory mapping onto a fixed target.

    Each object step adjoins a fresh symbol naming a realiser, its symbol
    rule and congruence rule, and extends the syntax map by the realiser;
    each equation step adjoins one reflected equality rule.  Every step is
    validated against the current image before it is committed.
    """

    def __init__(self, target: RawTypeTheory):
        self.target = target
        self.signature = Signature((), target.kind)
        self.rules: tuple[RawRule, ...] = ()
        self.rule_names: tuple[str, ...] = ()
        self.exprs: tuple[Expr, ...] = ()
        self.steps: list[SymbolStep | EquationStep] = []

    def theory(self) -> RawTypeTheory:
        return RawTypeTheory(self.signature, self.rules, self.rule_names)

    def syntax_map(self) -> RawSyntaxMap:
        return RawSyntaxMap(self.signature, self.target.signature, self.exprs)

    def _image_boundary(self, spec: RuleBoundarySpec) -> RuleBoundarySpec:
        return map_rule_boundary(self.syntax_map(), spec)

    def add_symbol(self, step: SymbolStep) -> int:
        """Validate and commit an object step; returns the new symbol index."""
        image = self._image_boundary(step.boundary)
        if not check_realiser(self.target, image, step.realiser, step.witness):
            raise WitnessFailure(f"step {step.name}: realiser witness fails in the target")
        symbol = Symbol(step.name, step.boundary.conclusion_form.head_class, step.boundary.arity())
        self.signature = Signature(
            self.signature.symbols + (symbol,), self.signature.kind
        )
        sym_index = self.signature.base_count - 1
        rule = realise_rule_boundary(self.signature, step.boundary, sym_index)
        self.rules = self.rules + (rule, congruence_rule(self.signature.kind, rule))
        self.rule_names = self.rule_names + (step.name, f"{step.name}-cong")
        self.exprs = self.exprs + (step.realiser,)
        self.steps.append(step)
        return sym_index

    def add_equation(self, step: EquationStep) -> int:
        """Validate and commit an equation step; returns the new rule index."""
        if step.rule.is_object:
            raise WitnessFailure("equation steps take equality rules")
        image = map_rule(self.syntax_map(), step.rule)
        if not check_derived_rule(self.target, image, step.witness):
            raise WitnessFailure(f"step {step.name}: equation witness fails in the target")
        self.rules = self.rules + (step.rule,)
        self.rule_names = self.rule_names + (step.name,)
        self.steps.append(step)
        return len(self.rules) - 1

    def check_well_founded(self) -> bool:
        """The theory is well founded in the order its rules were adjoined,
        each symbol introduced by its symbol rule: its object rules are
        exactly those, in symbol order."""
        objects = [i for i, rule in enumerate(self.rules) if rule.is_object]
        return check_well_founded_theory(self.theory(), total_order(len(self.rules)), None, dict(enumerate(objects))).ok


def sequential_boundary_spec(
    premises: tuple[tuple[tuple[Expr, ...], JudgementForm, tuple[Expr, ...]], ...],
    conclusion_form: JudgementForm,
    conclusion_slots: tuple[Expr, ...],
    names: tuple[str, ...] = (),
) -> RuleBoundarySpec:
    """A rule-boundary with totally ordered premises.

    Each premise is (sequential context entries, form, boundary slots) over
    the extension by the arities of the strictly earlier object premises.
    """
    n = len(premises)
    shape = PremisesShape(total_order(n), tuple((form, len(seq)) for seq, form, _ in premises))
    fam = WellFoundedPremiseFamily(
        shape,
        tuple((seq, slots) for seq, _, slots in premises),
        names or tuple(f"?{i}" for i in range(n)),
    )
    return RuleBoundarySpec(fam, conclusion_form, conclusion_slots)


# --- the section of the replacement ------------------------------------------------

def sequential_premise_names(rule: RawRule) -> tuple[str, ...]:
    """Per-premise labels: object premises carry their metavariable's name."""
    names = rule.metas
    label = {}
    for arg, premise in enumerate(check_tight(rule)):
        label[premise] = names[arg]
    return tuple(label.get(k, f"p{k}") for k in range(len(rule.premises)))


def section_s(
    theory: RawTypeTheory, witnesses: TheoryWitnesses
) -> tuple[ReplacementBuilder, RawTheoryMap]:
    """The section of the replacement's factor map, for an acceptable theory.

    Materialises exactly the c-symbols the construction demands: one per
    context entry, boundary slot, and conclusion boundary of each symbol
    rule, realised by the theory's own expressions with witnesses drawn
    from its presupposition derivations.  Returns the builder holding the
    replacement fragment and the section as a theory map; composing the
    factor map's syntax map after the section's is the identity on the
    source signature.  The section's rule derivations are not synthesised:
    deriving the translated rules needs the bridging equations between the
    pointwise and atomic primings, which stay out of scope here.
    """
    driver = _SectionDriver(theory, witnesses)
    for sym in range(theory.signature.base_count):
        driver.symbol_section(sym)
    exprs = tuple(
        generic_application(driver.builder.signature, driver.c_of_symbol[sym])
        for sym in range(theory.signature.base_count)
    )
    s_map = RawSyntaxMap(theory.signature, driver.builder.signature, exprs)
    return driver.builder, RawTheoryMap(s_map, theory, driver.builder.theory(), {})


class _SectionDriver:
    def __init__(self, theory: RawTypeTheory, witnesses: TheoryWitnesses):
        self.theory = theory
        self.kind = theory.kind
        self.witnesses = witnesses
        self.beta = theory_tightness(theory)
        self.builder = ReplacementBuilder(theory)
        self.c_of_symbol: dict[int, int] = {}
        self._cache: dict = {}

    def symbol_section(self, sym: int) -> int:
        """The c-symbol realising S's own rule-boundary by genapp(S)."""
        if sym in self.c_of_symbol:
            return self.c_of_symbol[sym]
        rule_index = self.beta[sym]
        rule = self.theory.rule(rule_index)
        decl = self.theory.signature.symbol(sym)
        name = self.theory.rule_name(rule_index)
        primed = self._primed_premises(rule_index)
        if decl.cls is TY:
            form, conclusion_slots = JudgementForm.IS_TY, ()
        else:
            form = JudgementForm.IS_TM
            conclusion_slots = (
                self._primed_conclusion_type(rule_index, primed),
            )
        spec = sequential_boundary_spec(
            primed, form, conclusion_slots, sequential_premise_names(rule)
        )
        realiser = generic_application(self.theory.signature, sym)
        witness = generic_rule_instance(rule_index, rule)
        c = self._add(f"c.{decl.name}", spec, realiser, witness)
        self.c_of_symbol[sym] = c
        return c

    # -- the d-image of a premise family ------------------------------------------

    def _primed_premises(self, index: int) -> tuple:
        rule, name = self.theory.rule(index), self.theory.rule_name(index)
        out: list[tuple[tuple[Expr, ...], JudgementForm, tuple[Expr, ...]]] = []
        for k, premise in enumerate(rule.premises):
            seq = self._sequential_entries(premise.context)
            primed_seq = tuple(
                self._primed_entry(rule, name, tuple(out), entry, k) for entry in seq
            )
            primed_slots = tuple(
                self._primed_slot(index, tuple(out), premise, slot, cls, k)
                for slot, cls in zip(premise.boundary, premise.form.boundary_classes)
            )
            out.append((primed_seq, premise.form, primed_slots))
        return tuple(out)

    def _sequential_entries(self, ctx: RawContext):
        seq = is_sequential_flat_context(self.kind, ctx)
        if seq is None:
            raise NotAcceptable("the section construction needs sequential contexts")
        return seq

    def _intro_premise(self, rule: RawRule, meta: int) -> int:
        return check_tight(rule)[meta]

    def _sub_arity_len(self, rule: RawRule, k: int) -> int:
        return len([p for p in rule.object_premises() if p < k])

    def _sub_meta_index(self, rule: RawRule, meta: int, k: int) -> int:
        """A metavariable's index within the arity of the first k premises.

        Sequential premise families list object premises in order, so the
        index is unchanged; this guards the assumption."""
        objects = [p for p in rule.object_premises() if p < k]
        intro = self._intro_premise(rule, meta)
        if intro not in objects:
            raise MissingWitness("a premise mentions a metavariable introduced later")
        return objects.index(intro)

    def _primed_entry(self, rule, name, prefix, entry: Expr, k: int) -> Expr:
        if not (isinstance(entry, MetaApp) and not entry.args and entry.scope == 0):
            raise MissingWitness(
                "the section construction supports premise contexts whose entries "
                "are bare closed metavariables"
            )
        intro = self._intro_premise(rule, entry.idx)
        realiser = MetaApp(self._sub_meta_index(rule, entry.idx, k), (), 0, TY)
        return self._type_symbol(
            f"c.{name}.{rule.metas[entry.idx]}", prefix, sequential_premise_names(rule)[:len(prefix)],
            realiser, Hyp(intro),
        )

    def _primed_slot(self, index: int, prefix, premise, slot: Expr, cls, k: int) -> Expr:
        if cls is not TY:
            raise MissingWitness(
                "the section construction primes type slots only"
            )
        rule, name = self.theory.rule(index), self.theory.rule_name(index)
        gamma = premise.context.scope
        prefix_family = list(prefix)
        for entry in self._sequential_entries(premise.context):
            primed = self._primed_entry(rule, name, tuple(prefix_family), entry, k)
            prefix_family.append(((), JudgementForm.IS_TM, (primed,)))
        sub = self._sub_arity_len(rule, k)
        promoted = self._promote_slot(rule, slot, k, gamma, sub)
        witness = self._slot_witness(index, premise, slot, k, gamma, sub)
        genapp_c = self._type_symbol(
            f"c.{name}.p{k}", tuple(prefix_family),
            sequential_premise_names(rule)[:k] + tuple(f"x{i}" for i in range(gamma)), promoted, witness,
        )
        # demote: prefix metavariables stay generic at the widened scope, moved
        # along the right inclusion b -> gamma + b, and promotion
        # metavariables become the context variables again
        kind = self.kind

        def right(v: Var) -> Var:
            return Var(kind.inr(gamma, v.scope, v.pos), gamma + v.scope)

        args = genapp_c.args
        new_args = [map_expr(a, right, lambda m: m, gamma) for a in args[:sub]]
        new_args += [Var(_declared_position(kind, j, gamma), gamma) for j in range(len(args) - sub)]
        return SymApp(genapp_c.sym, tuple(new_args), gamma, TY)

    def _promote_slot(self, rule, slot: Expr, k: int, gamma: int, sub: int) -> Expr:
        """The slot with context variables promoted to fresh metavariables and
        rule metavariables reindexed into the premise-prefix arity."""
        kind = self.kind

        def var(v: Var) -> Expr:
            side, q = kind.unsum(gamma, v.scope - gamma, v.pos)
            if side == "right":
                return Var(q, v.scope - gamma)
            return MetaApp(sub + _declared_position(kind, q, gamma), (), v.scope - gamma, TM)

        return map_expr(slot, var, lambda m: self._sub_meta_index(rule, m, k), -gamma)

    def _slot_witness(self, index: int, premise, slot, k: int, gamma: int, sub: int):
        """A derivation of the promoted slot's typing over the boundary's
        hypotheses: prefix premises first, then the promotion typings."""
        rule = self.theory.rule(index)
        # the slot is a metavariable applied to the context variables in declaration order
        declared = tuple(Var(_declared_position(self.kind, j, gamma), gamma) for j in range(gamma))
        if isinstance(slot, MetaApp) and slot.args == declared:
            intro = self._intro_premise(rule, slot.idx)
            if gamma == 0:
                return Hyp(intro)
            intro_premise = rule.premises[intro]
            # the intro premise's metavariables reindexed into the arity of the first k premises
            sub_j = intro_premise.map_exprs(
                partial(relabel_metas, index=lambda m: self._sub_meta_index(rule, m, k))
            )
            f = Substitution(0, gamma, tuple(
                MetaApp(sub + _declared_position(self.kind, p, gamma), (), 0, TM) for p in range(gamma)
            ))
            typings = tuple(Hyp(k + j) for j in range(gamma))
            return SubstInst(f, EMPTY_CONTEXT, frozenset(), sub_j, (Hyp(intro),) + typings)
        if gamma == 0:
            w = self.witnesses.get(self.theory.rule_name(index))
            if w is not None:
                slot_index = list(premise.boundary).index(slot)
                d = w.premises.get((k, slot_index))
                if d is not None:
                    return d
        raise MissingWitness(
            f"no witness available for the boundary slot {slot!r} of premise {k}"
        )

    def _primed_conclusion_type(self, index: int, primed) -> Expr:
        rule, name = self.theory.rule(index), self.theory.rule_name(index)
        a = rule.conclusion.boundary[0]
        sub = len(rule.arity)
        promoted = self._promote_slot(rule, a, len(rule.premises), 0, sub)
        w = self.witnesses.get(name)
        if w is None or 0 not in w.conclusion:
            raise MissingWitness(f"rule {name} has no conclusion-type witness")
        return self._type_symbol(f"c.{name}.ty", primed, sequential_premise_names(rule), promoted, w.conclusion[0])

    def _type_symbol(self, name: str, premises, names: tuple[str, ...], realiser: Expr, witness) -> Expr:
        """The generic application of the c-symbol for ``premises ⊢ ? type``
        named ``name`` and realised by ``realiser``."""
        spec = sequential_boundary_spec(premises, JudgementForm.IS_TY, (), names)
        c = self._add(name, spec, realiser, witness)
        return generic_application(self.builder.signature, c)

    def _add(self, name: str, spec: RuleBoundarySpec, realiser: Expr, witness) -> int:
        key = (spec, realiser)
        if key in self._cache:
            return self._cache[key]
        unique, n = name, 0
        taken = {s.name for s in self.builder.signature.symbols}
        while unique in taken:
            n += 1
            unique = f"{name}.{n}"
        idx = self.builder.add_symbol(SymbolStep(unique, spec, realiser, witness))
        self._cache[key] = idx
        return idx
