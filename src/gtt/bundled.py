"""Bundled theories: MLTT dependent products, a corpus variant with base
constants, the self-containing universe, and the cyclic quantifier.

Each constructor returns the theory together with its presupposition
witnesses; congruence-rule witnesses are synthesised from the object
rules' own witnesses.
"""

from __future__ import annotations

from functools import lru_cache

from . import derive
from .congruence_witnesses import congruence_witnesses
from .foundations import FinitePoset
from .judgements import (
    EMPTY_CONTEXT,
    Judgement,
    JudgementForm,
    RawContext,
    is_term,
    is_type,
    tm_eq,
)
from .rules import RawRule, congruence_rule
from .scopes import ScopeKind
from .syntax import (
    TM,
    TY,
    Instantiation,
    MetaApp,
    Signature,
    Substitution,
    SymApp,
    Symbol,
    Var,
    arity,
    mk_meta,
    mk_sym,
    mv_extend_signature,
)
from .theories import (
    Hyp,
    RawTypeTheory,
    RuleInst,
    RuleWitnesses,
    SubstInst,
    TheoryWitnesses,
)

PI_ARITY = arity((TY, 0), (TY, 1))
LAM_ARITY = arity((TY, 0), (TY, 1), (TM, 1))
APP_ARITY = arity((TY, 0), (TY, 1), (TM, 0), (TM, 0))
BETA_ARITY = arity((TY, 0), (TY, 1), (TM, 1), (TM, 0))

MLTT_SIGNATURE = Signature(
    (
        Symbol("Pi", TY, PI_ARITY),
        Symbol("lam", TM, LAM_ARITY),
        Symbol("app", TM, APP_ARITY),
    )
)


def _ctx1(entry):
    return RawContext(1, (entry,))


def _pi_rule(sig) -> RawRule:
    ext = mv_extend_signature(sig, PI_ARITY, ("A", "B"))
    A0 = mk_meta(ext, "A", (), 0)
    A1 = mk_meta(ext, "A", (), 1)
    B1 = mk_meta(ext, "B", (Var(0, 1),), 1)
    pi = mk_sym(ext, "Pi", (A0, B1), 0)
    return RawRule(
        PI_ARITY,
        (is_type(EMPTY_CONTEXT, A0), is_type(_ctx1(A1), B1)),
        is_type(EMPTY_CONTEXT, pi),
        ("A", "B"),
    )


def _lam_rule(sig) -> RawRule:
    ext = mv_extend_signature(sig, LAM_ARITY, ("A", "B", "t"))
    A0, A1 = mk_meta(ext, "A", (), 0), mk_meta(ext, "A", (), 1)
    B1 = mk_meta(ext, "B", (Var(0, 1),), 1)
    t1 = mk_meta(ext, "t", (Var(0, 1),), 1)
    lam = mk_sym(ext, "lam", (A0, B1, t1), 0)
    pi = mk_sym(ext, "Pi", (A0, B1), 0)
    return RawRule(
        LAM_ARITY,
        (
            is_type(EMPTY_CONTEXT, A0),
            is_type(_ctx1(A1), B1),
            is_term(_ctx1(A1), t1, B1),
        ),
        is_term(EMPTY_CONTEXT, lam, pi),
        ("A", "B", "t"),
    )


def _app_rule(sig) -> RawRule:
    ext = mv_extend_signature(sig, APP_ARITY, ("A", "B", "s", "t"))
    A0, A1 = mk_meta(ext, "A", (), 0), mk_meta(ext, "A", (), 1)
    B1 = mk_meta(ext, "B", (Var(0, 1),), 1)
    s0 = mk_meta(ext, "s", (), 0)
    t0 = mk_meta(ext, "t", (), 0)
    pi = mk_sym(ext, "Pi", (A0, B1), 0)
    app = mk_sym(ext, "app", (A0, B1, s0, t0), 0)
    b_of_t = mk_meta(ext, "B", (t0,), 0)
    return RawRule(
        APP_ARITY,
        (
            is_type(EMPTY_CONTEXT, A0),
            is_type(_ctx1(A1), B1),
            is_term(EMPTY_CONTEXT, s0, pi),
            is_term(EMPTY_CONTEXT, t0, A0),
        ),
        is_term(EMPTY_CONTEXT, app, b_of_t),
        ("A", "B", "s", "t"),
    )


def _beta_rule(sig) -> RawRule:
    ext = mv_extend_signature(sig, BETA_ARITY, ("A", "B", "t", "u"))
    A0, A1 = mk_meta(ext, "A", (), 0), mk_meta(ext, "A", (), 1)
    B1 = mk_meta(ext, "B", (Var(0, 1),), 1)
    t1 = mk_meta(ext, "t", (Var(0, 1),), 1)
    u0 = mk_meta(ext, "u", (), 0)
    lam = mk_sym(ext, "lam", (A0, B1, t1), 0)
    app = mk_sym(ext, "app", (A0, B1, lam, u0), 0)
    t_of_u = mk_meta(ext, "t", (u0,), 0)
    b_of_u = mk_meta(ext, "B", (u0,), 0)
    return RawRule(
        BETA_ARITY,
        (
            is_type(EMPTY_CONTEXT, A0),
            is_type(_ctx1(A1), B1),
            is_term(_ctx1(A1), t1, B1),
            is_term(EMPTY_CONTEXT, u0, A0),
        ),
        tm_eq(EMPTY_CONTEXT, app, t_of_u, b_of_u),
        ("A", "B", "t", "u"),
    )


def _subst_closing_meta(rule_sig, judgement: Judgement, terms, d_judgement, typings):
    """A substitution node sending every context variable to a closed term."""
    f = Substitution(0, judgement.context.scope, terms)
    return SubstInst(f, EMPTY_CONTEXT, frozenset(), judgement, (d_judgement,) + tuple(typings))


def _mltt_core_rules_and_witnesses(sig):
    """The four MLTT rules with their presupposition witnesses."""
    pi = _pi_rule(sig)
    lam = _lam_rule(sig)
    app = _app_rule(sig)
    beta = _beta_rule(sig)

    pi_w = RuleWitnesses()

    lam_ext = mv_extend_signature(sig, LAM_ARITY, ("A", "B", "t"))
    lam_pi_inst = Instantiation(
        PI_ARITY, 0, (mk_meta(lam_ext, "A", (), 0), mk_meta(lam_ext, "B", (Var(0, 1),), 1))
    )
    lam_w = RuleWitnesses(
        conclusion={0: RuleInst(0, lam_pi_inst, EMPTY_CONTEXT, (Hyp(0), Hyp(1)))},
        premises={(2, 0): Hyp(1)},
    )

    app_ext = mv_extend_signature(sig, APP_ARITY, ("A", "B", "s", "t"))
    app_pi_inst = Instantiation(
        PI_ARITY, 0, (mk_meta(app_ext, "A", (), 0), mk_meta(app_ext, "B", (Var(0, 1),), 1))
    )
    b_of_t = _subst_closing_meta(
        app_ext, app.premises[1], (mk_meta(app_ext, "t", (), 0),), Hyp(1), (Hyp(3),)
    )
    app_w = RuleWitnesses(
        conclusion={0: b_of_t},
        premises={(2, 0): RuleInst(0, app_pi_inst, EMPTY_CONTEXT, (Hyp(0), Hyp(1))), (3, 0): Hyp(0)},
    )

    beta_ext = mv_extend_signature(sig, BETA_ARITY, ("A", "B", "t", "u"))
    u0 = mk_meta(beta_ext, "u", (), 0)
    b_of_u = _subst_closing_meta(beta_ext, beta.premises[1], (u0,), Hyp(1), (Hyp(3),))
    t_of_u = _subst_closing_meta(beta_ext, beta.premises[2], (u0,), Hyp(2), (Hyp(3),))
    lam_inst = Instantiation(
        LAM_ARITY,
        0,
        (
            mk_meta(beta_ext, "A", (), 0),
            mk_meta(beta_ext, "B", (Var(0, 1),), 1),
            mk_meta(beta_ext, "t", (Var(0, 1),), 1),
        ),
    )
    d_lam = RuleInst(2, lam_inst, EMPTY_CONTEXT, (Hyp(0), Hyp(1), Hyp(2)))
    app_inst = Instantiation(
        APP_ARITY,
        0,
        (
            mk_meta(beta_ext, "A", (), 0),
            mk_meta(beta_ext, "B", (Var(0, 1),), 1),
            mk_sym(beta_ext, "lam", (mk_meta(beta_ext, "A", (), 0), mk_meta(beta_ext, "B", (Var(0, 1),), 1), mk_meta(beta_ext, "t", (Var(0, 1),), 1)), 0),
            u0,
        ),
    )
    d_app = RuleInst(4, app_inst, EMPTY_CONTEXT, (Hyp(0), Hyp(1), d_lam, Hyp(3)))
    beta_w = RuleWitnesses(
        conclusion={0: b_of_u, 1: d_app, 2: t_of_u},
        premises={(2, 0): Hyp(1), (3, 0): Hyp(0)},
    )
    return (pi, lam, app, beta), (pi_w, lam_w, app_w, beta_w)


def _assemble(sig, core, names, witnesses) -> tuple[RawTypeTheory, TheoryWitnesses]:
    """Interleave each object rule with its congruence rule and synthesise
    the congruence witnesses."""
    rules: list[RawRule] = []
    rule_names: list[str] = []
    table: TheoryWitnesses = {}
    for rule, name, w in zip(core, names, witnesses):
        rules.append(rule)
        rule_names.append(name)
        table[name] = w
        if rule.is_object:
            rules.append(congruence_rule(sig, rule))
            rule_names.append(f"{name}-cong")
    theory = RawTypeTheory(sig, tuple(rules), tuple(rule_names))
    for rule, name, w in zip(core, names, witnesses):
        if rule.is_object:
            idx = theory.rule_index(name)
            table[f"{name}-cong"] = congruence_witnesses(theory, idx, w, table)
    return theory, table


@lru_cache(maxsize=None)
def mltt_pi() -> tuple[RawTypeTheory, TheoryWitnesses]:
    """Dependent products: formation, abstraction, application, beta."""
    sig = MLTT_SIGNATURE
    core, witnesses = _mltt_core_rules_and_witnesses(sig)
    return _assemble(
        sig, core, ("Pi-form", "lam-intro", "app-elim", "beta"), witnesses
    )


BASE_SIGNATURE = Signature(
    (
        Symbol("Pi", TY, PI_ARITY),
        Symbol("lam", TM, LAM_ARITY),
        Symbol("app", TM, APP_ARITY),
        Symbol("unit", TY, ()),
        Symbol("tt", TM, ()),
    )
)


@lru_cache(maxsize=None)
def mltt_base() -> tuple[RawTypeTheory, TheoryWitnesses]:
    """MLTT products plus a base type and inhabitant, for closed derivations."""
    sig = BASE_SIGNATURE
    core, witnesses = _mltt_core_rules_and_witnesses(sig)
    unit_rule = RawRule((), (), is_type(EMPTY_CONTEXT, mk_sym(sig, "unit", (), 0)))
    t_unit = mk_sym(sig, "unit", (), 0)
    tt_rule = RawRule((), (), is_term(EMPTY_CONTEXT, mk_sym(sig, "tt", (), 0), t_unit))
    unit_w = RuleWitnesses()
    tt_w = RuleWitnesses(conclusion={0: RuleInst(7, Instantiation((), 0, ()), EMPTY_CONTEXT, ())})
    core = core + (unit_rule, tt_rule)
    witnesses = witnesses + (unit_w, tt_w)
    return _assemble(
        sig,
        core,
        ("Pi-form", "lam-intro", "app-elim", "beta", "unit-form", "tt-intro"),
        witnesses,
    )


TIT_SIGNATURE = Signature(
    (
        Symbol("u", TM, ()),
        Symbol("El", TY, arity((TM, 0))),
    )
)


@lru_cache(maxsize=None)
def type_in_type() -> tuple[RawTypeTheory, TheoryWitnesses]:
    """A Tarski universe containing itself: u : El(u)."""
    sig = TIT_SIGNATURE
    el_of_u0 = mk_sym(sig, "El", (mk_sym(sig, "u", (), 0),), 0)
    u_rule = RawRule((), (), is_term(EMPTY_CONTEXT, mk_sym(sig, "u", (), 0), el_of_u0))
    el_ext = mv_extend_signature(sig, arity((TM, 0)), ("a",))
    a0 = mk_meta(el_ext, "a", (), 0)
    el_rule = RawRule(
        arity((TM, 0)),
        (is_term(EMPTY_CONTEXT, a0, mk_sym(el_ext, "El", (mk_sym(el_ext, "u", (), 0),), 0)),),
        is_type(EMPTY_CONTEXT, mk_sym(el_ext, "El", (a0,), 0)),
        ("a",),
    )

    def d_el_of_u(ext):
        """The closed derivation of |- El(u) type."""
        d_u = RuleInst(0, Instantiation((), 0, ()), EMPTY_CONTEXT, ())
        inst = Instantiation(arity((TM, 0)), 0, (mk_sym(ext, "u", (), 0),))
        return RuleInst(2, inst, EMPTY_CONTEXT, (d_u,))

    u_w = RuleWitnesses(conclusion={0: d_el_of_u(sig)})
    el_w = RuleWitnesses(premises={(0, 0): d_el_of_u(el_ext)})
    return _assemble(sig, (u_rule, el_rule), ("u-intro", "El-form"), (u_w, el_w))


Q_SIGNATURE = Signature((Symbol("Q", TY, arity((TY, 0), (TM, 1))),))


@lru_cache(maxsize=None)
def cyclic_quantifier() -> tuple[RawTypeTheory, TheoryWitnesses]:
    """A quantifier whose premise context mentions the quantifier itself."""
    sig = Q_SIGNATURE
    ext = mv_extend_signature(sig, arity((TY, 0), (TM, 1)), ("A", "t"))
    A0, A1 = mk_meta(ext, "A", (), 0), mk_meta(ext, "A", (), 1)
    q_in_ctx = mk_sym(ext, "Q", (A1, mk_meta(ext, "t", (Var(0, 2),), 2)), 1)
    t1 = mk_meta(ext, "t", (Var(0, 1),), 1)
    q_rule = RawRule(
        arity((TY, 0), (TM, 1)),
        (
            is_type(EMPTY_CONTEXT, A0),
            is_term(_ctx1(q_in_ctx), t1, A1),
        ),
        is_type(EMPTY_CONTEXT, mk_sym(ext, "Q", (A0, t1), 0)),
        ("A", "t"),
    )
    premise_ctx = _ctx1(q_in_ctx)
    weakened_A = derive.weaken_closed(premise_ctx, is_type(EMPTY_CONTEXT, A0), Hyp(0))
    q_w = RuleWitnesses(premises={(1, 0): weakened_A})
    rules = (q_rule, congruence_rule(sig, q_rule))
    theory = RawTypeTheory(sig, rules, ("Q-form", "Q-form-cong"))
    return theory, {"Q-form": q_w}


MLTT_ORDER = FinitePoset.of(
    7,
    [
        (0, 2), (0, 4),          # Pi-form before lam and app
        (1, 3), (1, 5),          # Pi-cong before their congruences
        (0, 1), (2, 3), (4, 5),  # each rule before its congruence
        (2, 6), (4, 6),          # beta last
    ],
)

BASE_ORDER = FinitePoset.of(
    11,
    [
        (0, 2), (0, 4), (1, 3), (1, 5), (0, 1), (2, 3), (4, 5), (2, 6), (4, 6),
        (7, 8), (7, 9), (9, 10), (8, 10),
    ],
)

TIT_ORDER = FinitePoset.of(4, [(0, 1), (2, 3), (0, 2)])


def mltt_pi_presented():
    """The well-presented form of the products theory: rule boundaries over
    staged signatures, with witnesses, elaborating to the raw theory."""
    from .presentation import (
        PremiseWitnesses,
        PremisesShape,
        RuleBoundarySpec,
        RuleBoundaryWitnesses,
        TheoryRuleSpec,
        WellFoundedPremiseFamily,
        WellPresentedTheorySpec,
    )

    kind = ScopeKind.INDICES
    IS_TY, IS_TM, TM_EQ = JudgementForm.IS_TY, JudgementForm.IS_TM, JudgementForm.TM_EQ

    def total_shape(slots):
        n = len(slots)
        order = FinitePoset.of(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        return PremisesShape(order, tuple(slots))

    def meta(idx, args, scope, cls):
        return MetaApp(idx, tuple(args), scope, cls)

    # premise families are written over the staged signatures; the full
    # signature has Pi=0, lam=1, app=2 in declaration order
    A0 = meta(0, (), 0, TY)
    A1 = meta(0, (), 1, TY)
    B1 = meta(1, (Var(0, 1),), 1, TY)

    pi_premises = WellFoundedPremiseFamily(
        total_shape([(IS_TY, 0), (IS_TY, 1)]),
        (
            ((), ()),
            ((A0,), ()),
        ),
        ("A", "B"),
    )
    pi_spec = TheoryRuleSpec("Pi", RuleBoundarySpec(pi_premises, IS_TY, ()))

    lam_premises = WellFoundedPremiseFamily(
        total_shape([(IS_TY, 0), (IS_TY, 1), (IS_TM, 1)]),
        (
            ((), ()),
            ((A0,), ()),
            ((A0,), (B1,)),
        ),
        ("A", "B", "t"),
    )

    pi_of_AB = SymApp(0, (A0, B1), 0, TY)
    lam_spec = TheoryRuleSpec(
        "lam", RuleBoundarySpec(lam_premises, IS_TM, (pi_of_AB,))
    )

    s0 = meta(2, (), 0, TM)
    t0 = meta(3, (), 0, TM)
    app_premises = WellFoundedPremiseFamily(
        total_shape([(IS_TY, 0), (IS_TY, 1), (IS_TM, 0), (IS_TM, 0)]),
        (
            ((), ()),
            ((A0,), ()),
            ((), (pi_of_AB,)),
            ((), (A0,)),
        ),
        ("A", "B", "s", "t"),
    )
    b_of_t = meta(1, (t0,), 0, TY)
    app_spec = TheoryRuleSpec(
        "app", RuleBoundarySpec(app_premises, IS_TM, (b_of_t,))
    )

    t1 = meta(2, (Var(0, 1),), 1, TM)
    u0 = meta(3, (), 0, TM)
    beta_premises = WellFoundedPremiseFamily(
        total_shape([(IS_TY, 0), (IS_TY, 1), (IS_TM, 1), (IS_TM, 0)]),
        (
            ((), ()),
            ((A0,), ()),
            ((A0,), (B1,)),
            ((), (A0,)),
        ),
        ("A", "B", "t", "u"),
    )
    lam_of = SymApp(1, (A0, B1, t1), 0, TM)
    app_of = SymApp(2, (A0, B1, lam_of, u0), 0, TM)
    t_of_u = meta(2, (u0,), 0, TM)
    b_of_u = meta(1, (u0,), 0, TY)
    beta_spec = TheoryRuleSpec(
        "beta", RuleBoundarySpec(beta_premises, TM_EQ, (app_of, t_of_u, b_of_u))
    )

    order = FinitePoset.of(4, [(0, 1), (0, 2), (1, 3), (2, 3)])

    # witnesses: presuppositions of the term premises and conclusions; the
    # hypotheses of each are the flattened earlier premises
    lam_w = RuleBoundaryWitnesses(
        PremiseWitnesses({(2, 0): Hyp(1)}),
        {0: RuleInst(0, Instantiation(PI_ARITY, 0, (A0, B1)), EMPTY_CONTEXT, (Hyp(0), Hyp(1)))},
    )
    app_w = RuleBoundaryWitnesses(
        PremiseWitnesses(
            {
                (2, 0): RuleInst(
                    0, Instantiation(PI_ARITY, 0, (A0, B1)), EMPTY_CONTEXT, (Hyp(0), Hyp(1))
                ),
                (3, 0): Hyp(0),
            }
        ),
        {0: _subst_meta_witness(1, 3, t0, B1, A1)},
    )
    beta_w = RuleBoundaryWitnesses(
        PremiseWitnesses({(2, 0): Hyp(1), (3, 0): Hyp(0)}),
        {
            0: _subst_meta_witness(1, 3, u0, B1, A1),
            1: RuleInst(
                4,
                Instantiation(APP_ARITY, 0, (A0, B1, lam_of, u0)),
                EMPTY_CONTEXT,
                (
                    Hyp(0),
                    Hyp(1),
                    RuleInst(
                        2,
                        Instantiation(LAM_ARITY, 0, (A0, B1, t1)),
                        EMPTY_CONTEXT,
                        (Hyp(0), Hyp(1), Hyp(2)),
                    ),
                    Hyp(3),
                ),
            ),
            2: _subst_meta_witness(2, 3, u0, t1, A1, B1),
        },
    )
    return WellPresentedTheorySpec(
        kind,
        order,
        (pi_spec, lam_spec, app_spec, beta_spec),
        {"lam": lam_w, "app": app_w, "beta": beta_w},
    )


def _subst_meta_witness(premise_idx, typing_idx, term, body, entry, body_ty=None):
    """Close a one-variable hypothesis by substituting a closed metavariable."""
    ctx = RawContext(1, (entry,))
    judgement = is_type(ctx, body) if body_ty is None else is_term(ctx, body, body_ty)
    f = Substitution(0, 1, (term,))
    return SubstInst(f, EMPTY_CONTEXT, frozenset(), judgement, (Hyp(premise_idx), Hyp(typing_idx)))
