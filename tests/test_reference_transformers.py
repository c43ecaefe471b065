"""The substitution transformers agree with the reference transformers.

``metatheory`` checks the side conditions of renaming, substitution and
equality substitution once, at the root, descends with a binder count,
renames by substituting variables, and folds a chain of substitution nodes
into one; ``reference_transformers`` re-checks them at every node, builds
the extended tables under every binder, renames with a walk of its own,
and eliminates the nodes of a chain one at a time.  On every input,
``eliminate_substitution``, ``invert``, ``unique_typing_acceptable`` and
``rename_derivation`` give ``==`` outputs with equal JSON bytes under both,
or fail with the same kernel error.

Inputs: the corpus; chains of k stacked weakenings over a lam tower that
uses a variable from outside its binders, with all-or-none trivial sets,
with trivial and typed positions mixed within each node, and over a
``[tt/x]`` node; and equality substitutions under binders, into that tower
and into nested Pi; equality substitutions into a small theory with a type
family ``Fam(a)`` over ``unit`` and two equal terms ``tt``, ``tt2``, whose
variables have types that the two substitutions send apart; each in both
scope systems.  The de Bruijn levels copy
is the indices one read through the isomorphism that sends index p of a
scope n to level n - 1 - p: contexts, substitution tables, metavariable
arguments and the typing children of a substitution node list their
positions in the opposite order.  Renaming inputs: every substitution-free
corpus derivation weakened by one ``unit`` entry, and a swap of two ``unit``
entries into a context that respects it and into one that does not.

Substitution and renaming also take derivations that hold substitution
nodes: on the substitution corpus, the weakening chains and a weakened lam
whose body is a weakening, each gives what it gives on the elimination, and
elimination gives what the bottom-up oracle gives, node for node.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from corpus import (
    KIND,
    THEORY,
    WITNESSES,
    build_corpus,
    equality_substitution_into_nested_pi,
    equality_substitutions_under_binders,
    extend,
    mixed_weakening_chain,
    pi_over,
    substituted_weakening_chain,
    substitution_corpus,
    unit_at,
    var,
    variable_typing,
    weakened_lam_over_weakening,
    weakening_chain,
)
import reference_transformers as reference
from gtt import derive, metatheory
from gtt.errors import KernelError, MissingWitness, TrivialityViolated
from gtt.judgements import EMPTY_CONTEXT, Judgement, JudgementForm, RawContext, extend_context, is_term, tm_eq
from gtt.jsonio import derivation_to_json, dumps, load_theory_file
from gtt.metatheory import (
    check_acceptable_theory,
    derivation_nodes,
    derive_presuppositions,
    is_substitution_free,
)
from gtt.presentation import elaborate_theory
from gtt.rules import RawRule
from gtt.scopes import Renaming, ScopeKind, inl_renaming
from gtt.syntax import (
    Instantiation, MetaApp, Signature, Substitution, SymApp, Var, mk_sym, substitute_expr, weaken_expr,
)
from gtt.theories import (
    EqSubstInst,
    Hyp,
    RawTypeTheory,
    RuleInst,
    RuleWitnesses,
    SubstInst,
    VariableInst,
    check_theory_derivation,
)
from reference_transformers import reference_transformers


# --- the levels copy ------------------------------------------------------------

def lv_expr(e):
    match e:
        case Var(pos=p, scope=n):
            return Var(n - 1 - p, n)
        case SymApp(sym=s, args=args, scope=n, cls=c):
            return SymApp(s, tuple(map(lv_expr, args)), n, c)
        case MetaApp(idx=m, args=args, scope=n, cls=c):
            return MetaApp(m, tuple(map(lv_expr, reversed(args))), n, c)


def lv_context(ctx: RawContext) -> RawContext:
    return RawContext(ctx.scope, tuple(map(lv_expr, reversed(ctx.types))))


def lv_judgement(j: Judgement) -> Judgement:
    head = None if j.head is None else lv_expr(j.head)
    return Judgement(lv_context(j.context), j.form, tuple(map(lv_expr, j.boundary)), head)


def lv_subst(f: Substitution) -> Substitution:
    return Substitution(f.src, f.dst, tuple(map(lv_expr, reversed(f.table))))


def lv_renaming(r: Renaming) -> Renaming:
    return Renaming(r.src, r.dst, tuple(r.dst - 1 - r(r.src - 1 - i) for i in range(r.src)))


def lv_derivation(d):
    if isinstance(d, Hyp):
        return d
    kids = tuple(map(lv_derivation, d.children))
    match d:
        case RuleInst():
            return d._replace(inst=d.inst.map_exprs(lv_expr), context=lv_context(d.context), children=kids)
        case VariableInst(context=ctx, pos=i):
            return VariableInst(lv_context(ctx), ctx.scope - 1 - i, kids)
        case SubstInst(judgement=j, trivial=K):
            n = j.context.scope
            return SubstInst(lv_subst(d.subst), lv_context(d.context), frozenset(n - 1 - i for i in K),
                             lv_judgement(j), kids[:1] + kids[1:][::-1])
        case EqSubstInst(judgement=j, trivial=K):
            n = j.context.scope
            triples = [kids[p:p + 3] for p in range(1, len(kids), 3)]
            return EqSubstInst(lv_subst(d.left), lv_subst(d.right), lv_context(d.context),
                               frozenset(n - 1 - i for i in K), lv_judgement(j),
                               kids[:1] + sum(reversed(triples), ()))


def lv_theory(theory: RawTypeTheory) -> RawTypeTheory:
    sig = theory.signature
    rules = tuple(
        RawRule(r.arity, tuple(map(lv_judgement, r.premises)), lv_judgement(r.conclusion), r.meta_names)
        for r in theory.rules
    )
    lv_sig = Signature(sig.symbols, ScopeKind.LEVELS, sig.mv_arity, sig.mv_names)
    return RawTypeTheory(lv_sig, rules, theory.rule_names)


LV_THEORY = lv_theory(THEORY)
LV_WITNESSES = {
    name: RuleWitnesses(
        {p: lv_derivation(d) for p, d in w.conclusion.items()},
        {key: lv_derivation(d) for key, d in w.premises.items()},
    )
    for name, w in WITNESSES.items()
}


def inputs():
    """(theory, witnesses, derivation, conclusion) in both scope systems."""
    items = build_corpus() + substitution_corpus() + [weakening_chain(k) for k in range(1, 9)]
    items += [mixed_weakening_chain(k) for k in range(1, 5)]
    items += [substituted_weakening_chain(k) for k in range(0, 4)]
    eq_substs = equality_substitutions_under_binders()
    eq_substs += [equality_substitution_into_nested_pi(n) for n in range(1, 5)]
    items += [(d, check_theory_derivation(THEORY, (), d)) for d in eq_substs]
    out = [(THEORY, WITNESSES, d, j) for d, j in items]
    out += [(LV_THEORY, LV_WITNESSES, lv_derivation(d), lv_judgement(j)) for d, j in items]
    return out


INPUTS = inputs()


def renamings():
    """(renaming, target, derivation) in the indices system."""
    out = []
    for d, j in build_corpus():
        if not is_substitution_free(d):
            continue
        ctx = j.context
        out.append((inl_renaming(KIND, ctx.scope, 1), extend(ctx, unit_at(ctx)), d))
    ctx1 = extend(EMPTY_CONTEXT, unit_at(EMPTY_CONTEXT))
    ctx2 = extend(ctx1, unit_at(ctx1))
    x = var(ctx2, 0, unit_at(ctx2).d_type)
    swap = Renaming(2, 2, (1, 0))
    out.append((swap, ctx2, x.d_term))
    # the newest entry of the target has type Pi(unit, unit): not type-respecting
    out.append((swap, extend(ctx1, pi_over(unit_at(ctx1))), x.d_term))
    return out


RENAMINGS = renamings()


def test_the_levels_copy_checks():
    assert check_acceptable_theory(LV_THEORY, LV_WITNESSES).acceptable
    for theory, _, d, j in INPUTS:
        assert check_theory_derivation(theory, (), d) == j


def fold_cases(d) -> set[str]:
    """How the inner node of each pair of stacked subst nodes in ``d`` treats
    its source positions: typed, trivial and sent to a trivial position of
    the outer node, or trivial and sent to a typed one."""
    cases = set()
    for outer in derivation_nodes(d):
        inner = outer.children[0] if isinstance(outer, SubstInst) else None
        if not isinstance(inner, SubstInst):
            continue
        for i in range(inner.judgement.context.scope):
            if i not in inner.trivial:
                cases.add("typed")
            elif inner.subst(i).pos in outer.trivial:
                cases.add("trivial to trivial")
            else:
                cases.add("trivial to typed")
    return cases


@pytest.mark.parametrize("lv", [lambda d: d, lv_derivation], ids=["indices", "levels"])
def test_the_chains_reach_every_case_of_the_fold(lv):
    assert fold_cases(lv(mixed_weakening_chain(4)[0])) == {"typed", "trivial to trivial", "trivial to typed"}
    # the bottom node sends x to tt, so the folded substitution does too
    bottom = lv(substituted_weakening_chain(3)[0])
    while isinstance(bottom.children[0], SubstInst):
        bottom = bottom.children[0]
    assert not isinstance(bottom.subst(0), Var)


# --- agreement --------------------------------------------------------------------

def outcome(fn, *args):
    """The output, or the kernel error it raised."""
    try:
        return fn(*args)
    except KernelError as e:
        return type(e), str(e)


def assert_agree(theory, name, *args):
    """``metatheory.<name>`` gives the same outcome with the reference
    transformers swapped in (it is looked up after the swap)."""
    got = outcome(getattr(metatheory, name), theory, *args)
    with reference_transformers():
        want = outcome(getattr(metatheory, name), theory, *args)
    assert got == want
    if isinstance(got, (RuleInst, VariableInst)):
        sig = theory.signature
        assert dumps(derivation_to_json(theory, sig, got)) == dumps(derivation_to_json(theory, sig, want))
    return got


def conv_wrapped(theory, witnesses, d, j):
    """The same typing, converted along reflexivity of its type."""
    d_a = derive_presuppositions(theory, d, witnesses)[0]
    ctx, (a,), t = j.context, j.boundary, j.head
    return derive.conv(ctx, a, a, t, d_a, d_a, d, derive.refl_ty(ctx, a, d_a))


@pytest.mark.parametrize("kind", ["indices", "levels"])
def test_transformers_agree_with_the_reference(kind):
    theory = THEORY if kind == "indices" else LV_THEORY
    for th, witnesses, d, j in INPUTS:
        if th is not theory:
            continue
        out = assert_agree(theory, "eliminate_substitution", d)
        assert check_theory_derivation(theory, (), out) == j
        if j.form in (JudgementForm.IS_TY, JudgementForm.IS_TM):
            assert_agree(theory, "invert", d, witnesses)
        if j.form is JudgementForm.IS_TM:
            assert_agree(theory, "unique_typing_acceptable", d, d, witnesses)
            wrapped = conv_wrapped(theory, witnesses, d, j)
            assert_agree(theory, "unique_typing_acceptable", d, wrapped, witnesses)


@pytest.mark.parametrize("kind", ["indices", "levels"])
def test_renaming_agrees_with_the_reference(kind):
    theory = THEORY if kind == "indices" else LV_THEORY
    outcomes = []
    for r, target, d in RENAMINGS:
        if kind == "levels":
            r, target, d = lv_renaming(r), lv_context(target), lv_derivation(d)
        out = assert_agree(theory, "rename_derivation", r, target, d)
        outcomes.append(out)
        if type(out) is not tuple:  # a derivation, not an error (derivations are tuple records)
            assert check_theory_derivation(theory, (), out).context == target
    # only the last swap fails: at indices position 1, which is levels position 0
    position = 1 if kind == "indices" else 0
    failures = [o for o in outcomes if type(o) is tuple]
    assert failures == [outcomes[-1]] == [
        (TrivialityViolated, f"substitution does not act trivially at position {position} ")
    ]


# --- substitution into a derivation that holds substitution nodes --------------------

NODE_INPUTS = (
    substitution_corpus()
    + [weakening_chain(k) for k in range(1, 9)]
    + [mixed_weakening_chain(k) for k in range(1, 5)]
    + [substituted_weakening_chain(k) for k in range(0, 4)]
    + [weakened_lam_over_weakening()]
)


def same_nodes(theory, got, want):
    """``got`` and ``want`` agree node for node, pre-order, and in JSON bytes."""
    def data(node):
        return node._replace(children=()) if node.children else node

    assert list(map(data, derivation_nodes(got))) == list(map(data, derivation_nodes(want)))
    sig = theory.signature
    assert dumps(derivation_to_json(theory, sig, got)) == dumps(derivation_to_json(theory, sig, want))


def weakening(j: Judgement, levels: bool):
    """The weakening of the context of j, an indices judgement, by one ``unit``
    entry: as a renaming, the typings that make it a substitution with no
    trivial position (a variable at each), and its target; in ``levels``
    if asked."""
    ctx, n = j.context, j.context.scope
    target = extend(ctx, unit_at(ctx))
    r = inl_renaming(KIND, n, 1)
    typings = {i: variable_typing(target, r(i)) for i in range(n)}
    if levels:
        return lv_renaming(r), {n - 1 - i: lv_derivation(t) for i, t in typings.items()}, lv_context(target)
    return r, typings, target


@pytest.mark.parametrize("levels", [False, True], ids=["indices", "levels"])
def test_substitution_into_substitution_nodes_is_substitution_into_their_elimination(levels):
    # substitution and renaming fold the substitution nodes they meet; their
    # output equals that of the same call on the elimination, and elimination
    # equals the bottom-up oracle
    theory = LV_THEORY if levels else THEORY
    for d, j in NODE_INPUTS:
        r, typings, target = weakening(j, levels)
        d = lv_derivation(d) if levels else d
        eliminated = metatheory.eliminate_substitution(theory, d)
        same_nodes(theory, eliminated, reference.eliminate_substitution(theory, d))
        for call in (
            lambda d: metatheory.substitute_derivation(
                theory, Substitution.of_renaming(r), target, frozenset(), typings, d
            ),
            lambda d: metatheory.rename_derivation(theory, r, target, d),
        ):
            out = call(d)
            same_nodes(theory, out, call(eliminated))
            assert is_substitution_free(out)
            assert check_theory_derivation(theory, (), out).context == target


@pytest.mark.parametrize("levels", [False, True], ids=["indices", "levels"])
def test_substitution_into_substitution_nodes_needs_a_typing_and_no_hypothesis(levels):
    theory = LV_THEORY if levels else THEORY
    d, j = weakened_lam_over_weakening()
    r, _, target = weakening(j, levels)
    if levels:
        d, j = lv_derivation(d), lv_judgement(j)
    # the root node keeps x, at position 1 of its target (0 in levels), a
    # variable; the walk's substitution types x and has no typing for it
    with pytest.raises(MissingWitness, match=f"^no typing derivation for position {0 if levels else 1}$"):
        metatheory.substitute_derivation(theory, Substitution.of_renaming(r), target, frozenset(), {}, d)
    # a substitution node over a hypothesis folds to the hypothesis only when
    # its substitution is the identity
    over_hyp = d._replace(children=(Hyp(0),))
    with pytest.raises(MissingWitness, match="^cannot substitute into a hypothesis$"):
        metatheory.eliminate_substitution(theory, over_hyp)
    ctx = j.context
    identity = derive.subst(Substitution.identity(ctx.scope), ctx, frozenset(range(ctx.scope)), j, Hyp(0))
    assert metatheory.eliminate_substitution(theory, identity) == Hyp(0)


# --- a type family over a type with two equal terms ---------------------------------

def _closed(name: str) -> dict:
    return {"node": "rule", "name": name, "cxt": [], "inst": {}, "children": []}


def family_theory() -> RawTypeTheory:
    """``Pi`` and ``lam`` of ``mltt_pi_presented``, ``unit`` with ``tt``, ``tt2``
    and the rule ``tt == tt2 : unit``, and ``a : unit |- Fam(a) type``, elaborated."""
    fixtures = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
    presented = json.loads((fixtures / "mltt_pi_presented.json").read_text())
    unit = {"sym": "unit", "args": []}
    spec = {
        "well_presented": True, "scope_system": presented["scope_system"],
        "rules": presented["rules"][:2] + [
            {"name": "unit", "conclusion_form": "IsTy"},
            *({"name": c, "conclusion_form": "IsTm", "conclusion_boundary": {"type": unit},
               "witnesses": {"conclusion/0": _closed("unit")}} for c in ("tt", "tt2")),
            {"name": "tt-eq", "conclusion_form": "TmEq",
             "conclusion_boundary": {"lhs": {"sym": "tt", "args": []}, "rhs": {"sym": "tt2", "args": []}, "type": unit},
             "witnesses": {f"conclusion/{p}": _closed(c) for p, c in enumerate(("unit", "tt", "tt2"))}},
            {"name": "Fam", "conclusion_form": "IsTy",
             "premises": [{"name": "a", "form": "IsTm", "boundary": {"type": unit}}],
             "witnesses": {"premise_0/0": _closed("unit")}},
        ],
        "order": [["Pi", "lam"], ["unit", "tt"], ["unit", "tt2"], ["tt", "tt-eq"], ["tt2", "tt-eq"], ["unit", "Fam"]],
    }
    theory, witnesses = elaborate_theory(load_theory_file(spec)[1])
    assert check_acceptable_theory(theory, witnesses).acceptable
    return theory


FAMILY = family_theory()


def family_inputs():
    """Equality substitutions [tt/y] == [tt2/y] into derivations over y : unit
    in ``FAMILY``: (eqsubst nodes for ``eliminate_substitution``, arguments of
    a direct ``substitute_equal_derivation`` call)."""
    theory, kind = FAMILY, FAMILY.kind

    def sym(name, scope, *args):
        return mk_sym(theory.signature, name, args, scope)

    def rule(name, ctx, exprs=(), children=()):
        i = theory.rule_index(name)
        return RuleInst(i, Instantiation(theory.rule(i).arity, ctx.scope, tuple(exprs)), ctx, tuple(children))

    def triple(ctx):
        return rule("tt", ctx), rule("tt2", ctx), rule("tt-eq", ctx)

    e = EMPTY_CONTEXT
    ctx1 = extend_context(kind, e, (sym("unit", 1),))  # y : unit
    fam_y = sym("Fam", 1, Var(0, 1))
    ctx2 = extend_context(kind, ctx1, (weaken_expr(kind, fam_y, 1),))  # y : unit, x : Fam(y)
    y_at, x_at = kind.inl(1, 1, 0), kind.inr(1, 1, 0)
    d_y1 = VariableInst(ctx1, 0, (rule("unit", ctx1),))
    d_fam2 = rule("Fam", ctx2, (Var(y_at, 2),), (VariableInst(ctx2, y_at, (rule("unit", ctx2),)),))
    d_x = VariableInst(ctx2, x_at, (d_fam2,))
    f, g = Substitution(0, 1, (sym("tt", 0),)), Substitution(0, 1, (sym("tt2", 0),))

    # y : unit converted along the reflexivity of unit: y is a free variable
    # at the root, and ty-refl a rule node with an equality conclusion
    u, d_u = sym("unit", 1), rule("unit", ctx1)
    conv_y = derive.conv(ctx1, u, u, Var(0, 1), d_u, d_u, d_y1, derive.refl_ty(ctx1, u, d_u))
    # lam(x : Fam(y). x): under the binder x has type Fam(tt) in the f-image
    # and Fam(tt2) in the g-image
    lam_x = rule("lam", ctx1, (fam_y, weaken_expr(kind, fam_y, 1), Var(x_at, 2)),
                 (rule("Fam", ctx1, (Var(0, 1),), (d_y1,)), d_fam2, d_x))
    eqsubsts = [
        derive.eq_subst(f, g, e, frozenset(), check_theory_derivation(theory, (), d), d, (triple(e),))
        for d in (conv_y, lam_x)
    ]
    # x : Fam(y) with x trivial and a target entry of type Fam(tt2), the g-image
    # of Fam(y): the kernel's rule asks both images to be the entry's type, so
    # only a direct call accepts this
    target = extend_context(kind, e, (sym("Fam", 1, sym("tt2", 1)),))
    table = [None, None]
    table[x_at], table[y_at] = Var(0, 1), sym("tt", 1)
    f2 = Substitution(1, 2, tuple(table))
    table[y_at] = sym("tt2", 1)
    g2 = Substitution(1, 2, tuple(table))
    direct = (f2, g2, target, frozenset({x_at}), {y_at: triple(target)}, d_x)
    return eqsubsts, direct


def test_the_family_theory_reaches_the_cases_of_equality_substitution():
    theory, kind = FAMILY, FAMILY.kind
    lv = lv_theory(theory)
    eqsubsts, (f, g, target, trivial, triples, d) = family_inputs()
    for th, convert in ((theory, lambda x: x), (lv, lv_derivation)):
        for node in eqsubsts:
            node = convert(node)
            out = assert_agree(th, "eliminate_substitution", node)
            assert is_substitution_free(out)
            assert check_theory_derivation(th, (), out) == check_theory_derivation(th, (), node)
    d_f, d_g, d_e = assert_agree(theory, "substitute_equal_derivation", f, g, target, trivial, triples, d)
    fam_tt, fam_tt2 = (substitute_expr(kind, s, d.context.type_at(d.pos)) for s in (f, g))
    x = Var(0, 1)
    assert check_theory_derivation(theory, (), d_f) == is_term(target, x, fam_tt)
    assert check_theory_derivation(theory, (), d_g) == is_term(target, x, fam_tt2)
    assert check_theory_derivation(theory, (), d_e) == tm_eq(target, x, x, fam_tt)
