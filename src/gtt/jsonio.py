"""JSON interchange for the kernel objects of the raw layer.

Expressions carry no scopes on the wire; decoding re-validates everything
against the declared signature and the scope implied by context, so a
file round-trips exactly when it is well-formed.  Emission is canonical:
sorted keys, no whitespace (or indented with sorted keys under pretty).

Every field of a theory file, a well-presented spec and a derivation is
type-checked before anything is built from it, and the decoders refuse an
expression or a derivation nested deeper than ``MAX_DEPTH``, so a
malformed or hostile input file ends in ``ParseError``.

This module belongs to the raw layer.  It decodes theory files and
decodes and encodes expressions, judgements, rules and derivations.  The
codec of well-presented specs and the encoder of raw theory files live
in ``presentation``: only the commands that elaborate a spec or emit a
theory need them, and ``load_theory_file`` imports that module only for a
spec file.
"""

from __future__ import annotations

import json
import sys
from functools import cached_property
from typing import Any

from .errors import IndexOutOfRange, KernelError, ParseError
from .foundations import FinitePoset
from .judgements import Judgement, JudgementForm, RawContext
from .rules import BuiltinRule, RawRule
from .scopes import ScopeKind
from .syntax import (
    Argument,
    Arity,
    Expr,
    Instantiation,
    MetaApp,
    Signature,
    Substitution,
    SymApp,
    Symbol,
    SyntacticClass,
    TM,
    TY,
    Var,
    mk_meta,
    mk_sym,
    mk_var,
    mv_extend_signature,
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
)


# Under Python's default recursion limit of 1000, ``check_theory_derivation`` reaches a nested Pi
# of 983 levels, ``derivation_to_json`` and the decoder one of about 495, ``eliminate_substitution``
# one of 493 under a substitution node (it recurses only inside substitutions), and ``invert`` a
# chain of 985 conversions.  This limit leaves every entry point a margin.
MAX_DEPTH = 200


def dumps(obj: Any, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except ValueError:
        # the one other error ``json.loads`` raises: an integer literal over
        # the interpreter's limit on digits converted to int
        raise ParseError(
            f"invalid JSON: an integer literal has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None


# --- expressions ------------------------------------------------------------------

def expr_to_json(sig: Signature, e: Expr) -> Any:
    """The codec walks by hand: it is in the raw layer, below ``subexpressions``."""
    match e:
        case Var(pos=p):
            return {"var": p}
        case SymApp(sym=s, args=args):
            return {"sym": sig.symbol(s).name, "args": [expr_to_json(sig, a) for a in args]}
        case MetaApp(idx=m, args=args):
            return {"meta": sig.mv_name(m), "args": [expr_to_json(sig, a) for a in args]}
    raise TypeError(e)


def expr_from_json(sig: Signature, data: Any, scope: int) -> Expr:
    return _Decoder(sig).expr(data, scope, 1)


class _Decoder:
    """Decodes over one signature (and one theory, for derivations).  Each
    symbol name is looked up once, in a table built with the decoder; the
    ``mk_*`` constructor or record that builds a node validates it."""

    def __init__(self, sig: Signature, theory: RawTypeTheory | None = None):
        self.sig, self.theory = sig, theory
        self.syms = {s.name: i for i, s in enumerate(sig.symbols)}

    def expr(self, data: Any, scope: int, depth: int) -> Expr:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH}")
        if not isinstance(data, dict):
            raise ParseError(f"expected an expression object, got {data!r}")
        if "var" in data:
            return mk_var(scope, _nat(data["var"], "var"))
        if "sym" in data:
            idx = self.syms.get(_str(data["sym"], "sym"))
            if idx is None:
                raise ParseError(f"no symbol named {data['sym']!r}")
            decl = self.sig.symbols[idx]
            raw_args = _list(data.get("args", []), "args")
            if len(raw_args) != len(decl.arity):
                raise ParseError(f"{decl.name} expects {len(decl.arity)} arguments")
            args = tuple(self.expr(a, scope + slot.binder, depth + 1) for a, slot in zip(raw_args, decl.arity))
            return mk_sym(self.sig, idx, args, scope)
        if "meta" in data:
            try:
                idx = self.sig.mv_index(_str(data["meta"], "meta"))
            except KernelError as e:
                raise ParseError(str(e)) from e
            args = tuple(self.expr(a, scope, depth + 1) for a in _list(data.get("args", []), "args"))
            return mk_meta(self.sig, idx, args, scope)
        raise ParseError(f"not an expression: {data!r}")

    def context(self, data: Any) -> RawContext:
        if not isinstance(data, list):
            raise ParseError("a context is a list of types, indexed by position")
        scope = len(data)
        return RawContext(scope, tuple(self.expr(t, scope, 1) for t in data))

    def judgement(self, data: Any) -> Judgement:
        data = _obj(data, "a judgement")
        form = _form_from(data.get("form"))
        ctx = self.context(data.get("cxt", []))
        slots = _obj(data.get("slots", {}), "judgement slots")
        boundary = self.boundary(slots, form, ctx.scope, f"{form.value} judgement")
        head = None
        if form.head_class is not None:
            if "head" not in slots:
                raise ParseError(f"{form.value} judgement needs a head slot")
            head = self.expr(slots["head"], ctx.scope, 1)
        return Judgement(ctx, form, boundary, head)

    def boundary(self, slots: dict, form: JudgementForm, scope: int, what: str) -> tuple[Expr, ...]:
        """The boundary slots of ``form``, read from an object keyed by slot name."""
        for k in _BOUNDARY_KEYS[form]:
            if k not in slots:
                raise ParseError(f"{what} needs a {k} slot")
        return tuple(self.expr(slots[k], scope, 1) for k in _BOUNDARY_KEYS[form])

    def substitution(self, data: Any) -> Substitution:
        data = _obj(data, "a substitution")
        src = _nat(data.get("src"), "src")
        table = tuple(self.expr(e, src, 1) for e in _list(data.get("map", []), "map"))
        return Substitution(src, len(table), table)

    def instantiation(self, rule: RawRule, data: Any, scope: int) -> Instantiation:
        data = _obj(data, "an instantiation")
        exprs = []
        for key, slot in zip(rule.metas, rule.arity):
            if key not in data:
                raise ParseError(f"instantiation misses metavariable {key!r}")
            exprs.append(self.expr(data[key], scope + slot.binder, 1))
        return Instantiation(rule.arity, scope, tuple(exprs))

    def derivation(self, data: Any, depth: int) -> TheoryDerivation:
        if depth > MAX_DEPTH:
            raise ParseError(f"derivation nested deeper than {MAX_DEPTH}")
        data = _obj(data, "derivation node")
        node = data.get("node")
        children = _list(data.get("children", []), "children of a derivation node")
        kids = tuple(self.derivation(c, depth + 1) for c in children)
        if node == "hyp":
            return Hyp(_nat(data.get("index"), "index"))
        if node == "var":
            ctx = self.context(data.get("cxt", []))
            return VariableInst(ctx, _nat(data.get("i"), "i"), kids)
        if node in ("rule", "equiv", "conv"):
            if node == "rule":
                ref = _rule_index(self.theory, data.get("name"), "rule name")
            else:
                ref = _builtin(node, data.get("which"))
            ctx = self.context(data.get("cxt", []))
            inst = self.instantiation(self.theory.rule(ref), data.get("inst", {}), ctx.scope)
            return RuleInst(ref, inst, ctx, kids)
        if node == "subst":
            ctx = self.context(data.get("cxt", []))
            f = self.substitution(data.get("subst", {}))
            j = self.judgement(data.get("judgement", {}))
            return SubstInst(f, ctx, _trivial(data), j, kids)
        if node == "eqsubst":
            ctx = self.context(data.get("cxt", []))
            f = self.substitution(data.get("left", {}))
            g = self.substitution(data.get("right", {}))
            j = self.judgement(data.get("judgement", {}))
            return EqSubstInst(f, g, ctx, _trivial(data), j, kids)
        raise ParseError(f"unknown derivation node {node!r}")


def _nat(v, what) -> int:
    if type(v) is not int or v < 0:  # a JSON boolean is a bool, an int subclass
        raise ParseError(f"{what} must be a natural number, got {v!r}")
    return v


def _str(v, what) -> str:
    if not isinstance(v, str):
        raise ParseError(f"{what} must be a string, got {v!r}")
    return v


def _list(v, what) -> list:
    if not isinstance(v, list):
        raise ParseError(f"{what} must be a list, got {type(v).__name__}")
    return v


def _obj(v, what) -> dict:
    if not isinstance(v, dict):
        raise ParseError(f"{what} must be an object, got {type(v).__name__}")
    return v


# --- arities, signatures ------------------------------------------------------------

def arity_to_json(alpha: Arity) -> Any:
    return [[a.cls.value, a.binder] for a in alpha]


def arity_from_json(data: Any) -> Arity:
    if not isinstance(data, list):
        raise ParseError("an arity is a list of [class, binder] pairs")
    out = []
    for item in data:
        if not (isinstance(item, list) and len(item) == 2):
            raise ParseError(f"bad arity entry {item!r}")
        cls = _class_from(item[0])
        out.append(Argument(cls, _nat(item[1], "binder")))
    return tuple(out)


def _class_from(v) -> SyntacticClass:
    if v == "Ty":
        return TY
    if v == "Tm":
        return TM
    raise ParseError(f"bad syntactic class {v!r}")


def signature_from_json(data: Any, kind: ScopeKind) -> Signature:
    if not isinstance(data, list):
        raise ParseError("a signature is a list of symbol declarations")
    symbols = []
    for d in data:
        d = _obj(d, "a symbol declaration")
        symbols.append(
            Symbol(_str(d.get("name"), "name"), _class_from(d.get("class")), arity_from_json(d.get("arity", [])))
        )
    _distinct([s.name for s in symbols], "symbol name")
    return Signature(tuple(symbols), kind)


def _distinct(names: list[str], what: str) -> None:
    """Refuse a name that ``names`` lists twice."""
    if len(set(names)) < len(names):
        name = next(n for i, n in enumerate(names) if n in names[:i])
        raise ParseError(f"{what} {name!r} is declared twice")


# --- contexts, judgements, boundaries -------------------------------------------------

def context_to_json(sig: Signature, ctx: RawContext) -> Any:
    return [expr_to_json(sig, t) for t in ctx.types]


def context_from_json(sig: Signature, data: Any) -> RawContext:
    return _Decoder(sig).context(data)


_BOUNDARY_KEYS = {
    JudgementForm.IS_TY: (),
    JudgementForm.IS_TM: ("type",),
    JudgementForm.TY_EQ: ("lhs", "rhs"),
    JudgementForm.TM_EQ: ("lhs", "rhs", "type"),
}


def judgement_to_json(sig: Signature, j: Judgement) -> Any:
    slots = {key: expr_to_json(sig, e) for key, e in zip(_BOUNDARY_KEYS[j.form], j.boundary)}
    if j.head is not None:
        slots["head"] = expr_to_json(sig, j.head)
    return {
        "cxt": context_to_json(sig, j.context),
        "form": j.form.value,
        "slots": slots,
    }


def _form_from(v) -> JudgementForm:
    try:
        return JudgementForm(v)
    except ValueError:
        raise ParseError(f"bad judgement form {v!r}") from None


# --- rules ------------------------------------------------------------------------

def rule_to_json(sig: Signature, rule: RawRule, name: str | None = None) -> Any:
    ext = mv_extend_signature(sig, rule.arity, rule.meta_names)
    out = {
        "arity": arity_to_json(rule.arity),
        "metas": list(rule.metas),
        "premises": [judgement_to_json(ext, p) for p in rule.premises],
        "conclusion": judgement_to_json(ext, rule.conclusion),
    }
    if name is not None:
        out["name"] = name
    return out


def rule_from_json(sig: Signature, data: Any) -> RawRule:
    data = _obj(data, "a rule")
    alpha = arity_from_json(data.get("arity", []))
    metas = tuple(_str(m, "meta name") for m in _list(data.get("metas", []), "metas"))
    if metas and len(metas) != len(alpha):
        raise ParseError("meta name list does not match the arity")
    decode = _Decoder(mv_extend_signature(sig, alpha, metas))
    premises = tuple(decode.judgement(p) for p in _list(data.get("premises", []), "premises"))
    conclusion = decode.judgement(data.get("conclusion"))
    return RawRule(alpha, premises, conclusion, metas)


# --- derivations ---------------------------------------------------------------

def substitution_to_json(sig: Signature, f: Substitution) -> Any:
    return {"src": f.src, "map": [expr_to_json(sig, e) for e in f.table]}


def derivation_to_json(theory: RawTypeTheory, sig: Signature, d: TheoryDerivation) -> Any:
    """``d`` as JSON, by its own walk: ``derivation_ops.rebuild`` is above the
    raw layer.  Every node but a hypothesis has a context and children, and
    a ``subst`` or ``eqsubst`` node its trivial positions and judgement."""
    kids = [derivation_to_json(theory, sig, c) for c in d.children]
    match d:
        case Hyp(index=k):
            return {"node": "hyp", "index": k}
        case RuleInst(ref=ref, inst=inst):
            names = theory.rule(ref).metas
            if len(inst.exprs) > len(names):
                raise IndexOutOfRange(f"metavariable {len(names)} of {len(names)}")
            if isinstance(ref, int):
                out = {"node": "rule", "name": theory.rule_name(ref)}
            else:
                out = {"node": ref.family, "which": ref.wire_name}
            out["inst"] = {n: expr_to_json(sig, e) for n, e in zip(names, inst.exprs)}
        case VariableInst(pos=i):
            out = {"node": "var", "i": i}
        case SubstInst(subst=f):
            out = {"node": "subst", "subst": substitution_to_json(sig, f)}
        case EqSubstInst(left=f, right=g):
            out = {"node": "eqsubst", "left": substitution_to_json(sig, f), "right": substitution_to_json(sig, g)}
        case _:
            raise TypeError(d)
    if isinstance(d, (SubstInst, EqSubstInst)):
        out |= {"trivial": sorted(d.trivial), "judgement": judgement_to_json(sig, d.judgement)}
    return out | {"cxt": context_to_json(sig, d.context), "children": kids}


def derivation_from_json(theory: RawTypeTheory, sig: Signature, data: Any) -> TheoryDerivation:
    return _Decoder(sig, theory).derivation(data, 1)


def _trivial(data) -> frozenset[int]:
    return frozenset(_nat(i, "trivial") for i in _list(data.get("trivial", []), "trivial"))


def _builtin(family: str, v) -> BuiltinRule:
    """The built-in rule of ``family`` called ``v``, or at position ``v`` of the family."""
    refs = [b for b in BuiltinRule if b.family == family]
    if type(v) is int and 0 <= v < len(refs):
        return refs[v]
    for b in refs:
        if b.wire_name == v:
            return b
    raise ParseError(f"unknown structural rule {v!r}")


# --- theory files ------------------------------------------------------------------


def theory_from_json(data: Any) -> tuple[RawTypeTheory, TheoryWitnesses, FinitePoset | None]:
    """The theory, witness table and order of a raw theory file.  A load
    checks the table's shape, rule names and keys; see ``_PendingWitnesses``."""
    data = _obj(data, "a theory file")
    kind = _kind_from(data)
    sig = signature_from_json(data.get("signature", []), kind)
    rules = []
    names = []
    for r in _list(data.get("rules", []), "rules"):
        rules.append(rule_from_json(sig, r))
        names.append(_str(r.get("name", f"rule{len(names)}"), "rule name"))
    _distinct(names, "rule name")
    theory = RawTypeTheory(sig, tuple(rules), tuple(names))
    witnesses: TheoryWitnesses = {}
    for entry in _list(data.get("witnesses", []), "witnesses"):
        entry = _obj(entry, "a witness entry")
        name = entry.get("rule")
        rule = theory.rule(_rule_index(theory, name, "witness rule name"))
        if name in witnesses:
            raise ParseError(f"rule {name!r} has a second witness entry")
        raw = _obj(entry.get("presup_witnesses", {}), "presup_witnesses")
        keys = _witness_keys(tuple(j.form for j in rule.premises + (rule.conclusion,)))
        for key in raw:
            _witness_key(key, keys)
        witnesses[name] = _PendingWitnesses(witnesses, name, theory, rule, raw, keys)
    order = None
    if "order" in data:
        edges = set()
        for pair in _list(data["order"], "order"):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ParseError(f"bad order entry {pair!r}")
            edges.add(tuple(_rule_index(theory, end, "order entry") for end in pair))
        order = FinitePoset.of(len(theory.rules), edges)
    return theory, witnesses, order


class _PendingWitnesses:
    """The entry ``raw`` of rule ``name`` in a raw theory file's witness
    ``table``, its keys checked against ``keys``, its derivations not yet
    decoded.  The first read of ``conclusion`` or ``premises`` decodes it
    whole, with one decoder, and puts the ``RuleWitnesses`` in its place in
    ``table``, so a later lookup is a dict lookup.  It equals its decode."""

    def __init__(self, table: TheoryWitnesses, name: str, theory: RawTypeTheory, rule: RawRule, raw: dict, keys: dict):
        self.table, self.name, self.theory, self.rule, self.raw, self.keys = table, name, theory, rule, raw, keys

    @cached_property
    def decoded(self) -> RuleWitnesses:
        ext = mv_extend_signature(self.theory.signature, self.rule.arity, self.rule.meta_names)
        decode = _Decoder(ext, self.theory)
        self.table[self.name] = w = witnesses_from_json(self.raw, self.keys, lambda _: decode)
        return w

    @property
    def conclusion(self) -> dict:
        return self.decoded.conclusion

    @property
    def premises(self) -> dict:
        return self.decoded.premises

    def __eq__(self, other):
        return self.decoded == other


def _rule_index(theory: RawTypeTheory, name: Any, what: str) -> int:
    """The index of the rule called ``name``; a name the theory does not declare is bad input."""
    if _str(name, what) not in theory.rule_names:
        raise ParseError(f"{what} {name!r} is not a rule of the theory")
    return theory.rule_index(name)


def _kind_from(data: dict) -> ScopeKind:
    kind_name = data.get("scope_system", ScopeKind.INDICES.value)
    for kind in ScopeKind:
        if kind.value == kind_name:
            return kind
    raise ParseError(f"unknown scope system {kind_name!r}")


def witness_key(premise: int | None, p: int) -> str:
    """The JSON key of witness p of the conclusion (``premise`` None) or of premise ``premise``."""
    return f"conclusion/{p}" if premise is None else f"premise_{premise}/{p}"


def _witness_keys(forms: tuple) -> dict[str, tuple[int | None, int]]:
    """``(i, p)`` by the key of each witness of a rule, for ``forms`` the
    forms of its premises and then of its conclusion (i None): p is below
    the number of presuppositions of that judgement's form."""
    last = len(forms) - 1
    at = [(None if i == last else i, p) for i, form in enumerate(forms) for p in range(len(form.boundary_classes))]
    return {witness_key(i, p): (i, p) for i, p in at}


def _witness_key(key: str, keys: dict) -> tuple[int | None, int]:
    if key not in keys:
        raise ParseError(f"bad witness key {key!r}")
    return keys[key]


def witnesses_from_json(data: dict, keys: dict, decoder) -> RuleWitnesses:
    """Witnesses keyed as ``keys`` reads them, each decoded by
    ``decoder(i)`` for premise i (None: the conclusion)."""
    conclusion, premises = {}, {}
    for key, dv in data.items():
        i, p = _witness_key(key, keys)
        table, at = (conclusion, p) if i is None else (premises, (i, p))
        table[at] = decoder(i).derivation(dv, 1)
    return RuleWitnesses(conclusion, premises)


def load_theory_file(data: Any):
    """Dispatch on the file shape: a raw theory or a well-presented spec."""
    if _obj(data, "a theory file").get("well_presented"):
        from .presentation import spec_from_json

        return ("spec", spec_from_json(data))
    return ("raw", theory_from_json(data))
