"""The three workloads as lists of requests, each with its oracle.

A request is one operation a user waits for: a check (time to a verdict)
or a transform (a transformer call plus the re-check of its output).  Its
``run`` is the timed part; its ``verify`` compares the result with an
answer known in advance and runs outside the timer.  The library
workloads call the kernel in this process; ``cli-files`` runs one
``python -m gtt.cli`` subprocess per request.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gtt import jsonio, metatheory, theories
from gtt.bundled import mltt_pi
from gtt.judgements import JudgementForm, presuppositions, ty_eq

import inputs
from inputs import ELIM, INVERT, PRESUP, UNIQUE, Item, nodes as size

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@dataclass
class Outcome:
    ok: bool
    nodes: int = 0        # derivation nodes checked: the input, or the re-checked outputs
    out_nodes: int = 0    # size of the transformer outputs
    emit_bytes: int = 0   # canonical JSON bytes of the outputs, or stdout bytes


@dataclass
class Request:
    kind: str                       # "check" or "transform"
    op: str
    family: str
    n: int
    run: Callable[[], object]
    verify: Callable[[object, bool], Outcome]   # (result, first pass) -> outcome
    fresh_process = False   # run in a new interpreter each time, with nothing to warm up


def roundtrip(theory, d) -> tuple[bool, int]:
    """derivation_from_json(derivation_to_json(d)) == d, through the text form."""
    text = jsonio.dumps(jsonio.derivation_to_json(theory, theory.signature, d))
    back = jsonio.derivation_from_json(theory, theory.signature, jsonio.loads(text))
    return back == d, len(text)


# --- library workloads ---------------------------------------------------------

def _library_requests(kit: inputs.Kit, item: Item) -> list[Request]:
    T, W = kit.theory, kit.witnesses
    check = lambda d: theories.check_theory_derivation(T, (), d)
    reqs = []

    def outputs_outcome(ok: bool, outs, first: bool) -> Outcome:
        nodes = sum(size(o) for o in outs)
        emitted = 0
        if first:
            for o in outs:
                same, n_bytes = roundtrip(T, o)
                ok, emitted = ok and same, emitted + n_bytes
        return Outcome(ok, nodes, nodes, emitted)

    def verify_check(j, first):
        ok = j == item.expected
        if first:
            ok = ok and roundtrip(T, item.d)[0]
        return Outcome(ok, size(item.d))

    reqs.append(Request("check", "check", item.family, item.n, lambda: check(item.d), verify_check))
    for op in item.ops:
        if op == PRESUP:
            def run():
                outs = metatheory.derive_presuppositions(T, item.d, W)
                return outs, tuple(check(o) for o in outs)

            def verify(result, first):
                outs, got = result
                return outputs_outcome(got == presuppositions(item.expected), outs, first)
        elif op == ELIM:
            def run():
                out = metatheory.eliminate_substitution(T, item.d)
                return out, check(out)

            def verify(result, first):
                out, got = result
                ok = got == item.expected and metatheory.is_substitution_free(out)
                return outputs_outcome(ok, (out,), first)
        elif op == INVERT:
            def run():
                out = metatheory.invert(T, item.d, W)
                return out, check(out)

            def verify(result, first):
                out, got = result
                ok = got == item.expected and metatheory.is_canonical_inversion(T, out)
                return outputs_outcome(ok, (out,), first)
        elif op == UNIQUE:
            def run():
                out = metatheory.unique_typing_acceptable(T, item.d, item.second, W)
                return out, check(out)

            def verify(result, first):
                out, got = result
                e = item.expected
                return outputs_outcome(got == ty_eq(e.context, e.boundary[0], e.boundary[0]), (out,), first)
        else:
            raise ValueError(op)
        reqs.append(Request("transform", op, item.family, item.n, run, verify))
    return reqs


def library(items: list[Item], seed: int) -> list[Request]:
    kit = inputs.Kit()
    reqs = [r for item in items for r in _library_requests(kit, item)]
    random.Random(seed).shuffle(reqs)
    return reqs


# --- cli-files -------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    stdout: bytes


def _subprocess_runner(argv: list[str]) -> Callable[[], CliResult]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "gtt.cli", *argv]

    def run():
        cp = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return CliResult(cp.returncode, cp.stdout)

    return run


def in_process(argv: list[str]) -> CliResult:
    """``gtt.cli.main(argv)`` in this process, with its output captured."""
    import gtt.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = gtt.cli.main(argv)
    return CliResult(code, out.getvalue().encode())


@dataclass
class CliRequest(Request):
    argv: tuple = ()
    fresh_process: bool = True


def _cli(kind: str, argv: list[str], verify, family: str = "fixture", n: int = 0) -> CliRequest:
    return CliRequest(kind, argv[0], family, n, _subprocess_runner(argv), verify, tuple(argv))


def _report_verifier(code: int, line: str):
    def verify(r: CliResult, first: bool) -> Outcome:
        lines = r.stdout.decode().splitlines()
        return Outcome(r.code == code and line in lines, emit_bytes=len(r.stdout))
    return verify


def _json_out(r: CliResult):
    return jsonio.loads(r.stdout.decode())


# Derivation files for cli-files: small members of the deep-binders families
# (kernel work stays near 10 ms, so start-up dominates) plus shallow items.
CLI_DEEP = (("nested-pi", 4, 1), ("nested-pi", 8, 1), ("nested-pi", 12, 1),
            ("lam-tower", 2, 1), ("lam-tower", 4, 1), ("weaken-chain", 4, 1), ("weaken-chain", 8, 1))
CLI_SHALLOW = 15
CLI_DEEP_MIN = (("nested-pi", 4, 1), ("lam-tower", 2, 1), ("weaken-chain", 3, 1))
CLI_SHALLOW_MIN = 3


def cli_files(seed: int, workdir: Path, minimal: bool = False) -> list[CliRequest]:
    """Write the derivation files under ``workdir`` and return one pass of requests.

    A pass holds 25 verdict commands and 25 transforming ones, so four
    passes give each percentile its 100 samples.
    """
    kit = inputs.Kit()
    T, sig = kit.theory, kit.theory.signature
    rng = random.Random(seed)
    items = inputs.deep_binders(seed, CLI_DEEP_MIN if minimal else CLI_DEEP)
    items += inputs.shallow_corpus(seed, CLI_SHALLOW_MIN if minimal else CLI_SHALLOW)
    base = str(FIXTURES / "mltt_base.json")

    def write(name: str, d) -> str:
        path = workdir / name
        path.write_text(jsonio.dumps(jsonio.derivation_to_json(T, sig, d)))
        return str(path)

    def load(data):
        return jsonio.derivation_from_json(T, sig, data)

    def derivation_verifier(item: Item, op: str, in_nodes: int):
        def verify(r: CliResult, first: bool) -> Outcome:
            if r.code != 0:
                return Outcome(False)
            data = _json_out(r)
            e = item.expected
            if op == PRESUP:
                targets = presuppositions(e)
                outs = [load(x["derivation"]) for x in data]
                ok = [x["judgement"] for x in data] == [jsonio.judgement_to_json(sig, j) for j in targets]
                ok = ok and all(theories.check_theory_derivation(T, (), o) == j for o, j in zip(outs, targets))
            else:
                outs = [load(data)]
                got = theories.check_theory_derivation(T, (), outs[0])
                if op == ELIM:
                    ok = got == e and metatheory.is_substitution_free(outs[0])
                elif op == INVERT:
                    ok = got == e and metatheory.is_canonical_inversion(T, outs[0])
                else:
                    ok = got == ty_eq(e.context, e.boundary[0], e.boundary[0])
            out_nodes = sum(size(o) for o in outs)
            return Outcome(ok, in_nodes + out_nodes, out_nodes, len(r.stdout))
        return verify

    def check_verifier(item: Item, in_nodes: int):
        want = {"ok": True, "conclusion": jsonio.judgement_to_json(sig, item.expected)}

        def verify(r: CliResult, first: bool) -> Outcome:
            return Outcome(r.code == 0 and _json_out(r) == want, in_nodes, emit_bytes=len(r.stdout))
        return verify

    checks = [
        _cli("check", ["check-theory", str(FIXTURES / "mltt_pi.json"), "--acceptable"],
             _report_verifier(0, "acceptable: ok")),
        _cli("check", ["check-theory", str(FIXTURES / "type_in_type.json"), "--well-founded"],
             _report_verifier(1, "well-founded: FAIL")),
        _cli("check", ["check-theory", str(FIXTURES / "mltt_pi_presented.json"), "--well-presented"],
             _report_verifier(0, "well-presented: ok")),
    ]
    transforms = [
        _cli("transform", ["flatten", str(FIXTURES / "mltt_pi_presented.json")], _flatten_verifier),
        _cli("transform", ["replace-step", str(FIXTURES / "type_in_type.json"),
                           str(FIXTURES / "type_in_type_replacement.json")], _replace_verifier),
    ]
    rule = rng.choice(("Pi-form", "lam-intro", "app-elim"))
    transforms.append(_cli("transform", ["congruence", str(FIXTURES / "mltt_pi.json"), rule],
                           _congruence_verifier(rule)))
    for k, item in enumerate(items):
        in_nodes = size(item.d)
        path = write(f"d{k}.json", item.d)
        checks.append(_cli("check", ["check-derivation", base, path],
                           check_verifier(item, in_nodes), item.family, item.n))
        op = item.ops[k % len(item.ops)] if item.ops else None
        if op == UNIQUE:
            second = write(f"d{k}-second.json", item.second)
            transforms.append(_cli("transform", ["unique-typing", base, path, second],
                                   derivation_verifier(item, op, 0), item.family, item.n))
        elif op is not None:
            transforms.append(_cli("transform", [op, base, path],
                                   derivation_verifier(item, op, in_nodes), item.family, item.n))
    # natural-type on term inputs fills the transform side up to the check side
    terms = [it for it in items if it.expected.form is JudgementForm.IS_TM]
    rng.shuffle(terms)
    for item in terms[: max(0, len(checks) - len(transforms))]:
        e = item.expected
        argv = ["natural-type", base, jsonio.dumps(jsonio.expr_to_json(sig, e.head)),
                "--cxt", jsonio.dumps(jsonio.context_to_json(sig, e.context))]
        want = jsonio.expr_to_json(sig, e.boundary[0])
        transforms.append(_cli(
            "transform", argv,
            lambda r, first, want=want: Outcome(r.code == 0 and _json_out(r) == want, emit_bytes=len(r.stdout)),
            item.family, item.n))
    reqs = checks + transforms
    rng.shuffle(reqs)
    return reqs


def _flatten_verifier(r: CliResult, first: bool) -> Outcome:
    ok = r.code == 0 and jsonio.theory_from_json(_json_out(r))[0].rules == mltt_pi()[0].rules
    return Outcome(ok, emit_bytes=len(r.stdout))


def _congruence_verifier(rule: str):
    theory = mltt_pi()[0]
    want = theory.rule(theory.rule_index(f"{rule}-cong"))

    def verify(r: CliResult, first: bool) -> Outcome:
        ok = r.code == 0 and jsonio.rule_from_json(theory.signature, _json_out(r)) == want
        return Outcome(ok, emit_bytes=len(r.stdout))
    return verify


def _replace_verifier(r: CliResult, first: bool) -> Outcome:
    """The structure acceptance criterion 11 asserts for the universe replacement."""
    if r.code != 0:
        return Outcome(False)
    data = _json_out(r)
    rules = {x["name"]: x for x in data["theory"]["rules"]}
    eq = rules.get("U-unfold", {}).get("conclusion", {})
    ok = (
        [s["name"] for s in data["theory"]["signature"]] == ["U", "El'", "u'"]
        and eq.get("form") == "TyEq"
        and eq["slots"]["lhs"] == {"sym": "U", "args": []}
        and eq["slots"]["rhs"] == {"sym": "El'", "args": [{"sym": "u'", "args": []}]}
        and data["well_founded"] is True
    )
    return Outcome(ok, emit_bytes=len(r.stdout))


def build(workload: str, seed: int, minimal: bool, workdir: Path) -> list[Request]:
    if workload == "deep-binders":
        schedule = inputs.DEEP_SCHEDULE_MIN if minimal else inputs.DEEP_SCHEDULE
        return library(inputs.deep_binders(seed, schedule), seed)
    if workload == "shallow-corpus":
        return library(inputs.shallow_corpus(seed, 48 if minimal else 1500), seed)
    if workload == "cli-files":
        return cli_files(seed, workdir, minimal)
    raise ValueError(f"unknown workload {workload!r}")
