"""A span recorder for the traced run, installed from the benchmark's side.

``install`` wraps every public function of each layer module, and every
name another ``gtt`` module imported from it, so that calls between layers
(and recursive calls inside one) go through the recorder.  Each span keeps
its name, start, end, parent span and request id in flat arrays until the
run ends; ``summary`` turns them into per-layer counts and self times.
Nothing under ``src/`` is edited: the wrappers replace module attributes
in this process only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

# The layers are the package's modules, in the order of its import graph.
LAYERS = (
    "scopes", "syntax", "judgements", "rules", "foundations", "theories",
    "metatheory", "presentation", "maps", "jsonio", "cli", "bundled",
)

# Transformers whose metatheory self time is reported one by one; nested
# metatheory calls are charged to the outermost metatheory call.
TRANSFORMERS = (
    "derive_presuppositions", "eliminate_substitution", "invert",
    "unique_typing_acceptable", "check_acceptable_theory", "check_well_founded_theory",
)

COUNTED_CALLS = (
    ("syntax", "substitute_expr"), ("syntax", "extend_substitution"),
    ("syntax", "instantiate_expr"), ("syntax", "validate_expr"),
    ("judgements", "validate_context"), ("rules", "instantiate_rule"),
)

SELF_TIMED = ("scopes", "syntax", "judgements", "rules", "theories", "foundations", "cli")


class Recorder:
    """Spans in flat arrays.

    Per span: name id, start and end (ns), parent span index, request id,
    whether no span of the same layer was open (``outer``), and the name id
    of the outermost open span of the same layer (``head``).
    """

    def __init__(self):
        self.names: list[tuple[str, str]] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.req = array("i")
        self.outer = array("b")
        self.head = array("i")
        self.stack: list[int] = []
        self.depth = Counter()
        self.heads: dict[str, int] = {}
        self.request = -1
        self.on = False
        self.entries = Counter()   # (request, class) -> table entries built
        self.bytes = Counter()     # (request, "in" or "out") -> jsonio text length

    def wrap(self, layer: str, fn_name: str, fn, on_result=None):
        rec = self
        self.names.append((layer, fn_name))
        nid = len(self.names) - 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            idx = len(rec.name)
            d = rec.depth[layer]
            if d == 0:
                rec.heads[layer] = nid
            rec.name.append(nid)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.req.append(rec.request)
            rec.outer.append(d == 0)
            rec.head.append(rec.heads[layer])
            rec.end.append(0)
            rec.depth[layer] = d + 1
            rec.stack.append(idx)
            rec.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = time.perf_counter_ns()
                rec.stack.pop()
                rec.depth[layer] = d
            if on_result is not None:
                on_result(args, result)
            return result

        return traced


def _is_public_function(module, name: str, obj) -> bool:
    if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
        return False
    return callable(obj) and not isinstance(obj, type)


def install(rec: Recorder) -> None:
    """Wrap the layers' public functions everywhere the package refers to them."""
    mods = {layer: importlib.import_module(f"gtt.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if not _is_public_function(mod, name, obj):
                continue
            hook = None
            if (layer, name) == ("jsonio", "loads"):
                hook = lambda args, _result: rec.bytes.update({(rec.request, "in"): len(args[0])})
            elif (layer, name) == ("jsonio", "dumps"):
                hook = lambda _args, result: rec.bytes.update({(rec.request, "out"): len(result)})
            replaced[id(obj)] = (obj, rec.wrap(layer, name, obj, hook))
    builder = mods["maps"].ReplacementBuilder
    for name, obj in list(vars(builder).items()):
        if not name.startswith("_") and callable(obj):
            setattr(builder, name, rec.wrap("maps", f"ReplacementBuilder.{name}", obj))
    for mod in [m for n, m in sys.modules.items() if n == "gtt" or n.startswith("gtt.")]:
        for name, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
    _count_entries(rec, mods["scopes"].Renaming, "renaming")
    _count_entries(rec, mods["syntax"].Substitution, "substitution")


def _count_entries(rec: Recorder, cls, key: str) -> None:
    """Count the table entries of every instance built, as the class validates them."""
    original = cls.__post_init__

    def post_init(self):
        if rec.on:
            rec.entries[rec.request, key] += len(self.table)
        original(self)

    cls.__post_init__ = post_init


def summary(rec: Recorder, group_of: dict) -> dict:
    """Per-layer counts and times (ms) of the spans of each group of requests.

    ``group_of`` maps a request id to its group; the result maps each group
    to its metrics, which add up across groups (see ``total``).
    """
    n = len(rec.name)
    layer_of = [layer for layer, _ in rec.names]
    fn_of = [fn for _, fn in rec.names]
    child = array("q", bytes(8 * n))
    start, end, parent = rec.start, rec.end, rec.parent
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    # per group: layer -> self ns, transformer -> ns, name id -> calls and outermost ns
    self_ns, head_ns, calls, outer_ns = (defaultdict(Counter) for _ in range(4))
    for i in range(n):
        g = group_of[rec.req[i]]
        nid = rec.name[i]
        layer = layer_of[nid]
        dur = end[i] - start[i]
        own = dur - child[i]
        self_ns[g][layer] += own
        calls[g][nid] += 1
        if rec.outer[i]:
            outer_ns[g][nid] += dur
        if layer == "metatheory":
            head_ns[g][fn_of[rec.head[i]]] += own

    def by_name(table: Counter, layer: str, pick) -> int:
        return sum(v for nid, v in table.items() if layer_of[nid] == layer and pick(fn_of[nid]))

    ms = lambda ns: ns / 1e6
    entries, text = defaultdict(Counter), defaultdict(Counter)
    for (r, key), v in rec.entries.items():
        entries[group_of[r]][key] += v
    for (r, key), v in rec.bytes.items():
        text[group_of[r]][key] += v
    out = {}
    for g in set(group_of.values()):
        c, o = calls[g], outer_ns[g]
        m = {
            "scopes.renaming_entries": entries[g]["renaming"],
            "syntax.subst_entries": entries[g]["substitution"],
            "theories.nodes_checked": by_name(c, "theories", lambda f: f == "closure_rule_of_node"),
            "presentation.elaborate_theory.ms": ms(by_name(o, "presentation", lambda f: f == "elaborate_theory")),
            "maps.replace.ms": ms(by_name(o, "maps", lambda f: True)),
            "jsonio.parse_ms": ms(by_name(
                o, "jsonio", lambda f: f in ("loads", "load_theory_file") or f.endswith("_from_json"))),
            "jsonio.emit_ms": ms(by_name(o, "jsonio", lambda f: f == "dumps" or f.endswith("_to_json"))),
            "jsonio.bytes_in": text[g]["in"],
            "jsonio.bytes_out": text[g]["out"],
            "trace.spans": sum(c.values()),
        }
        for layer, fn in COUNTED_CALLS:
            m[f"{layer}.{fn}.calls"] = by_name(c, layer, lambda f, fn=fn: f == fn)
        for layer in SELF_TIMED:
            m[f"{layer}.self_ms"] = ms(self_ns[g][layer])
        for fn in TRANSFORMERS:
            m[f"metatheory.{fn}.self_ms"] = ms(head_ns[g][fn])
        out[g] = m
    return out


def total(groups: dict) -> dict:
    """The metrics of all groups together."""
    out = Counter()
    for m in groups.values():
        out.update(m)
    return dict(out)
