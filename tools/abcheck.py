"""Paired timing of two checkouts in one interpreter: the library requests
of a benchmark workload, per family, as the ratio of B's time to A's.

Standard library only.  From the root of a checkout:

    python3 tools/abcheck.py PARENT_CHECKOUT . --workload shallow-corpus --seed 1
    python3 tools/abcheck.py . . --workload deep-binders --rounds 3 --size min

Each checkout's ``src/gtt`` and ``bench/inputs.py`` and ``bench/workloads.py``
are imported under their usual names, then set aside; the two sets are
swapped into ``sys.modules`` in turn, so a request runs against its own
checkout even where the code imports lazily.  Both build the requests of
``workloads.build`` for the same seed, the same list in the same order.  A
round runs every request of A and of B back to back, A first for one
request and B first for the next, so the host's drift falls on both alike;
a first round, not kept, warms both up.

The table gives, per kind (``check`` or ``transform``), operation, family
and size, the summed median time of its requests in A and in B and their
ratio B / A; the next rows give the ratio of each kind and of all requests.
The last rows give, per kind, the p50 and p90 of the per-request medians
of A and of B and their ratio: the percentiles ``bench/run.py`` reports
(``check_ms_p90`` ...), here paired request by request, so that a claim
on a percentile can be checked in pairs.  A ratio below 1 means B is
faster.  Times are plain wall times, not scaled to a host speed as
``bench/run.py`` scales them, so compare ratios only.
Only the library workloads run here; ``cli-files`` times subprocesses,
which separate runs of ``bench/run.py`` compare as well as this could.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

OWN = ("inputs", "workloads")


def _ours(name: str) -> bool:
    return name == "gtt" or name.startswith("gtt.") or name in OWN


def load(checkout: Path, workload: str, seed: int, minimal: bool) -> tuple[dict, list]:
    """The modules of ``checkout`` and its requests, with its modules set aside."""
    paths = [str(checkout / "src"), str(checkout / "bench")]
    sys.path[:0] = paths
    try:
        import workloads

        requests = workloads.build(workload, seed, minimal, checkout / "bench" / ".work")
    finally:
        del sys.path[:len(paths)]
        modules = {name: sys.modules.pop(name) for name in list(sys.modules) if _ours(name)}
    return modules, requests


def timed(modules: dict, run) -> float:
    sys.modules.update(modules)
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def compare(a: Path, b: Path, workload: str, seed: int, rounds: int, minimal: bool) -> tuple[list[tuple], dict]:
    """(kind, op, family, n, count, A ms, B ms) per group of requests, and
    per kind the per-request median times (ms) of A and of B."""
    sides = [load(a, workload, seed, minimal), load(b, workload, seed, minimal)]
    (_, reqs_a), (_, reqs_b) = sides
    keys = [(r.kind, r.op, r.family, r.n) for r in reqs_a]
    if keys != [(r.kind, r.op, r.family, r.n) for r in reqs_b]:
        raise SystemExit("the two checkouts build different request lists")
    times = [[[] for _ in keys], [[] for _ in keys]]
    for k in range(rounds + 1):  # round 0 warms both sides up and is not kept
        gc.collect()
        for i in range(len(keys)):
            for side in ((0, 1) if (i + k) % 2 == 0 else (1, 0)):
                modules, reqs = sides[side]
                t = timed(modules, reqs[i].run)
                if k:
                    times[side][i].append(t)
    groups: dict[tuple, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    medians: dict[str, tuple[list[float], list[float]]] = defaultdict(lambda: ([], []))
    for i, key in enumerate(keys):
        g = groups[key]
        g[0] += 1
        for side in (0, 1):
            ms = statistics.median(times[side][i]) * 1e3
            g[1 + side] += ms
            medians[key[0]][side].append(ms)
    rows = [key + tuple(g) for key, g in sorted(groups.items(), key=lambda kv: tuple(map(str, kv[0])))]
    return rows, dict(medians)


def p90(samples: list[float]) -> float:
    """The p90 as ``bench/run.py`` takes it; a single sample is its own."""
    return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]


def report(rows: list[tuple], medians: dict[str, tuple[list[float], list[float]]]) -> str:
    lines = ["| kind | op | family | n | requests | A ms | B ms | B / A |", "| --- " * 8 + "|"]
    for kind, op, family, n, count, ta, tb in rows:
        lines.append(f"| {kind} | {op} | {family} | {n} | {count} | {ta:.2f} | {tb:.2f} | {tb / ta:.3f} |")
    for label in ("check", "transform", None):
        picked = [r for r in rows if label is None or r[0] == label]
        if picked:
            ta, tb = sum(r[5] for r in picked), sum(r[6] for r in picked)
            lines.append(f"| {label or 'all'} | | | | {sum(r[4] for r in picked)} | {ta:.2f} | {tb:.2f} | {tb / ta:.3f} |")
    for kind, (a, b) in sorted(medians.items()):
        for name, stat in (("p50", statistics.median), ("p90", p90)):
            ta, tb = stat(a), stat(b)
            lines.append(f"| {kind} {name} | | | | {len(a)} | {ta:.4f} | {tb:.4f} | {tb / ta:.3f} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", type=Path, help="checkout A, the baseline")
    p.add_argument("b", type=Path, help="checkout B, the change")
    p.add_argument("--workload", choices=("shallow-corpus", "deep-binders"), default="shallow-corpus")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--size", choices=("full", "min"), default="full")
    args = p.parse_args(argv)
    rows, medians = compare(args.a.resolve(), args.b.resolve(), args.workload, args.seed, args.rounds, args.size == "min")
    print(f"A = {args.a}, B = {args.b}, {args.workload}, seed {args.seed}, {args.rounds} rounds")
    print(report(rows, medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
