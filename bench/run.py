#!/usr/bin/env python3
"""The gtt benchmark: time to a verdict and to a re-checked output.

    python3 bench/run.py --workload deep-binders --seed 1 --seconds 28 --trace 0

Workloads (see bench/README.md for why each was chosen):

    deep-binders    nested Pi, lam towers and weakening chains: syntax and scopes
    shallow-corpus  1,500 small derivations: per-node checker overhead
    cli-files       one ``python -m gtt.cli`` subprocess per request: start-up, jsonio

Each workload is a closed loop with one client: requests run back to back
in one thread, and cli-files runs one subprocess at a time.  A run repeats
whole passes over the seeded request list for about ``--seconds``.  Every
result is compared with an answer built independently of the checker.

Times are wall times scaled to a fixed host speed (see ``HostClock``); the
unscaled figures are printed too.  ``--trace 0`` prints the end-to-end
metrics.  ``--trace 1`` makes one untraced and one traced pass, and prints
per-layer counts and self times, the growth rows and the tracing overhead.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--size min`` shrinks the
inputs to a few of each kind, for the smoke test.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict, deque
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("deep-binders", "shallow-corpus", "cli-files")
# Fresh interpreters that repeat the set-up after the timed loop; setup_s is
# the median of theirs and this process's own.
SETUP_REPEATS = 2
IMPORT_REPEATS = 3
# Passes continue past --seconds until each percentile has this many
# samples, so that at least ten lie beyond p90.
MIN_SAMPLES = 100
# Nested-Pi rows below this depth still carry per-node constants that hide
# the cubic growth.
GROWTH_MIN_N = 24
# The time of ``reference_loop`` that defines the unit of every reported
# time; about what it takes in a fast phase of a 2-core x86_64 VM, Python 3.11.
REF_MS = 2.5
CALIBRATE_EVERY_S = 0.25


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "min"), default="full")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "gtt" / "__init__.py").is_file():
        print(f"bench: no gtt package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    workdir = BENCH / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import gtt.bundled
        import workloads

        t = time.perf_counter()
        gtt.bundled.mltt_base()
        build_ms = (time.perf_counter() - t) * 1e3
        reqs = workloads.build(args.workload, args.seed, args.size == "min", workdir)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        clock = HostClock()
        gc.collect()
        gc.freeze()
        if args.trace:
            result = traced_run(args, reqs, clock, build_ms * clock.factor())
        else:
            result = timed_run(args, reqs, clock, setup_s * clock.factor())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


def reference_loop() -> dict:
    """Dict and tuple work, the kind the kernel's own time goes to."""
    table = {}
    for i in range(10000):
        k = i % 509
        table[k] = (table.get(k), i)
    return table


class HostClock:
    """Scales wall times to the host speed at which ``reference_loop`` takes REF_MS.

    The host of a small shared VM changes speed by up to 1.5x for minutes at
    a time, and the program's time follows the reference loop's time within
    a few per cent.  The loop is timed (median of 3) before a request once
    CALIBRATE_EVERY_S has passed, and a request's wall time is multiplied
    by REF_MS over the median of the last three such timings; a request
    longer than that takes the mean of the factors before and after it.
    """

    def __init__(self):
        self.recent = deque(maxlen=3)
        self.timings: list[float] = []
        self.last = -math.inf

    def factor(self, fresh: bool = False) -> float:
        """REF_MS over the recent loop timings; ``fresh``: over a new timing alone."""
        if fresh or time.perf_counter() - self.last > CALIBRATE_EVERY_S:
            runs = []
            for _ in range(3):
                t = time.perf_counter_ns()
                reference_loop()
                runs.append((time.perf_counter_ns() - t) / 1e6)
            self.recent.append(statistics.median(runs))
            self.timings.append(self.recent[-1])
            self.last = time.perf_counter()
        return REF_MS / (self.recent[-1] if fresh else statistics.median(self.recent))

    def run_factor(self) -> float:
        """The factor over the whole run, for figures not timed request by request."""
        return REF_MS / statistics.median(self.timings)


# --- running requests --------------------------------------------------------------

class Tally:
    """Samples and oracle results of the requests run so far."""

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.samples = {"check": [], "transform": []}   # scaled ms
        self.wall = {"check": [], "transform": []}      # unscaled ms
        self.attempted = self.failed = 0
        self.nodes = 0
        self.busy_ms = 0.0
        self.out_nodes = self.emit_bytes = 0
        self.by_row = defaultdict(list)   # (kind, family, n) -> scaled ms

    def run(self, req, runner, first: bool, timed: bool = True) -> None:
        """Run one request, time it and check its result.

        In the ``first`` pass the oracle also round-trips every derivation
        through JSON and sizes the outputs.  An untimed pass only warms up.
        """
        gc.collect()
        scale = self.clock.factor()
        self.attempted += 1
        try:
            t = time.perf_counter_ns()
            result = runner()
            dt = time.perf_counter_ns() - t
            if dt > CALIBRATE_EVERY_S * 1e9:
                # the host may have changed speed during a long request
                scale = (scale + self.clock.factor(fresh=True)) / 2
            outcome = req.verify(result, first)
        except Exception:
            self.fail(req, traceback.format_exc())
            return
        if not outcome.ok:
            self.fail(req, "result differs from the expected answer")
            return
        if first:
            self.out_nodes += outcome.out_nodes
            self.emit_bytes += outcome.emit_bytes
        if not timed:
            return
        ms = dt / 1e6 * scale
        self.samples[req.kind].append(ms)
        self.wall[req.kind].append(dt / 1e6)
        self.by_row[(req.kind, req.family, req.n)].append(ms)
        self.nodes += outcome.nodes
        self.busy_ms += ms

    def fail(self, req, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"bench: {req.op} on {req.family} n={req.n} failed: {why}", file=sys.stderr)


def timed_run(args, reqs, clock: HostClock, setup_s: float) -> dict:
    tally = Tally(clock)
    began = time.perf_counter()
    passes, last = 0, 0.0
    while (passes < 2 or (time.perf_counter() - began) + last / 2 < args.seconds
           or min(map(len, tally.samples.values())) < MIN_SAMPLES and args.size == "full"):
        t = time.perf_counter()
        for req in reqs:
            # the first pass fills the allocator's arenas and caches of this
            # process, so its times count only for requests run in a new one
            tally.run(req, req.run, first=passes == 0, timed=passes > 0 or req.fresh_process)
        last = time.perf_counter() - t
        passes += 1
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-files" else resource.RUSAGE_SELF
    peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024
    setups = [setup_s] + [clock.factor() * fresh_setup(args) for _ in range(SETUP_REPEATS)]

    checks, transforms = tally.samples["check"], tally.samples["transform"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "check_ms_p50": (statistics.median(checks), "ms"),
        "check_ms_p90": (p90(checks), "ms"),
        "transform_ms_p50": (statistics.median(transforms), "ms"),
        "transform_ms_p90": (p90(transforms), "ms"),
        "nodes_per_s": (tally.nodes / (tally.busy_ms / 1e3), "nodes/s"),
        "out_nodes": (tally.out_nodes, "nodes"),
        "emit_bytes": (tally.emit_bytes, "bytes"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {passes} passes of {len(reqs)} requests "
          f"in {time.perf_counter() - began:.1f} s")
    print(f"samples check={len(checks)} transform={len(transforms)} "
          f"(p50 and p90 are taken over these); setup samples (s) "
          + " ".join(f"{x:.3f}" for x in setups))
    print(f"host: reference loop {statistics.median(clock.timings):.3f} ms median "
          f"(min {min(clock.timings):.3f}, max {max(clock.timings):.3f}) against {REF_MS} ms; "
          "unscaled " + " ".join(f"{kind}_ms_p50={statistics.median(v):.4g} {kind}_ms_p90={p90(v):.4g}"
                                 for kind, v in tally.wall.items()))
    print(f"fail_rate = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6g} ratio")
    return report(tally, metrics)


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8]


def fresh_setup(args) -> float:
    """Set-up time of a fresh interpreter: import gtt and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
    return json.loads(out.decode().splitlines()[-1])["setup_s"]


def report(tally: Tally, metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# --- the traced run -----------------------------------------------------------------

def traced_run(args, reqs, clock: HostClock, build_ms: float) -> dict:
    """An untimed and a timed untraced pass, then the same pass with every layer call recorded."""
    import spans
    import workloads

    cli = args.workload == "cli-files"
    runner = (lambda req: lambda: workloads.in_process(list(req.argv))) if cli else (lambda req: req.run)
    untraced = Tally(clock)
    for first in (True, False):
        for req in reqs:
            untraced.run(req, runner(req), first, timed=not first)
    rec = spans.Recorder()
    spans.install(rec)
    traced = Tally(clock)
    row_of = {}
    for i, req in enumerate(reqs):
        rec.request = i
        row_of[i] = (req.kind, req.family, req.n)
        run = runner(req)

        def recorded(run=run):
            rec.on = True
            try:
                return run()
            finally:
                rec.on = False

        traced.run(req, recorded, first=False)
    scale = clock.run_factor()
    rows = {row: {k: v * scale if k.endswith("ms") else v for k, v in m.items()}
            for row, m in spans.summary(rec, row_of).items()}
    layers = spans.total(rows)
    import_ms = statistics.median(clock.factor() * import_time() for _ in range(IMPORT_REPEATS))
    growth = growth_rows(args.workload, untraced, rows)
    overhead_ms = traced.busy_ms - untraced.busy_ms
    print(f"traced pass {traced.busy_ms:.1f} ms, untraced {untraced.busy_ms:.1f} ms, "
          f"overhead {overhead_ms:.1f} ms over {layers['trace.spans']} spans; "
          f"peak rss {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB")
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    metrics.update({
        "metatheory.out_nodes": (untraced.out_nodes, "nodes"),
        "cli.import_ms": (import_ms, "ms"),
        "bundled.build_ms": (build_ms, "ms"),
        "growth_exp": (growth, "exponent"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    })
    tally = untraced
    tally.attempted += traced.attempted
    tally.failed += traced.failed
    print(f"fail_rate = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6g} ratio")
    return report(tally, dict(sorted(metrics.items())))


def unit_of(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.startswith("jsonio.bytes"):
        return "bytes"
    return "count"


def import_time() -> float:
    """ms for a fresh interpreter to run ``import gtt.cli``."""
    code = "import time; t = time.perf_counter(); import gtt.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         stdout=subprocess.PIPE, check=True).stdout
    return float(out) * 1e3


def growth_rows(workload: str, untraced: Tally, rows: dict) -> float:
    """Print one row per (family, n) of checks and return the fitted exponent.

    The exponent is the least-squares slope of log(check ms) against log(n)
    over the nested-Pi rows with n >= GROWTH_MIN_N, or over all nested-Pi
    rows if there are fewer than two such, or, for a workload without
    nested Pi, over every check row with n the derivation's node count.
    """
    head = {"machine": f"{platform.machine()} {os.cpu_count()} cpu", "python": platform.python_version(),
            "workload": workload}
    points = defaultdict(list)
    for (kind, family, n), times in sorted(untraced.by_row.items()):
        if kind != "check":
            continue
        layer = rows.get((kind, family, n), {})
        count = len(times)
        row = dict(head, family=family, n=n, wall_ms=statistics.median(times), samples=count,
                   layer_ms={k.split(".")[0]: v / count for k, v in layer.items() if k.endswith("self_ms")},
                   counters={k: v / count for k, v in layer.items()
                             if k.endswith((".calls", "_entries", "nodes_checked"))})
        print("growth " + json.dumps(row, sort_keys=True))
        points[family].append((n, row["wall_ms"]))
    pis = points.get("nested-pi", [])
    fit = [p for p in pis if p[0] >= GROWTH_MIN_N]
    fit = fit if len(fit) >= 2 else pis
    if len(fit) < 2:
        fit = [p for ps in points.values() for p in ps if p[0] > 0]
    exponent = slope(fit)
    print("growth_fit " + json.dumps(dict(head, points=len(fit), exponent=exponent)))
    return exponent


def slope(points) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(ms) for _, ms in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


if __name__ == "__main__":
    sys.exit(main())
