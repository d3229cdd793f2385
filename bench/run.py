"""Benchmark for leveltree: one workload (or all three) in a single process.

    python3 bench/run.py --workload contraction-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Trace spans are written to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import oracle
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def fresh_import():
    """Import leveltree anew, dropping any loaded copy, so that each set-up
    pays the package's imports and starts from empty module-level caches."""
    for name in [n for n in sys.modules if n == "leveltree" or n.startswith("leveltree.")]:
        del sys.modules[name]
    importlib.import_module("leveltree.cli")
    return sys.modules["leveltree"]


def rss_kb() -> int:
    """The process's current resident set in KiB, or 0 where
    ``/proc/self/statm`` cannot be read."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * resource.getpagesize() // 1024
    except (OSError, IndexError, ValueError):
        return 0


class PeakRss:
    """The highest resident set seen while one workload runs.

    ``ru_maxrss`` never goes down, so it is the workload's own peak only when
    the workload raised it.  When an earlier workload in the same process
    left it higher, the peak is the highest current resident set sampled
    after each set-up and each operation instead.
    """

    def __init__(self):
        self.before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.sampled = rss_kb()

    def sample(self) -> None:
        self.sampled = max(self.sampled, rss_kb())

    def mb(self) -> float:
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (after if after > self.before else self.sampled) / 1024


def timed_setup(w, seed: int, tracer=None, rss=None):
    """Set the workload up ``w.setup_repeats`` times and return the package,
    the ordered inputs of the last set-up and the median set-up time.  With
    a tracer, the last set-up is traced."""
    times = []
    for r in range(w.setup_repeats):
        made = lt = None
        gc.collect()
        last = r == w.setup_repeats - 1
        t0 = time.perf_counter()
        lt = fresh_import()
        if tracer is not None and last:
            tracer.install(lt)
            tracer.active = True
        made = w.setup(lt, seed)
        times.append(time.perf_counter() - t0)
        if rss is not None:
            rss.sample()
        if tracer is not None and last:
            tracer.active = False
            tracer.uninstall()
    return lt, w.order(made, seed), statistics.median(times)


def preflight(lt) -> list:
    """Checks of the enumerator against the oracle's brute-force count."""
    spec = lt.enumerate.EnumSpec(max_edges=3, max_weight=2, max_levels=5)
    got = sum(1 for _ in lt.enumerate.gen_instances(spec))
    want = oracle.brute_force_instance_count(3, 2)
    return [] if got == want else [f"gen_instances gives {got} instances at <=3 edges, "
                                   f"brute force {want}"]


class Pass:
    """Operation times and verdicts of one pass over the workload."""

    def __init__(self):
        self.latencies: list = []
        self.errors: list = []    # operations that raised
        self.problems: list = []  # outputs that disagree with the oracle

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def run_pass(w, lt, items, seconds=None, count=None, tracer=None, rss=None) -> Pass:
    """Run operations in ``items`` order, cycling if needed, until ``count``
    operations are done or, without a count, until at least ``seconds`` of
    operation time and ``w.min_ops`` operations, ending on a round."""
    p = Pass()
    i = 0
    busy = 0.0
    while True:
        args = w.prepare(lt, items[i % len(items)])
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out = w.run(lt, args)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if rss is not None:
            rss.sample()
        p.latencies.append(dt)
        busy += dt
        if error is not None:
            p.errors.append(f"op {i} failed: {type(error).__name__}: {error}")
        else:
            try:
                p.problems += [f"op {i}: {msg}" for msg in w.check(lt, args, out)]
            except Exception as exc:  # output the checks cannot read is wrong output
                p.problems.append(f"op {i}: unreadable output: {type(exc).__name__}: {exc}")
        i += 1
        if count is not None:
            if i >= count:
                return p
        elif busy >= seconds and i >= w.min_ops and i % w.round_ops == 0:
            return p


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(w, p: Pass, setup_s: float, peak_rss_mb: float) -> dict:
    n = len(p.latencies)
    print(f"# {w.name}: {n} operations, {p.busy:.3f} s busy; latency_tail_ms is "
          f"p{w.tail_pct} of {n} samples ({n - math.ceil(w.tail_pct / 100 * n)} beyond it)")
    metrics = {
        "ops_per_s": (n / p.busy, "1/s"),
        "latency_p50_ms": (statistics.median(p.latencies) * 1000, "ms"),
        "latency_tail_ms": (percentile(p.latencies, w.tail_pct) * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        w = workloads.make(name, workdir)
        if not trace:
            rss = PeakRss()
            lt, items, setup_s = timed_setup(w, seed, rss=rss)
            problems = preflight(lt)
            p = run_pass(w, lt, items, seconds=seconds, rss=rss)
            metrics = end_to_end(w, p, setup_s, rss.mb())
            passes = [p]
        else:
            tracer = Tracer()
            lt, items, _ = timed_setup(w, seed, tracer)
            problems = preflight(lt)
            # untraced passes before and after the traced one, so that
            # warm-up does not count as tracing overhead
            before = run_pass(w, lt, items, count=w.trace_ops)
            tracer.install(lt)
            try:
                traced = run_pass(w, lt, items, count=w.trace_ops, tracer=tracer)
            finally:
                tracer.uninstall()
            after = run_pass(w, lt, items, count=w.trace_ops)
            passes = [before, traced, after]
            metrics = tracer.metrics(2 * traced.busy / (before.busy + after.busy))
            print(tracer.summary())
            tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = [msg for p in passes for msg in p.errors]
    problems += [msg for p in passes for msg in p.problems]
    for msg in (errors + problems)[:20]:
        print(f"# {name}: {msg}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(len(p.latencies) for p in passes),
            "failed": len(errors), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "leveltree" / "__init__.py").is_file():
        print(f"error: leveltree sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    mismatches = oracle.self_test()
    if mismatches:
        print("error: the oracle fails its self-test: " + "; ".join(mismatches),
              file=sys.stderr)
        return 3
    # all three run from the smallest footprint to the largest, so that each
    # raises the process's peak itself (see PeakRss)
    names = workloads.BY_FOOTPRINT if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, result in results.items():
        print(f"# {name}: " + json.dumps(result))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
