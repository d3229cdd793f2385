"""Per-layer tracing for the benchmark: wrappers around leveltree's public
functions that record spans in memory.

Each wrapper replaces the function on its module and every name bound to
the same object by ``from ... import`` in another leveltree module, so a
call reaches the wrapper however the caller spelled it.  A span covers one
call; a layer's self time is its spans' duration minus the time of the
spans they caused.  Methods of the tree classes are not wrapped, so their
time counts in the self time of their caller.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (layer name, module, attribute path) for every wrapped callable
LAYERS = [
    ("enumerate.gen_instances", "enumerate", "gen_instances"),
    ("levels.edge_span", "levels", "edge_span"),
    ("levels.cross_section", "levels", "cross_section"),
    ("levels.is_equivalent", "levels", "is_equivalent"),
    ("levels.index_partition", "levels", "index_partition"),
    ("contraction.contract", "contraction", "contract"),
    ("contraction.index_identity_report", "contraction", "index_identity_report"),
    ("contraction.verify_equivalence_compat", "contraction", "verify_equivalence_compat"),
    ("charts.build_chart", "charts", "build_chart"),
    ("charts.build_mu", "charts", "build_mu"),
    ("charts.mu", "charts", "TwistedChart.mu"),
    ("charts.forward_map", "charts", "forward_map"),
    ("charts.build_inverse", "charts", "build_inverse"),
    ("charts.check_mu_vanishing", "charts", "check_mu_vanishing"),
    ("charts.special_vertex_transition", "charts", "verify_special_vertex_transition"),
    ("charts.parameter_transition", "charts", "verify_parameter_transition"),
    ("charts.stratum_transition", "charts", "verify_stratum_transition"),
    ("monomial.compose", "monomial", "compose"),
    ("monomial.substitute", "monomial", "Monomial.substitute"),
    ("monomial.equal_on_stratum", "monomial", "equal_on_stratum"),
    ("blowup.traverse_sections", "blowup", "traverse_sections"),
    ("blowup.yk_pullback", "blowup", "yk_pullback"),
    ("blowup.psi2_chart_check", "blowup", "psi2_chart_check"),
    ("blowup.bundle_identity", "blowup", "bundle_identity"),
    ("blowup.psi2_level_tree", "blowup", "psi2_level_tree"),
    ("cli.run", "cli", "run"),
]
GENERATORS = {"enumerate.gen_instances"}
MAX_SPANS = 200_000  # spans kept for the trace file; totals count every call

# BENCHMARK.json lists the per-layer metrics, names and units, once
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric the benchmark declares."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


class Tracer:
    """Spans and per-layer totals for one traced pass.

    Wrappers stay inert (a flag test and a call) while ``active`` is false,
    so the benchmark can check outputs through the same functions without
    counting that work.
    """

    def __init__(self):
        self.active = False
        self.spans: list = []
        self.dropped = 0
        self.totals = {name: [0, 0.0, 0.0] for name, _, _ in LAYERS}  # calls, total, self
        self.op = -1
        self._stack: list = []   # [span id, child time] per open span
        self._next_id = 0
        self._patches: list = []
        self._pairs: set = set()
        self.distinct_pairs = 0

    # -- installation -----------------------------------------------------

    def install(self, lt) -> None:
        """Wrap every layer of the leveltree package namespace ``lt``."""
        modules = [getattr(lt, name) for name in
                   ("enumerate", "levels", "contraction", "charts",
                    "monomial", "blowup", "cli")]
        for name, mod_name, path in LAYERS:
            owner = getattr(lt, mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:  # a layer it cannot find would read 0, as if free
                raise RuntimeError(f"trace: layer {name} ({mod_name}.{path}) not found")
            wrapper = (self._wrap_generator(name, original) if name in GENERATORS
                       else self._wrap(name, original))
            targets = [(owner, attr)]
            if not outer:
                targets += [(mod, key) for mod in modules if mod is not owner
                            for key, val in vars(mod).items() if val is original]
            for obj, key in targets:
                self._patches.append((obj, key, original))
                setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame, parent

    def _account(self, name, frame, t0, t1):
        """Close the innermost span: charge its time to its caller as child
        time and to its layer as total and self time."""
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        tot = self.totals[name]
        tot[1] += dur
        tot[2] += dur - frame[1]

    def _record(self, sid, parent, name, t0, t1):
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent, self.op, name, t0, t1))
        else:
            self.dropped += 1

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter
        is_contract = name == "contraction.contract"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.totals[name][0] += 1
            if is_contract:
                t = args[0] if args else kwargs["t"]
                subset = args[1] if len(args) > 1 else kwargs["subset"]
                tracer._pairs.add((tuple(sorted(t.tree.parent.items())),
                                   tuple(sorted(t.weight.items())),
                                   tuple(sorted(t.level.items())), frozenset(subset)))
            frame, parent = tracer._open()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._account(name, frame, t0, t1)
                tracer._record(frame[0], parent, name, t0, t1)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn):
        """One span from the first resumption to exhaustion; its duration
        counts only the time spent inside the generator."""
        tracer = self
        clock = time.perf_counter
        done = object()

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                yield from gen
                return
            tracer.totals[name][0] += 1
            start = None
            while True:
                frame, parent = tracer._open()
                t0 = clock()
                start = t0 if start is None else start
                item = next(gen, done)
                t1 = clock()
                tracer._account(name, frame, t0, t1)
                if item is done:
                    tracer._record(frame[0], parent, name, start, t1)
                    return
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- operations ---------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._pairs = set()
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.distinct_pairs += len(self._pairs)
        self._pairs = set()

    # -- results --------------------------------------------------------------

    def metric(self, name: str, slowdown: float) -> float:
        """The value of one per-layer metric, by its name."""
        tot = self.totals
        if name == "contraction.contract.repeat_ratio":
            calls = tot["contraction.contract"][0]
            return calls / self.distinct_pairs if self.distinct_pairs else 0.0
        if name == "charts.mu_hit_ratio":
            lookups = tot["charts.mu"][0]
            return 1 - tot["charts.build_mu"][0] / lookups if lookups else 0.0
        if name == "trace.slowdown":
            return slowdown
        if name == "cli.self_s":
            return tot["cli.run"][2]
        layer, _, stat = name.rpartition(".")
        if layer in tot and stat in ("calls", "self_s"):
            return tot[layer][0 if stat == "calls" else 2]
        raise KeyError(f"trace: no layer measures the metric {name}")

    def metrics(self, slowdown: float) -> dict:
        return {name: {"value": self.metric(name, slowdown), "unit": unit}
                for name, unit in per_layer_units().items()}

    def summary(self) -> str:
        """A table of the layers that ran, by self time."""
        rows = [(name, c, total, own) for name, (c, total, own) in self.totals.items() if c]
        rows.sort(key=lambda r: -r[3])
        lines = [f"{'layer':40s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s}"]
        for name, c, total, own in rows:
            lines.append(f"{name:40s} {c:10d} {total:10.4f} {own:10.4f}")
        lines.append(f"spans kept {len(self.spans)}, dropped {self.dropped}")
        return "\n".join(lines)

    def write(self, path) -> None:
        """Write the kept spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": t0, "end": t1}) + "\n")
        print(f"trace: {len(self.spans)} spans written to {path}", file=sys.stderr)
