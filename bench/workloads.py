"""The benchmark's three workloads.

A workload makes its inputs (``setup``, timed as set-up: enumeration or
input generation), puts them in a seeded order (``order``), turns one input
into the arguments of one operation without timing it (``prepare``), runs the
operation through leveltree's public functions (``run``, the only timed
call) and checks what came back against the oracle (``check``, returning a
list of problems).  ``lt`` is the freshly imported ``leveltree`` package.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import oracle


def raw_of(t) -> tuple:
    """The plain maps of a level tree, so every operation can rebuild it."""
    return (t.root, dict(t.tree.parent), dict(t.weight), dict(t.level))


def interleave(items: list, key, rng: random.Random) -> list:
    """A seeded order in which every prefix holds each stratum ``key`` in
    nearly its share of the whole: each stratum is shuffled and its members
    spread evenly, at a seeded offset, over the unit interval."""
    strata: dict = {}
    for item in items:
        strata.setdefault(key(item), []).append(item)
    placed = []
    for k in sorted(strata):
        members = strata[k]
        rng.shuffle(members)
        offset = rng.random()
        placed += [((j + offset) / len(members), k, j, item)
                   for j, item in enumerate(members)]
    placed.sort(key=lambda p: p[:3])
    return [p[3] for p in placed]


def _stratum(raw) -> tuple:
    """Edges and index-set size: what the cost of a sweep operation follows."""
    root, parent, weight, level = raw
    return len(parent), oracle.index_size(parent, weight, level)


def _relevelings(lt, t) -> list:
    """Two equivalent rescalings of the level map."""
    cls = lt.levels.WeightedLevelTree
    return [cls(base=t.base, level={v: 2 * x for v, x in t.level.items()}),
            cls(base=t.base, level={v: Fraction(3, 2) * x for v, x in t.level.items()})]


def _program_subsets(lt, raw) -> list:
    """Every index subset by the program's own index set, expanded the way
    ``verify`` expands it.  The labels come from a second copy of the tree,
    so that no memo of the timed tree is filled outside the timed call."""
    labels = sorted(lt.levels.index_partition(lt.levels.make_level_tree(*raw)).labels(),
                    key=str)
    return oracle.all_subsets(labels)


def _check_subsets(subsets, f) -> list:
    """The subsets the program enumerated against the oracle's 2^|I|."""
    if len(subsets) != 2 ** len(f.labels) or set(subsets) != set(oracle.all_subsets(f.labels)):
        return [f"the program's index set gives {len(subsets)} subsets, not the "
                f"oracle's 2^{len(f.labels)}"]
    return []


def _check_index_data(lt, t, f) -> list:
    part = lt.levels.index_partition(t)
    problems = []
    if (part.i_plus, part.i_m, part.i_minus) != (f.i_plus, f.i_m, f.i_minus):
        problems.append("index partition differs from the oracle")
    for i in f.i_plus:
        if lt.levels.cross_section(t, i) != f.sections[i]:
            problems.append(f"cross-section at {i} differs from the oracle")
    return problems


class ContractionSweep:
    """The contraction suite on every index subset of a seeded sample of
    distinct trees from the <=5-edge, weight <=2 corpus."""

    name = "contraction-sweep"
    tail_pct = 99
    min_ops = 1000
    round_ops = 1
    trace_ops = 150
    setup_repeats = 3
    sample = 4000

    def setup(self, lt, seed: int) -> list:
        spec = lt.enumerate.EnumSpec(max_edges=5, max_weight=2, max_levels=5)
        return list(lt.enumerate.gen_instances(spec))

    def order(self, corpus: list, seed: int) -> list:
        raws = [raw_of(t) for t in corpus]
        return interleave(raws, _stratum, random.Random(seed))[:self.sample]

    def prepare(self, lt, raw):
        t = lt.levels.make_level_tree(*raw)
        return t, _relevelings(lt, t), _program_subsets(lt, raw), oracle.facts(*raw)

    def run(self, lt, args):
        t, others, subsets, _ = args
        contract = lt.contraction.contract
        report = lt.contraction.index_identity_report
        compat = lt.contraction.verify_equivalence_compat
        out = []
        for subset in subsets:
            res = contract(t, subset)
            out.append((res, report(t, subset, result=res),
                        [compat(t, t2, subset) for t2 in others]))
        return out

    def check(self, lt, args, out) -> list:
        t, _, subsets, f = args
        problems = _check_index_data(lt, t, f) + _check_subsets(subsets, f)
        if len(out) != len(subsets):
            problems.append(f"{len(out)} results for {len(subsets)} subsets")
        total = f.total_weight()
        for subset, (res, rep, compats) in zip(subsets, out):
            nt = res.tree
            gone = oracle.contracted(f, subset)
            drop = oracle.dropouts(f, subset)
            if sum(nt.weight.values()) != total:
                problems.append(f"I={sorted(map(str, subset))}: weight not conserved")
            if res.contracted != gone or dict(nt.weight) != oracle.pushed_weights(f, gone):
                problems.append(f"I={sorted(map(str, subset))}: wrong contracted edges")
            if not rep.all_corrected() or not all(compats):
                problems.append(f"I={sorted(map(str, subset))}: identity failed")
            if rep.dropouts != drop or (not rep.all_strict() and not drop):
                problems.append(f"I={sorted(map(str, subset))}: literal failure off dropouts")
            if not subset and (dict(nt.tree.parent), dict(nt.weight), dict(nt.level)) \
                    != (f.parent, f.weight, f.level):
                problems.append("contracting the empty subset changed the tree")
        return problems


class ChartSweep:
    """Everything ``verify --suite charts`` checks, on every distinct <=4-edge
    chart in a seeded order."""

    name = "chart-sweep"
    tail_pct = 98
    min_ops = 500
    round_ops = 1  # set by order() to the number of distinct charts
    trace_ops = 80
    setup_repeats = 9

    def setup(self, lt, seed: int) -> list:
        spec = lt.enumerate.EnumSpec(max_edges=4, max_weight=2, max_levels=5)
        return list(lt.enumerate.gen_instances(spec))

    def order(self, corpus: list, seed: int) -> list:
        distinct = {}
        for raw in map(raw_of, corpus):
            root, parent, weight, level = raw
            key = (tuple(sorted(parent.items())),
                   frozenset(v for v, w in weight.items() if w > 0),
                   tuple(sorted(level.items())))
            distinct.setdefault(key, raw)
        self.round_ops = len(distinct)  # a run covers every chart, whatever the seed
        return interleave(list(distinct.values()), _stratum, random.Random(seed))

    def prepare(self, lt, raw):
        t = lt.levels.make_level_tree(*raw)
        # the pairs of special-edge choices, as the program enumerates them
        choices = lt.levels.special_choices(lt.levels.make_level_tree(*raw))
        keys = sorted(choices)
        maps = [dict(zip(keys, combo))
                for combo in itertools.product(*(choices[i] for i in keys))]
        pairs = [(a, b) for a in maps for b in maps]
        return t, _program_subsets(lt, raw), (choices, pairs), oracle.facts(*raw)

    def run(self, lt, args):
        t, subsets, (_, pairs), f = args
        ch = lt.charts
        chart = ch.build_chart(t)
        per_subset = [(ch.verify_round_trip(chart, s), ch.check_mu_vanishing(chart, s),
                       ch.verify_stratum_transition(t, s)) for s in subsets]
        ancestor = ch.remark_identities(chart) if f.i_plus else True
        parameter = ch.verify_parameter_transition(t)
        special = [ch.verify_special_vertex_transition(t, a, b) for a, b in pairs]
        return chart, per_subset, ancestor, parameter, special

    def check(self, lt, args, out) -> list:
        t, subsets, (choices, pairs), f = args
        chart, per_subset, ancestor, parameter, special = out
        problems = _check_index_data(lt, t, f) + _check_subsets(subsets, f)
        if choices != oracle.special_choices(f):
            problems.append("special-edge choices differ from the oracle")
        if len(pairs) != oracle.special_pair_count(f):
            problems.append(f"the program's choices give {len(pairs)} special pairs, "
                            f"expected {oracle.special_pair_count(f)}")
        if len(per_subset) != len(subsets) or len(special) != len(pairs):
            problems.append("a subset or a special pair went unchecked")
        if not (all(all(v) for v in per_subset) and ancestor and parameter and all(special)):
            problems.append("an identity failed")
        default = {i: c[0] for i, c in oracle.special_choices(f).items()}
        if chart.frame.special != default:
            problems.append("default special edges differ from the oracle")
        one = lt.monomial.Monomial.one()
        for subset in subsets:
            table = chart.mu(subset)
            left = f.i_plus - subset
            want = {(i, e) for i in left for e in f.sections[i]}
            if set(table) != want or any(table[(i, default[i])] != one for i in left):
                problems.append(f"I={sorted(map(str, subset))}: mu table or special mu != 1")
        return problems


# ---------------------------------------------------------------------------
# large trees through the CLI
# ---------------------------------------------------------------------------

SHAPES = ("path", "caterpillar", "broom")
SIZES = (24, 40, 56)
COMMANDS = ("validate", "indices", "contract", "blowup-report", "verify")
STEPS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))


def large_tree(shape: str, n: int, rng: random.Random) -> tuple:
    """A seeded tree of ``n`` edges: a path; a caterpillar, a spine with a
    leg on each of its upper vertices; or a broom, a handle ending in a star
    of bristles.

    The seed draws the gaps between levels, the weights and the contracted
    subset.  The order of the levels and the highest weighted level are
    fixed by the shape and size, so the index data, and with it the work of
    every command, is the same for every seed.
    """
    parent, weight, level = {}, {"o": 0}, {"o": Fraction(0)}

    def add(v, up, lvl, first_weighted, weighted):
        parent[v], level[v] = up, lvl
        weight[v] = (rng.choice((1, 2)) if first_weighted
                     else rng.choice((0, 1, 2)) if weighted else 0)

    spine = {"path": n, "caterpillar": n - n // 2, "broom": n // 2}[shape]
    # the highest weighted vertex sits a quarter of the way up the spine;
    # in a broom, on the bristles
    frontier = spine - spine // 4 if shape != "broom" else spine + 1
    for k in range(1, spine + 1):
        up = "o" if k == 1 else f"s{k - 1}"
        add(f"s{k}", up, level[up] - rng.choice(STEPS), k == frontier, k > frontier)
    if shape == "caterpillar":
        # leg k sits level with the next spine vertex, the last one below it
        for k in range(1, n // 2 + 1):
            up = f"s{k}"
            lvl = level[f"s{k + 1}"] if k < spine else level[up] - rng.choice(STEPS)
            add(f"l{k}", up, lvl, False, k >= frontier)
    elif shape == "broom":
        # bristles on two levels: the upper one is the highest weighted
        # level, and the lower bristles drop below it
        top = f"s{spine}"
        for k in range(1, n - spine + 1):
            lvl = level[top] - (Fraction(1, 2) if k % 2 else Fraction(1))
            add(f"b{k}", top, lvl, k == 1, True)
    return "o", parent, weight, level


def tree_json(raw: tuple) -> str:
    root, parent, weight, level = raw
    return json.dumps({"root": root, "parents": parent, "weights": weight,
                       "levels": {v: str(x) for v, x in level.items()}},
                      sort_keys=True, indent=2)


class LargeTrees:
    """Seeded paths, caterpillars and brooms of 24-56 edges, each taken once
    through ``validate``, ``indices --json``, ``contract`` along a seeded
    subset, ``blowup-report`` and ``verify --suite blowup --json``."""

    name = "large-trees"
    tail_pct = 90
    min_ops = 100
    round_ops = len(COMMANDS) * len(SHAPES) * len(SIZES)
    trace_ops = round_ops
    setup_repeats = 15
    cycles = 8

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, lt, seed: int) -> list:
        rng = random.Random(seed)
        ops = []
        for cycle in range(self.cycles):
            combos = [(s, n) for s in SHAPES for n in SIZES]
            rng.shuffle(combos)
            for k, (shape, n) in enumerate(combos):
                raw = large_tree(shape, n, rng)
                path = self.workdir / f"tree-{cycle}-{k}.json"
                path.write_text(tree_json(raw), encoding="utf-8")
                pick = rng.getrandbits(32)
                ops += [(cmd, str(path), raw, pick) for cmd in COMMANDS]
        return ops

    def order(self, ops: list, seed: int) -> list:
        return ops

    def prepare(self, lt, op):
        cmd, path, raw, pick = op
        f = oracle.facts(*raw)
        chooser = random.Random(pick)
        subset = frozenset(x for x in f.labels if chooser.random() < 0.5)
        if cmd == "indices":
            argv = ["indices", path, "--json"]
        elif cmd == "contract":
            argv = ["contract", path]
            levels = [str(x) for x in sorted(subset & f.i_plus, reverse=True)]
            edges = sorted(subset - f.i_plus)
            if levels:
                argv.append("--levels=" + ",".join(levels))
            if edges:
                argv.append("--edges=" + ",".join(edges))
        elif cmd == "verify":
            argv = ["verify", path, "--suite", "blowup", "--json"]
        else:
            argv = [cmd, path]
        return argv, (cmd, f, subset)

    def run(self, lt, args):
        argv, _ = args
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lt.cli.run(argv)
        if rc != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
        return out.getvalue()

    def check(self, lt, args, text) -> list:
        argv, (cmd, f, subset) = args
        return getattr(self, "_check_" + cmd.replace("-", "_"))(f, subset, text)

    @staticmethod
    def _check_validate(f, subset, text):
        want = (f"ok: {len(f.parent) + 1} vertices, {len(f.parent)} edges, m={f.m}\n")
        return [] if text == want else [f"validate printed {text!r}"]

    @staticmethod
    def _check_indices(f, subset, text):
        d = json.loads(text)
        got = (Fraction(d["m"]), set(d["hat_edges"]),
               {e: Fraction(x) for e, x in d["edge_levels"].items()},
               [Fraction(x) for x in d["i_plus"]], set(d["i_m"]), set(d["i_minus"]),
               {Fraction(i): set(s) for i, s in d["cross_sections"].items()})
        want = (f.m, set(f.hat), f.edge_level, sorted(f.i_plus, reverse=True),
                set(f.i_m), set(f.i_minus), {i: set(s) for i, s in f.sections.items()})
        return [] if got == want else ["indices --json differs from the oracle"]

    @staticmethod
    def _check_contract(f, subset, text):
        d = json.loads(text)
        gone = oracle.contracted(f, subset)
        problems = []
        if d["root"] != f.root or set(d["parents"]) != set(f.parent) - gone:
            problems.append("contract kept the wrong vertices")
        if d["weights"] != oracle.pushed_weights(f, gone) \
                or sum(d["weights"].values()) != f.total_weight():
            problems.append("contract did not conserve weight")
        level = {v: Fraction(x) for v, x in d["levels"].items()}
        if level[f.root] != 0 or any(level[p] <= level[c] for c, p in d["parents"].items()):
            problems.append("contract returned an invalid level map")
        return problems

    @staticmethod
    def _check_blowup_report(f, subset, text):
        lines = text.splitlines()
        kept = oracle.weight_contracted_edges(f.parent, f.weight, f.root)
        want = [f"weight-contracted tree edges: {sorted(kept)}"]
        counts: dict = {}
        divisors = []
        for line in lines[1:]:
            if line.startswith("stage "):
                k = int(line.split()[1].rstrip(":"))
                counts[k] = counts.get(k, 0) + 1
            elif line.startswith("divisor pullback k="):
                head, _, mono = line.partition(": ")
                divisors.append((int(head.split("=")[1]),
                                 set() if mono == "1" else set(mono.split(" * "))))
        problems = []
        if lines[:1] != want:
            problems.append("blowup-report: wrong weight-contracted tree")
        if counts != oracle.section_counts(f.parent, f.weight, f.root):
            problems.append("blowup-report: wrong traverse-section counts")
        expected = [(k, {f"eps({i})" for i in oracle.divisor_levels(f, k)})
                    for k in range(1, len(f.parent) + 1)]
        if divisors != expected:
            problems.append("blowup-report: wrong divisor pullbacks")
        if not any(line.startswith("reconstruction from slots") for line in lines):
            problems.append("blowup-report: no reconstruction line")
        return problems

    @staticmethod
    def _check_verify(f, subset, text):
        (rep,) = json.loads(text)
        want = oracle.blowup_suite_counts(f)
        if rep["failures"] or rep["checks"] != want or rep["instances"] != sum(want.values()):
            return ["verify --suite blowup: wrong checks or a failed identity"]
        return []


def make(name: str, workdir: Path):
    if name == "contraction-sweep":
        return ContractionSweep()
    if name == "chart-sweep":
        return ChartSweep()
    return LargeTrees(workdir)


NAMES = ("contraction-sweep", "chart-sweep", "large-trees")
BY_FOOTPRINT = ("large-trees", "chart-sweep", "contraction-sweep")
