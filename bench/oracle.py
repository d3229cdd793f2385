"""An answer key for the benchmark, computed apart from leveltree.

Everything here works on raw maps (``parent``, ``weight``, ``level`` dicts
with ``Fraction`` levels) and re-derives the paper's definitions directly,
so a wrong answer from the program cannot be masked by the same wrong
answer from a shared helper.  Nothing in this module imports leveltree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Facts:
    """The index data of one weighted level tree."""

    root: str
    parent: dict
    weight: dict
    level: dict
    m: Fraction
    hat: frozenset
    edge_level: dict
    occupied: tuple          # occupied levels, descending
    i_plus: frozenset
    i_m: frozenset
    i_minus: frozenset
    sections: dict           # level in I_plus -> frozenset of edges

    @property
    def labels(self) -> list:
        """Index labels in a fixed order: levels descending, then edges."""
        return (sorted(self.i_plus, reverse=True)
                + sorted(self.i_m) + sorted(self.i_minus))

    def total_weight(self) -> int:
        return sum(self.weight.values())


def facts(root: str, parent: dict, weight: dict, level: dict) -> Facts:
    level = {v: Fraction(x) for v, x in level.items()}
    m = max(level[v] for v, w in weight.items() if w > 0)
    hat = frozenset(e for e, p in parent.items() if level[p] > m)
    edge_level = {e: max(level[e], m) for e in hat}
    occupied = tuple(sorted(set(level.values()), reverse=True))
    i_plus = frozenset(x for x in occupied if m <= x < 0)
    i_m = frozenset(e for e in hat if level[e] < m)
    i_minus = frozenset(parent) - hat
    sections = {i: frozenset(e for e in hat
                             if edge_level[e] <= i < level[parent[e]])
                for i in i_plus}
    return Facts(root=root, parent=dict(parent), weight=dict(weight),
                 level=level, m=m, hat=hat, edge_level=edge_level,
                 occupied=occupied, i_plus=i_plus, i_m=i_m, i_minus=i_minus,
                 sections=sections)


def index_size(parent: dict, weight: dict, level: dict) -> int:
    """|I| alone, cheaply: levels in [m, 0), dropping hat edges, and the
    edges that are not hat edges."""
    m = max(level[v] for v, w in weight.items() if w > 0)
    hat = [e for e, p in parent.items() if level[p] > m]
    return (len({x for x in level.values() if m <= x < 0})
            + sum(1 for e in hat if level[e] < m) + len(parent) - len(hat))


def all_subsets(labels: list) -> list:
    """All 2^|labels| subsets as frozensets."""
    return [frozenset(itertools.compress(labels, bits))
            for bits in itertools.product((0, 1), repeat=len(labels))]


def span(f: Facts, e: str) -> frozenset:
    """Occupied levels in ``[edge_level(e), level(parent(e)))`` of a hat edge."""
    lo, hi = f.edge_level[e], f.level[f.parent[e]]
    return frozenset(x for x in f.occupied if lo <= x < hi)


def contracted(f: Facts, subset: frozenset) -> frozenset:
    """Edges collapsed by contracting along ``subset``: its minus edges, and
    every hat edge (a dropping one only when it is itself chosen) whose span
    lies inside the chosen levels."""
    levels = subset & f.i_plus
    out = set(subset & f.i_minus)
    for e in f.hat:
        if (e not in f.i_m or e in subset) and span(f, e) <= levels:
            out.add(e)
    return frozenset(out)


def pushed_weights(f: Facts, gone: frozenset) -> dict:
    """Each surviving vertex's weight plus that of everything merged into it."""
    out = {}
    for v, w in f.weight.items():
        u = v
        while u in gone:
            u = f.parent[u]
        out[u] = out.get(u, 0) + w
    return out


def dropouts(f: Facts, subset: frozenset) -> frozenset:
    """Unchosen dropping edges whose upper endpoint sits at or below the new
    bottom level, the highest unchosen level of ``I_plus`` (0 if none)."""
    left = f.i_plus - subset
    new_m = min(left) if left else Fraction(0)
    return frozenset(e for e in f.i_m - subset if not f.level[f.parent[e]] > new_m)


def special_choices(f: Facts) -> dict:
    """For each level of ``I_plus``, the vertices sitting there, sorted."""
    return {i: tuple(sorted(v for v in f.parent if f.level[v] == i))
            for i in f.i_plus}


def special_pair_count(f: Facts) -> int:
    n = 1
    for choices in special_choices(f).values():
        n *= len(choices)
    return n * n


def weight_contracted_edges(parent: dict, weight: dict, root: str) -> frozenset:
    """Edges whose upper endpoint has no positive weight at or above it."""
    marked = {}

    def is_marked(v):
        if v not in marked:
            marked[v] = weight[v] > 0 or (v != root and is_marked(parent[v]))
        return marked[v]

    return frozenset(e for e, p in parent.items() if not is_marked(p))


def section_counts(parent: dict, weight: dict, root: str) -> dict:
    """Number of traverse sections of the weight-contracted tree, by size.

    Below a vertex, each child subtree is covered by its own edge or by a
    section of the subtree under it, so the size-generating polynomials
    multiply: ``P(v) = prod over children c of (x + P(c))`` with ``P = 0`` at a
    leaf.  Coefficients are kept as ``{size: count}``.
    """
    kept = weight_contracted_edges(parent, weight, root)
    children = {}
    for e in kept:
        children.setdefault(parent[e], []).append(e)

    def poly(v) -> dict:
        if v not in children:
            return {}
        out = {0: 1}
        for c in children[v]:
            factor = dict(poly(c))
            factor[1] = factor.get(1, 0) + 1
            nxt = {}
            for a, na in out.items():
                for b, nb in factor.items():
                    nxt[a + b] = nxt.get(a + b, 0) + na * nb
            out = nxt
        return out

    return poly(root)


def divisor_levels(f: Facts, k: int) -> frozenset:
    """Levels whose cross-section has at most ``k`` edges: the gap
    coordinates of the ``k``-th divisor pullback."""
    return frozenset(i for i, s in f.sections.items() if len(s) <= k)


def blowup_suite_counts(f: Facts) -> dict:
    """Check counts ``verify --suite blowup`` must report for this tree."""
    out = {"divisor-containment": len(f.parent),
           "blowup-chart-comparison": 1,
           "ideal-transform": len(f.i_plus) + 1}
    if f.i_plus:
        out["bundle-identity"] = 1
    stable = all(f.weight[v] > 0 or sum(1 for p in f.parent.values() if p == v) >= 2
                 for v in f.parent)
    if stable and not f.i_m:
        out["level-reconstruction"] = 1
    return out


# ---------------------------------------------------------------------------
# brute-force instance count
# ---------------------------------------------------------------------------

def _shape_code(v, children, weight):
    return (weight[v], tuple(sorted(_shape_code(c, children, weight)
                                    for c in children.get(v, ()))))


def brute_force_instance_count(max_edges: int, max_weight: int) -> int:
    """Canonical weighted level trees with at most ``max_edges`` edges, found
    by trying every labelled tree, weighting and integer level map.

    Weighted trees are taken once per isomorphism class; on each, two level
    maps are the same instance when they order the vertices at or above the
    bottom weighted level alike.  (At three edges or fewer no instance has
    more than four levels, so a level cap of five never binds.)
    """
    total = 0
    for n in range(max_edges + 1):
        seen_shapes = set()
        for parents in itertools.product(*(range(i) for i in range(1, n + 1))):
            parent = {i: parents[i - 1] for i in range(1, n + 1)}
            children = {}
            for c, p in parent.items():
                children.setdefault(p, []).append(c)
            for ws in itertools.product(range(max_weight + 1), repeat=n + 1):
                if not any(ws):
                    continue
                weight = dict(enumerate(ws))
                code = _shape_code(0, children, weight)
                if code in seen_shapes:
                    continue
                seen_shapes.add(code)
                keys = set()
                for lv in itertools.product(range(-n, 0), repeat=n):
                    level = {0: 0, **{i: lv[i - 1] for i in range(1, n + 1)}}
                    if any(level[p] <= level[c] for c, p in parent.items()):
                        continue
                    m = max(level[v] for v in weight if weight[v] > 0)
                    above = sorted({level[v] for v in parent if level[v] >= m},
                                   reverse=True)
                    keys.add(tuple(frozenset(v for v in parent if level[v] == x)
                                   for x in above))
                total += len(keys)
    return total


# ---------------------------------------------------------------------------
# self-test on the README's five-vertex tree
# ---------------------------------------------------------------------------

README_TREE = {
    "root": "o",
    "parents": {"a": "o", "b": "o", "c": "b", "d": "b"},
    "weights": {"o": 0, "a": 1, "b": 0, "c": 1, "d": 1},
    "levels": {"o": "0", "a": "-2", "b": "-1", "c": "-2", "d": "-2"},
}


def self_test() -> list:
    """Compare the oracle with values worked out by hand for the README
    tree; return the list of mismatches (empty when the oracle is sound)."""
    d = README_TREE
    f = facts(d["root"], d["parents"], d["weights"], d["levels"])
    F = Fraction
    expected = [
        ("m", f.m, F(-2)),
        ("hat", f.hat, frozenset("abcd")),
        ("edge_level", f.edge_level, {"a": F(-2), "b": F(-1), "c": F(-2), "d": F(-2)}),
        ("i_plus", f.i_plus, frozenset({F(-1), F(-2)})),
        ("i_m", f.i_m, frozenset()),
        ("i_minus", f.i_minus, frozenset()),
        ("sections", f.sections, {F(-1): frozenset("ab"), F(-2): frozenset("acd")}),
        ("subsets", len(all_subsets(f.labels)), 4),
        ("special pairs", special_pair_count(f), 9),
        ("section counts", section_counts(f.parent, f.weight, f.root), {2: 1, 3: 1}),
        ("divisor k=1", divisor_levels(f, 1), frozenset()),
        ("divisor k=2", divisor_levels(f, 2), frozenset({F(-1)})),
        ("divisor k=3", divisor_levels(f, 3), frozenset({F(-1), F(-2)})),
        # contracting level -2 folds c and d into b: the README's CLI example
        ("contract {-2}", contracted(f, frozenset({F(-2)})), frozenset("cd")),
        ("weights {-2}", pushed_weights(f, frozenset("cd")), {"o": 0, "a": 1, "b": 2}),
        ("contract {-1,-2}", contracted(f, frozenset({F(-1), F(-2)})), frozenset("abcd")),
        ("dropouts", dropouts(f, frozenset()), frozenset()),
        ("blowup counts", blowup_suite_counts(f),
         {"divisor-containment": 4, "blowup-chart-comparison": 1,
          "ideal-transform": 3, "bundle-identity": 1, "level-reconstruction": 1}),
        # weights <= 1: a lone weighted root, or one edge weighted (0,1),
        # (1,0) or (1,1), each with a single level map
        ("brute force <=1 edge", brute_force_instance_count(1, 1), 4),
    ]
    return [f"{name}: got {got!r}, expected {want!r}"
            for name, got, want in expected if got != want]
