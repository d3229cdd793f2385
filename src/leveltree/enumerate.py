"""Exhaustive, deterministic generators of small instances.

Weighted rooted trees are produced up to root-preserving isomorphism by
building canonical encodings (weight plus the sorted multiset of child
encodings) directly; a child pool pairs each shape with its edge cost, so
no shape is measured twice.  The trees are valid by construction, so they
skip the tree constructors' validation (``tree._derived_weighted_tree``)
and build their child lists only when something walks them.  Level trees
are produced one canonical representative per equivalence class by
generating the class keys themselves -- the ordered partitions by level of
the vertices at or above the highest weighted level -- each exactly once,
so neither generator keeps a set of what it has seen.  The keys depend only
on the tree and on which of its vertices are weighted, so ``gen_instances``
computes them once per such skeleton and reuses them for every weighting
of it, in a dict that lives as long as the call.  Representatives are
built and sorted on integer ranks; ``Fraction`` levels are made only for
the trees returned, one shared value per level, and those trees skip the
level constructor's validation (``levels._derived_level_tree``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DomainError
from .levels import WeightedLevelTree, _derived_level_tree
from .tree import Vertex, WeightedTree, _derived_weighted_tree


@dataclass(frozen=True)
class EnumSpec:
    max_edges: int = 5
    max_weight: int = 2
    max_levels: int = 5

    def __post_init__(self):
        if min(self.max_edges, self.max_weight, self.max_levels) < 0:
            raise DomainError("enumeration bounds must be nonnegative")


# canonical shape: (weight, (child_shape, child_shape, ...)) with children sorted
Shape = tuple


@functools.cache
def _shapes(n_edges: int, max_weight: int) -> list[Shape]:
    """All canonical weighted shapes with exactly ``n_edges`` edges."""
    if n_edges == 0:
        out = [(w, ()) for w in range(max_weight + 1)]
    else:
        out = []
        for parts in _child_partitions(n_edges, max_weight):
            for w in range(max_weight + 1):
                out.append((w, parts))
    return out


def _child_partitions(budget: int, max_weight: int) -> list[tuple[Shape, ...]]:
    """Sorted tuples of child shapes using exactly ``budget`` edges (each child
    subtree costs its own edge count plus one for its parent edge)."""
    # (shape, cost) pairs sort as the shapes do, since the shapes are distinct
    pool = sorted((shape, k + 1) for k in range(budget)
                  for shape in _shapes(k, max_weight))
    out: list[tuple[Shape, ...]] = []

    def rec(remaining: int, start: int, acc: list[Shape]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for idx in range(start, len(pool)):
            shape, cost = pool[idx]
            if cost > remaining:
                continue
            acc.append(shape)
            rec(remaining - cost, idx, acc)
            acc.pop()

    rec(budget, 0, [])
    return out


def _materialize(shape: Shape) -> WeightedTree:
    parent: dict[Vertex, Vertex] = {}
    weight: dict[Vertex, int] = {}
    counter = itertools.count(1)

    def walk(sh: Shape, name: Vertex):
        w, children = sh
        weight[name] = w
        for child in children:
            cname = f"v{next(counter)}"
            parent[cname] = name
            walk(child, cname)

    walk(shape, "o")
    return _derived_weighted_tree("o", parent, weight)


def gen_weighted_trees(spec: EnumSpec) -> Iterator[WeightedTree]:
    """All weighted rooted trees with at most ``max_edges`` edges, weights in
    ``[0, max_weight]`` and at least one positive weight, up to
    root-preserving isomorphism, in a fixed order."""
    for n in range(spec.max_edges + 1):
        for shape in sorted(_shapes(n, spec.max_weight)):
            if not _weighted(shape):
                continue
            yield _materialize(shape)


def _weighted(shape: Shape) -> bool:
    w, children = shape
    return w > 0 or any(_weighted(c) for c in children)


def gen_level_trees(base: WeightedTree, spec: EnumSpec) -> Iterator[WeightedLevelTree]:
    """One canonical representative per equivalence class of level maps on
    ``base`` with at most ``max_levels`` occupied levels.

    A class is determined by its key: the ordered partition by level of the
    vertices at or above the highest weighted level (the frontier), whose
    last part holds a weighted vertex unless the root is weighted
    (``_class_keys``).  The representative puts the key's classes on levels
    -1, -2, ... and every vertex below the frontier one level below its
    parent or the frontier, whichever is lower.  The classes are returned
    sorted by level map.
    """
    names, keys = _class_keys(base, spec.max_levels)
    levels = tuple(Fraction(-k) for k in range(min(spec.max_levels, len(names))))
    yield from _representatives(base, names, keys, levels)


def _class_keys(base: WeightedTree, max_levels: int) -> tuple[list[Vertex], list[tuple[int, ...]]]:
    """The sorted vertex names of ``base`` and the ranks of its class
    representatives with at most ``max_levels`` occupied levels, each a
    tuple in ``names`` order, sorted as their level maps are.

    The keys depend only on the tree and on which vertices are weighted.
    The recursion builds each key exactly once.  Taking the non-root
    vertices in preorder, a vertex whose parent lies at or above the
    frontier either stays below it, joins a class strictly below its
    parent's class, or founds a new class at any position strictly below
    it.  A weighted vertex may only join or found the last class, which
    closes the frontier: no class may come after it.  A weighted root
    closes it at the start.  Vertices are read as positions in ``names``.
    """
    if not base.positive_vertices():
        raise DomainError("level trees need at least one positive weight")
    tree = base.tree
    names = sorted(tree.vertices)
    pos = {v: p for p, v in enumerate(names)}
    root = pos[tree.root]
    up = [pos[tree.parent.get(v, tree.root)] for v in names]
    weighted = [base.weight[v] > 0 for v in names]
    order = [pos[v] for v in tree.preorder()][1:]
    n = len(order)
    classes: list[list[int]] = []
    class_of: list[list[int] | None] = [None] * len(names)
    found: list[tuple[int, ...]] = []

    def finish():
        # the key's classes take ranks 1..r_m, everything lower goes by depth
        r_m = len(classes)
        rank = [0] * len(names)
        for k, cls in enumerate(classes, 1):
            for p in cls:
                rank[p] = k
        for p in order:
            if not rank[p]:
                rank[p] = max(rank[up[p]], r_m) + 1
        # the ranks are consecutive, so the deepest one counts the levels
        if max(rank) < max_levels:
            found.append(tuple(rank))

    def rec(idx: int, closed: bool):
        if idx == n:
            if closed:
                finish()
            return
        rec(idx + 1, closed)  # order[idx] stays below the frontier
        p = order[idx]
        par = up[p]
        if par == root:
            lo = 0
        elif class_of[par] is not None:
            lo = classes.index(class_of[par]) + 1
        else:
            return
        # a new class may go at any position from ``lo`` up to the end, but
        # never after a closed frontier
        end = len(classes) + (not closed)
        if weighted[p]:
            joins = range(max(lo, len(classes) - 1), len(classes))
            founds = range(len(classes), end)
            closed = True
        else:
            joins, founds = range(lo, len(classes)), range(lo, end)
        for j in joins:
            classes[j].append(p)
            class_of[p] = classes[j]
            rec(idx + 1, closed)
            classes[j].pop()
        fresh = [p]
        class_of[p] = fresh
        for j in founds:
            classes.insert(j, fresh)
            rec(idx + 1, closed)
            classes.pop(j)
        class_of[p] = None

    rec(0, weighted[root])
    # a level map is minus its ranks, so the maps ascend as the ranks descend
    found.sort(reverse=True)
    return names, found


def _representatives(base: WeightedTree, names: list[Vertex], keys: list[tuple[int, ...]],
                     levels: tuple[Fraction, ...]) -> Iterator[WeightedLevelTree]:
    """The level trees on ``base`` of the ranks ``keys`` of ``_class_keys``,
    with rank ``k`` at level ``levels[k]``.  A class key proves its level
    map valid, so the representatives skip validation; their rank tables
    stay lazy."""
    for key in keys:
        yield _derived_level_tree(base, {v: levels[k] for v, k in zip(names, key)})


def gen_instances(spec: EnumSpec, stable_only: bool = False) -> Iterator[WeightedLevelTree]:
    """Every canonical weighted level tree within the bounds.  Bases that
    differ only in the values of their positive weights share their class
    keys, which are computed once per call for each such skeleton."""
    levels = tuple(Fraction(-k) for k in range(min(spec.max_levels, spec.max_edges + 1)))
    keys_of: dict[tuple, tuple[list[Vertex], list[tuple[int, ...]]]] = {}
    for base in gen_weighted_trees(spec):
        if stable_only and not base.is_stable():
            continue
        tree = base.tree
        skeleton = (tree.root, tuple(tree.parent.items()),
                    tuple(v for v, w in base.weight.items() if w > 0))
        found = keys_of.get(skeleton)
        if found is None:
            found = keys_of[skeleton] = _class_keys(base, spec.max_levels)
        yield from _representatives(base, *found, levels)
