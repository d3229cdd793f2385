"""Exhaustive, deterministic generators of small instances.

Weighted rooted trees are produced up to root-preserving isomorphism by
building canonical encodings (weight plus the sorted multiset of child
encodings) directly; a child pool pairs each shape with its edge cost, so
no shape is measured twice.  Level trees are produced one canonical
representative per equivalence class by generating the class keys
themselves -- the ordered partitions by level of the vertices at or above
the highest weighted level -- each exactly once, so neither generator
keeps a set of what it has seen.  Representatives are built and sorted on
integer levels; ``Fraction`` levels are made only for the trees returned,
which skip the level constructor's validation
(``levels._derived_level_tree``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DomainError
from .levels import WeightedLevelTree, _derived_level_tree
from .tree import RootedTree, Vertex, WeightedTree


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

_SHAPE_CACHE: dict[tuple[int, int], list[Shape]] = {}


def _shapes(n_edges: int, max_weight: int) -> list[Shape]:
    """All canonical weighted shapes with exactly ``n_edges`` edges."""
    cached = _SHAPE_CACHE.get((n_edges, max_weight))
    if cached is not None:
        return cached
    if n_edges == 0:
        out = [(w, ()) for w in range(max_weight + 1)]
    else:
        out = []
        for parts in _child_partitions(n_edges, max_weight):
            for w in range(max_weight + 1):
                out.append((w, parts))
    _SHAPE_CACHE[(n_edges, max_weight)] = out
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
    return WeightedTree(tree=RootedTree(root="o", parent=parent), weight=weight)


def gen_weighted_trees(spec: EnumSpec) -> Iterator[WeightedTree]:
    """All weighted rooted trees with at most ``max_edges`` edges, weights in
    ``[0, max_weight]`` and at least one positive weight, up to
    root-preserving isomorphism, in a fixed order."""
    for n in range(spec.max_edges + 1):
        for shape in sorted(_shapes(n, spec.max_weight)):
            if _total(shape) == 0:
                continue
            yield _materialize(shape)


def _total(shape: Shape) -> int:
    w, children = shape
    return w + sum(_total(c) for c in children)


def gen_level_trees(base: WeightedTree, spec: EnumSpec) -> Iterator[WeightedLevelTree]:
    """One canonical representative per equivalence class of level maps on
    ``base`` with at most ``max_levels`` occupied levels.

    A class is determined by its key: the ordered partition by level of the
    vertices at or above the highest weighted level (the frontier), whose
    last part holds a weighted vertex unless the root is weighted.  The
    recursion builds each key exactly once.  Taking the non-root vertices in
    preorder, a vertex whose parent lies at or above the frontier either
    stays below it, joins a class strictly below its parent's class, or
    founds a new class at any position strictly below it.  A weighted vertex
    may only join or found the last class, which closes the frontier: no
    class may come after it.  A weighted root closes it at the start.  The
    representative puts the key's classes on levels -1, -2, ... and every
    vertex below the frontier one level below its parent or the frontier,
    whichever is lower.  The classes are returned sorted by level map.
    """
    if not base.positive_vertices():
        raise DomainError("level trees need at least one positive weight")
    tree = base.tree
    root, parent = tree.root, tree.parent
    order = [v for v in tree.preorder() if v != root]
    weighted = {v for v in order if base.weight[v] > 0}
    names = sorted(tree.vertices)
    n = len(order)
    classes: list[list[Vertex]] = []
    class_of: dict[Vertex, list[Vertex]] = {}
    found: list[tuple[int, ...]] = []  # integer level maps, in ``names`` order

    def finish():
        # ranks: the key's classes take 1..r_m, everything lower goes by depth
        r_m = len(classes)
        rank = {root: 0}
        for k, cls in enumerate(classes, 1):
            for v in cls:
                rank[v] = k
        for v in order:
            if v not in rank:
                rank[v] = max(rank[parent[v]], r_m) + 1
        # the ranks are consecutive, so the deepest one counts the levels
        if max(rank.values()) < spec.max_levels:
            found.append(tuple(-rank[v] for v in names))

    def rec(idx: int, closed: bool):
        if idx == n:
            if closed:
                finish()
            return
        rec(idx + 1, closed)  # order[idx] stays below the frontier
        v = order[idx]
        par = parent[v]
        if par == root:
            lo = 0
        elif par in class_of:
            lo = classes.index(class_of[par]) + 1
        else:
            return
        # a new class may go at any position from ``lo`` up to the end, but
        # never after a closed frontier
        end = len(classes) + (not closed)
        if v in weighted:
            joins = range(max(lo, len(classes) - 1), len(classes))
            founds = range(len(classes), end)
            closed = True
        else:
            joins, founds = range(lo, len(classes)), range(lo, end)
        for j in joins:
            classes[j].append(v)
            class_of[v] = classes[j]
            rec(idx + 1, closed)
            classes[j].pop()
        fresh = [v]
        class_of[v] = fresh
        for j in founds:
            classes.insert(j, fresh)
            rec(idx + 1, closed)
            classes.pop(j)
        del class_of[v]

    rec(0, base.weight[root] > 0)
    found.sort()
    # a class key proves its level map valid, so the representatives skip
    # validation; their rank tables stay lazy
    levels = [Fraction(-k) for k in range(n + 1)]
    for key in found:
        yield _derived_level_tree(base, {v: levels[-x] for v, x in zip(names, key)})


def gen_instances(spec: EnumSpec, stable_only: bool = False) -> Iterator[WeightedLevelTree]:
    """Every canonical weighted level tree within the bounds."""
    for base in gen_weighted_trees(spec):
        if stable_only and not base.is_stable():
            continue
        yield from gen_level_trees(base, spec)
