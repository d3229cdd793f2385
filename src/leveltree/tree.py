"""Rooted trees and weighted trees.

Vertices are opaque strings.  Every non-root vertex ``v`` has a unique parent
edge, and we identify that edge with ``v`` itself (the edge name *is* the name
of its lower endpoint).  This makes the vertex/edge bijection lossless and
keeps all edge-indexed maps plain string-keyed dicts.

The engine reads the tree order (``v >= w`` iff ``v`` lies on the path from
``w`` to the root) only through root paths: the edges at or above an edge
``e`` are ``root_path(e)[:-1]``, and those strictly above it
``root_path(e)[1:-1]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

from .errors import StructureError

Vertex = str
Edge = str  # an edge is named by its child (lower) endpoint
# The most digits of a total weight or of a level's numerator or denominator;
# Python converts ints of up to 4,300 digits to and from text.
MAX_DIGITS = 1000


@dataclass(frozen=True)
class RootedTree:
    """A finite rooted tree given by its root and parent map.

    ``parent`` maps every non-root vertex to its parent; the edge set is
    derived (one edge per non-root vertex).  Instances are immutable after
    construction.  The constructor validates eagerly, and builds the child
    lists to check every parent; only a tree derived from an already valid
    one (``_derived_weighted_tree``) skips the walk that proves the parent
    map acyclic, and builds its child lists on first read, when something
    walks it.
    """

    root: Vertex
    parent: Mapping[Vertex, Vertex]

    def __post_init__(self):
        object.__setattr__(self, "parent", dict(self.parent))
        if self.root in self.parent:
            raise StructureError(f"root {self.root!r} must not have a parent")
        # built eagerly, to check that every parent is a vertex, and stored
        # where ``_children`` caches its value
        object.__setattr__(self, "_children", _child_lists(self.root, self.parent))
        # one walk up from each vertex proves that it reaches the root
        # (connected, acyclic); it stops at the first vertex already reached
        reached = {self.root}
        for v in self.parent:
            pending: dict[Vertex, None] = {}
            cur = v
            while cur not in reached:
                if cur in pending:
                    raise StructureError(f"cycle through {cur!r}")
                pending[cur] = None
                cur = self.parent[cur]
            reached.update(pending)

    @cached_property
    def _children(self) -> dict:
        return _child_lists(self.root, self.parent)

    # -- basic sets ---------------------------------------------------------

    @property
    def vertices(self) -> frozenset[Vertex]:
        return frozenset((self.root, *self.parent))

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.parent)

    def children(self, v: Vertex) -> tuple[Vertex, ...]:
        self._check_vertex(v)
        return tuple(self._children[v])

    def _check_vertex(self, v: Vertex) -> None:
        if v != self.root and v not in self.parent:
            raise StructureError(f"unknown vertex {v!r}")

    # -- tree order ---------------------------------------------------------

    def root_path(self, v: Vertex) -> tuple[Vertex, ...]:
        """Vertices from ``v`` up to and including the root."""
        self._check_vertex(v)
        path = [v]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return tuple(path)

    # -- traversal ----------------------------------------------------------

    def preorder(self) -> Iterator[Vertex]:
        stack = [self.root]
        while stack:
            v = stack.pop()
            yield v
            stack.extend(reversed(self._children[v]))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"root": self.root, "parents": dict(sorted(self.parent.items()))}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RootedTree":
        if not isinstance(data, dict):
            raise StructureError(f"a tree file must hold a JSON object, not {_json_kind(data)}")
        try:
            root = data["root"]
        except KeyError as exc:
            raise StructureError(f"missing tree field {exc}") from exc
        parents = json_object(data, "parents")
        for v in [root, *parents.values()]:
            if not isinstance(v, str):
                raise StructureError(f"vertex names must be strings, not {json.dumps(v)}")
        return cls(root=root, parent=parents)


def _child_lists(root: Vertex, parent: Mapping[Vertex, Vertex]) -> dict:
    """Each vertex's children, sorted; every parent must be a vertex."""
    children: dict[Vertex, list[Vertex]] = {root: []}
    for child in parent:
        children[child] = []
    for child, par in parent.items():
        if par not in children:
            raise StructureError(f"parent {par!r} of {child!r} is not a vertex")
        children[par].append(child)
    for cs in children.values():
        cs.sort()
    return children


@dataclass(frozen=True)
class WeightedTree:
    """A rooted tree with a nonnegative integer weight on each vertex."""

    tree: RootedTree
    weight: Mapping[Vertex, int]

    def __post_init__(self):
        object.__setattr__(self, "weight", dict(self.weight))
        verts = self.tree.vertices
        if set(self.weight) != verts:
            raise StructureError("weight map must cover exactly the vertex set")
        for v, w in self.weight.items():
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise StructureError(f"weight of {v!r} must be a nonnegative "
                                     f"integer, not {w!r}")

    @property
    def root(self) -> Vertex:
        return self.tree.root

    def total_weight(self) -> int:
        return sum(self.weight.values())

    def positive_vertices(self) -> frozenset[Vertex]:
        return frozenset(v for v, w in self.weight.items() if w > 0)

    def is_stable(self) -> bool:
        """Every weight-0 non-root vertex carries at least three edges
        (its parent edge plus two children); the root is exempt."""
        for v in self.tree.vertices:
            if v == self.root or self.weight[v] > 0:
                continue
            if 1 + len(self.tree.children(v)) < 3:
                return False
        return True

    def to_json_dict(self) -> dict:
        d = self.tree.to_json_dict()
        d["weights"] = dict(sorted(self.weight.items()))
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightedTree":
        tree = RootedTree.from_json_dict(data)
        out = cls(tree=tree, weight=json_object(data, "weights"))
        if out.total_weight() >= 10 ** MAX_DIGITS:
            raise StructureError(f"the total weight has more than {MAX_DIGITS} digits")
        return out


def _derived_weighted_tree(root: Vertex, parent: dict, weight: dict) -> WeightedTree:
    """A weighted tree from maps derived from a valid tree, taken as they
    are: the parent checks, the acyclicity walk and the weight checks are
    skipped, and the child lists are built on first read, so a contraction
    that nothing walks never builds them.  The caller owns the dicts and
    must not change them afterwards."""
    tree = object.__new__(RootedTree)
    object.__setattr__(tree, "root", root)
    object.__setattr__(tree, "parent", parent)
    out = object.__new__(WeightedTree)
    object.__setattr__(out, "tree", tree)
    object.__setattr__(out, "weight", weight)
    return out


def _json_kind(value) -> str:
    """The JSON type of a decoded value, with its article."""
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    kinds = {dict: "an object", list: "an array", str: "a string"}
    return kinds.get(type(value), "null")


def json_object(data: dict, field: str) -> dict:
    """A tree-file field that maps vertices to values, checked to be a JSON
    object."""
    try:
        value = data[field]
    except KeyError as exc:
        raise StructureError(f"missing tree field {exc}") from exc
    if not isinstance(value, dict):
        raise StructureError(f"tree field {field!r} must be a JSON object, "
                             f"not {_json_kind(value)}")
    return value


def _dot_id(text: object) -> str:
    """A DOT quoted string: ``"`` and ``\\`` are escaped."""
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(wt: WeightedTree, levels: Mapping[Vertex, object]) -> str:
    """Emit a graphviz digraph with dotted per-level rails."""
    lines = ["digraph leveltree {", "  rankdir=TB;"]
    by_level: dict[object, list[Vertex]] = {}
    for v, lv in levels.items():
        by_level.setdefault(lv, []).append(v)
    for lv in sorted(by_level, reverse=True):
        vs = " ".join(_dot_id(v) for v in sorted(by_level[lv]))
        lines.append(f"  {{ rank=same; {_dot_id(f'rail_{lv}')} "
                     f"[shape=plaintext label={_dot_id(lv)}]; {vs} }}")
    rails = [_dot_id(f"rail_{lv}") for lv in sorted(by_level, reverse=True)]
    if len(rails) > 1:
        lines.append("  " + " -> ".join(rails) + " [style=dotted arrowhead=none];")
    for v in sorted(wt.tree.vertices):
        shape = "circle" if wt.weight[v] == 0 else "doublecircle"
        lines.append(f"  {_dot_id(v)} [shape={shape} label={_dot_id(f'{v}:{wt.weight[v]}')}];")
    for child in sorted(wt.tree.parent):
        lines.append(f"  {_dot_id(wt.tree.parent[child])} -> {_dot_id(child)} "
                     f"[label={_dot_id(child)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_json(wt: WeightedTree, levels: Mapping[Vertex, object]) -> str:
    d = wt.to_json_dict()
    d["levels"] = {v: str(levels[v]) for v in sorted(levels)}
    return json.dumps(d, sort_keys=True, indent=2) + "\n"
