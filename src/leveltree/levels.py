"""Weighted level trees and their derived index data.

A level map assigns a nonpositive rational to each vertex, strictly
decreasing away from the root, with the root alone at level 0.  From the
levels and weights we derive

* ``m`` -- the highest level carrying positive weight,
* the *hat* edges (upper endpoint strictly above ``m``) and their edge level,
* the cross-sections ``E_i`` of edges spanning the gap above level ``i``,
* the index set ``I = I_plus | I_m | I_minus`` (levels in ``[m, 0)``,
  hat edges dropping below ``m``, and non-hat edges),
* ascent sequences through a chosen family of special vertices.

Only the order of the levels matters, and the equivalence relation below
quotients out relabelings.  So levels are exact ``Fraction`` values at the
boundary -- in level maps, labels, JSON and CLI output -- while the derived
data is computed on integer order ranks: rank 0 is level 0 and ranks grow
downwards through the occupied levels.  Each tree builds its rank tables
once, on first use, in its memo: the occupied levels and every vertex's
rank (``WeightedLevelTree.ranks``), each hat edge's span as a bitmask over
ranks (``LevelData.span``), and the cross-sections.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DomainError, StructureError
from .tree import Edge, RootedTree, Vertex, WeightedTree, json_object

Level = Fraction
# An index subset mixes levels (Fraction) and edges (str).
IndexLabel = object
IndexSubset = frozenset
# The largest index set whose 2^|I| subsets are enumerated: on path trees
# ``verify --suite charts`` takes 1.5 s at |I| = 8 and 11 s at |I| = 10
# (2-vCPU host).
MAX_SUBSET_LABELS = 10


def as_level(x) -> Level:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class LevelRanks:
    """The level map as integer order positions.

    ``levels[k]`` is the occupied level of rank ``k``, descending from
    ``levels[0] == 0``; ``of_level`` inverts it; ``of_vertex`` gives each
    vertex the rank of its level; ``at[k]`` lists the vertices of rank ``k``
    in sorted order.  A level above another has the smaller rank.
    """

    levels: tuple[Level, ...]
    of_level: Mapping[Level, int]
    of_vertex: Mapping[Vertex, int]
    at: tuple[tuple[Vertex, ...], ...]


@dataclass(frozen=True)
class WeightedLevelTree:
    base: WeightedTree
    level: Mapping[Vertex, Level]

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})
        tree = self.base.tree
        if set(self.level) != tree.vertices:
            raise StructureError("level map must cover exactly the vertex set")
        lv = {v: as_level(x) for v, x in self.level.items()}
        object.__setattr__(self, "level", lv)
        # compared as integers: a Fraction's denominator is positive, so its
        # sign is its numerator's, and p/q > r/s iff p*s > r*q
        for v, x in lv.items():
            if x.numerator > 0:
                raise StructureError(f"level of {v!r} must be nonpositive")
            if x.numerator == 0 and v != tree.root:
                raise StructureError(f"only the root may sit at level 0, not {v!r}")
        if lv[tree.root].numerator != 0:
            raise StructureError("root must sit at level 0")
        for child, par in tree.parent.items():
            above, below = lv[par], lv[child]
            if not above.numerator * below.denominator > below.numerator * above.denominator:
                raise StructureError(
                    f"levels must strictly decrease along edges ({par!r} -> {child!r})"
                )

    # -- conveniences ---------------------------------------------------

    @property
    def tree(self) -> RootedTree:
        return self.base.tree

    @property
    def weight(self) -> Mapping[Vertex, int]:
        return self.base.weight

    @property
    def root(self) -> Vertex:
        return self.base.root

    def edges(self) -> frozenset[Edge]:
        return self.base.tree.edges

    def ranks(self) -> LevelRanks:
        """The rank table of the level map, built once on first use."""
        memo = self._memo
        if "ranks" not in memo:
            by_level: dict[Level, list[Vertex]] = {}
            for v, x in self.level.items():
                by_level.setdefault(x, []).append(v)
            ordered = sorted(by_level.items(), key=lambda item: item[0], reverse=True)
            levels = tuple(x for x, _ in ordered)
            of_vertex = {v: k for k, (_, vs) in enumerate(ordered) for v in vs}
            memo["ranks"] = LevelRanks(
                levels=levels, of_level={x: k for k, x in enumerate(levels)},
                of_vertex=of_vertex, at=tuple(tuple(sorted(vs)) for _, vs in ordered))
        return memo["ranks"]

    def occupied_levels(self) -> tuple[Level, ...]:
        """All occupied levels, descending from 0."""
        return self.ranks().levels

    def level_rank(self, x) -> int:
        """The rank of an occupied level."""
        k = self.ranks().of_level.get(as_level(x))
        if k is None:
            raise DomainError(f"level {x} is not occupied")
        return k

    def levels_in(self, lo: Level, hi: Level, include_lo: bool) -> frozenset[Level]:
        """Occupied levels in ``[lo, hi)`` or ``(lo, hi)``; both bounds must
        be occupied levels."""
        top, bottom = self.level_rank(hi), self.level_rank(lo)
        return frozenset(self.ranks().levels[top + 1:bottom + 1 if include_lo else bottom])

    def to_json_dict(self) -> dict:
        d = self.base.to_json_dict()
        d["levels"] = {v: str(self.level[v]) for v in sorted(self.level)}
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightedLevelTree":
        base = WeightedTree.from_json_dict(data)
        raw = json_object(data, "levels")
        levels = {}
        for v, s in raw.items():
            # a JSON number would be read through a binary float
            if not isinstance(s, str):
                raise StructureError(f"level of {v!r} must be a string such as "
                                     f"\"-1/2\", not {json.dumps(s)}")
            try:
                levels[v] = Fraction(s)
            except (ValueError, ZeroDivisionError) as exc:
                raise StructureError(f"bad level value: {exc}") from exc
        return cls(base=base, level=levels)


def make_level_tree(root: Vertex, parent: Mapping[Vertex, Vertex],
                    weight: Mapping[Vertex, int], level: Mapping[Vertex, object]) -> WeightedLevelTree:
    """Convenience constructor used heavily in tests and fixtures."""
    base = WeightedTree(tree=RootedTree(root=root, parent=dict(parent)), weight=dict(weight))
    return WeightedLevelTree(base=base, level={v: as_level(x) for v, x in level.items()})


# ---------------------------------------------------------------------------
# Derived level data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelData:
    """``m`` and the hat edges.  ``m_rank`` is the rank of ``m``; a hat
    edge's ``edge_rank`` is the rank of its edge level, and its ``span`` is
    the bitmask of the ranks of the levels it crosses (those of
    ``edge_span``)."""

    m: Level
    hat_edges: frozenset[Edge]
    edge_level: Mapping[Edge, Level]
    occupied_levels: tuple[Level, ...]
    m_rank: int
    edge_rank: Mapping[Edge, int]
    span: Mapping[Edge, int]


def level_data(t: WeightedLevelTree) -> LevelData:
    """``m``, hat edges and their levels; errors if every weight is zero."""
    memo = t._memo
    if "level_data" in memo:
        return memo["level_data"]
    positive = t.base.positive_vertices()
    if not positive:
        raise DomainError("no positively weighted vertex: m is undefined")
    ranks = t.ranks()
    rank = ranks.of_vertex
    m_rank = min(rank[v] for v in positive)
    parent = t.tree.parent
    edge_rank = {e: min(rank[e], m_rank) for e, p in parent.items() if rank[p] < m_rank}
    out = LevelData(
        m=ranks.levels[m_rank], hat_edges=frozenset(edge_rank),
        edge_level={e: ranks.levels[k] for e, k in edge_rank.items()},
        occupied_levels=ranks.levels, m_rank=m_rank, edge_rank=edge_rank,
        # the ranks strictly below the upper endpoint, down to the edge level
        span={e: (2 << k) - (2 << rank[parent[e]]) for e, k in edge_rank.items()})
    memo["level_data"] = out
    return out


def level_mask(t: WeightedLevelTree, levels: Iterable[Level]) -> int:
    """The bitmask over ranks of a set of occupied levels, e.g. the level
    part of an index subset."""
    of_level = t.ranks().of_level
    mask = 0
    for x in levels:
        mask |= 1 << of_level[x]
    return mask


def level_successor(t: WeightedLevelTree, i) -> Level:
    """The occupied level immediately above ``i``."""
    k = t.ranks().of_level.get(as_level(i))
    if not k:  # unoccupied, or level 0
        raise DomainError(f"level {i} has no successor (unoccupied or zero)")
    return t.ranks().levels[k - 1]


def edge_span(t: WeightedLevelTree, e: Edge) -> frozenset[Level]:
    """Occupied levels in ``[edge_level(e), level(v_e^+))`` for a hat edge:
    the levels whose gap the edge crosses."""
    memo = t._memo
    if "spans" not in memo:
        data = level_data(t)
        levels, rank = t.ranks().levels, t.ranks().of_vertex
        memo["spans"] = {e: frozenset(levels[rank[t.tree.parent[e]] + 1:k + 1])
                         for e, k in data.edge_rank.items()}
    spans = memo["spans"]
    if e not in spans:
        raise DomainError(f"edge {e!r} has no span: it is not a hat edge")
    return spans[e]


def cross_section(t: WeightedLevelTree, i) -> frozenset[Edge]:
    """Edges spanning the gap above level ``i``: ``edge_level(e) <= i < level(v_e^+)``."""
    memo = t._memo
    if "sections" not in memo:
        data = level_data(t)
        levels = t.ranks().levels
        memo["sections"] = {
            levels[k]: frozenset(e for e, span in data.span.items() if span >> k & 1)
            for k in range(1, data.m_rank + 1)}
    section = memo["sections"].get(as_level(i))
    if section is None:
        raise DomainError(f"level {i} is not an occupied level in [m, 0)")
    return section


@dataclass(frozen=True)
class IndexPartition:
    """The index set attached to a weighted level tree, split into its parts:
    occupied levels in ``[m, 0)``, hat edges dropping below ``m``, and the
    remaining (non-hat) edges."""

    i_plus: frozenset[Level]
    i_m: frozenset[Edge]
    i_minus: frozenset[Edge]

    def labels(self) -> frozenset:
        return self.i_plus | self.i_m | self.i_minus

    def __len__(self) -> int:
        return len(self.i_plus) + len(self.i_m) + len(self.i_minus)

    def split(self, subset: Iterable) -> tuple[frozenset, frozenset, frozenset]:
        """Partition an index subset into its plus/m/minus parts,
        rejecting labels outside the index set."""
        sub = frozenset(subset)
        bad = sub - self.labels()
        if bad:
            raise DomainError(f"labels outside the index set: {sorted(map(str, bad))}")
        return (sub & self.i_plus, sub & self.i_m, sub & self.i_minus)

    def subsets(self) -> list[frozenset]:
        """Every index subset, built up label by label with the labels sorted
        by ``str``; refused up front above ``MAX_SUBSET_LABELS`` labels."""
        if len(self) > MAX_SUBSET_LABELS:
            raise DomainError(f"the index set has {len(self)} labels; subsets are "
                              f"enumerated only up to {MAX_SUBSET_LABELS} labels")
        out = [frozenset()]
        for lab in sorted(self.labels(), key=str):
            out += [s | {lab} for s in out]
        return out


def index_partition(t: WeightedLevelTree) -> IndexPartition:
    memo = t._memo
    if "index_partition" in memo:
        return memo["index_partition"]
    data = level_data(t)
    rank = t.ranks().of_vertex
    out = IndexPartition(
        i_plus=frozenset(data.occupied_levels[1:data.m_rank + 1]),
        i_m=frozenset(e for e in data.hat_edges if rank[e] > data.m_rank),
        i_minus=t.tree.edges - data.hat_edges)
    memo["index_partition"] = out
    return out


# ---------------------------------------------------------------------------
# Special vertices and ascent sequences
# ---------------------------------------------------------------------------

SpecialMap = Mapping[Level, Edge]  # level in I_plus -> its special edge


def special_choices(t: WeightedLevelTree) -> dict[Level, tuple[Edge, ...]]:
    """For each level of ``I_plus``, the edges whose lower endpoint sits there."""
    ranks = t.ranks()
    return {ranks.levels[k]: ranks.at[k] for k in range(1, level_data(t).m_rank + 1)}


def default_special(t: WeightedLevelTree) -> dict[Level, Edge]:
    """Lexicographically smallest vertex at each level of ``I_plus``."""
    return {i: choices[0] for i, choices in special_choices(t).items()}


def validate_special(t: WeightedLevelTree, special: SpecialMap) -> None:
    part = index_partition(t)
    if set(special) != set(part.i_plus):
        raise DomainError("special map must cover exactly the levels of I_plus")
    for i, e in special.items():
        if e not in t.tree.edges or t.level[e] != i:
            raise DomainError(f"special edge {e!r} does not end at level {i}")


def ascent_sequence(t: WeightedLevelTree, special: SpecialMap, i) -> tuple[Level, ...]:
    """The strictly increasing sequence ``i = i[0] < i[1] < ...`` obtained by
    repeatedly jumping to the level of the current special vertex's parent,
    terminating at 0."""
    i = as_level(i)
    validate_special(t, special)
    if i not in special:
        raise DomainError(f"level {i} is not an I_plus level")
    seq = [i]
    while seq[-1] != 0:
        v = special[seq[-1]]
        parent = t.tree.parent[v]
        nxt = t.level[parent]
        if not nxt > seq[-1]:
            raise DomainError("ascent did not increase; invalid special map")
        seq.append(nxt)
    return tuple(seq)


# ---------------------------------------------------------------------------
# Equivalence of weighted level trees
# ---------------------------------------------------------------------------

def is_equivalent(t: WeightedLevelTree, t2: WeightedLevelTree) -> bool:
    """Same weighted tree, and the level order on vertices at or above ``m(t)``
    is preserved: equal levels stay equal, strict drops stay strict.

    On ranks: from the bottom of ``t`` up, each class of ``t`` at or above
    ``m`` must take a single rank in ``t2``, strictly above every ``t2``
    rank of the lower classes of ``t``.
    """
    if t.base != t2.base:
        return False
    try:
        m_rank = level_data(t).m_rank
    except DomainError:
        return False
    at = t.ranks().at
    rank2 = t2.ranks().of_vertex
    lowest = len(t2.ranks().levels)  # below every rank of t2
    for k in range(len(at) - 1, -1, -1):
        here = [rank2[v] for v in at[k]]
        top = min(here)
        if k <= m_rank and not (top == max(here) and top < lowest):
            return False
        lowest = min(lowest, top)
    return True


def equiv_key(t: WeightedLevelTree):
    """A canonical key equal for two trees iff they are equivalent: the
    weighted tree together with the ordered partition of the at-or-above-``m``
    vertices by level."""
    ordered = t.ranks().at[:level_data(t).m_rank + 1]
    base_key = (t.root, tuple(sorted(t.tree.parent.items())),
                tuple(sorted(t.weight.items())))
    return (base_key, ordered)


def canonical_form(t: WeightedLevelTree) -> WeightedLevelTree:
    """The class representative with at-or-above-``m`` levels renumbered to
    ``0, -1, -2, ...`` and every lower vertex placed by its depth below the
    ``m`` frontier (``m-1``, ``m-2``, ... along chains)."""
    m_rank = level_data(t).m_rank
    rank = t.ranks().of_vertex
    new_level: dict[Vertex, Level] = {}
    for v in t.tree.preorder():  # parents before children
        if rank[v] <= m_rank:
            new_level[v] = Fraction(-rank[v])
        else:
            par = t.tree.parent[v]
            base = new_level[par] if rank[par] > m_rank else Fraction(-m_rank)
            new_level[v] = base - 1
    return WeightedLevelTree(base=t.base, level=new_level)


def phi_bijection(t: WeightedLevelTree, t2: WeightedLevelTree, subset: Iterable) -> frozenset:
    """Transport an index subset along an equivalence: levels move through the
    vertex-level correspondence, edge labels stay put."""
    if not is_equivalent(t, t2):
        raise DomainError("phi is only defined between equivalent trees")
    plus, mid, minus = index_partition(t).split(subset)
    ranks, ranks2 = t.ranks(), t2.ranks()
    moved = set()
    for i in plus:
        v = ranks.at[ranks.of_level[i]][0]  # any vertex at level i
        moved.add(ranks2.levels[ranks2.of_vertex[v]])
    return frozenset(moved) | mid | minus
