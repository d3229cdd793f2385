"""Weighted level trees and their derived index data.

A level map assigns a nonpositive rational to each vertex, strictly
decreasing away from the root, with the root alone at level 0.  From the
levels and weights we derive

* ``m`` -- the highest level carrying positive weight,
* the *hat* edges (upper endpoint strictly above ``m``) and their edge level,
* the cross-sections ``E_i`` of edges spanning the gap above level ``i``,
  one rank table (``LevelData.sections``),
* the index set ``I = I_plus | I_m | I_minus`` (levels in ``[m, 0)``,
  hat edges dropping below ``m``, and non-hat edges),
* ascent sequences through a chosen family of special vertices.

Only the order of the levels matters, and the equivalence relation below
quotients out relabelings.  So levels are exact ``Fraction`` values at the
boundary -- in level maps, labels, JSON and CLI output -- while the derived
data is computed on integer order ranks: rank 0 is level 0 and ranks grow
downwards through the occupied levels.  Each tree keeps its rank tables in
its memo: the occupied levels and every vertex's rank
(``WeightedLevelTree.ranks``), each hat edge's span as a bitmask over ranks
(``LevelData.span``), the cross-section of each rank
(``LevelData.sections``, built on first read) and the default special edges
by rank.  They are built on first use, except that ``contract`` hands a
contraction its rank table, built in its one pass over the parent tree's
plan: the contraction's levels are levels of its parent tree, so its table
is the parent's, restricted to the surviving ranks, with each rank's
vertices read off the parent's sorted vertex list.

Trees come from two paths.  The public constructors -- used for file and
CLI input, ``make_level_tree``, relevelings, ``canonical_form`` and the
blowup's reconstructed trees -- validate every level with integer
comparisons.  ``_derived_level_tree`` takes the maps of a tree that is valid
by construction as they are: contractions and the class representatives of
``enumerate.gen_level_trees``.  A proven equivalence ``t ~ t2`` is kept in
``t``'s memo, so ``phi_bijection`` proves it once per partner tree.

Labels become ranks only here.  An index subset is an ``IndexSubset``, a
bitmask over its partition's label order (levels at the bits of their ranks,
then the edges) that stores no labels; iterating it reads them off the mask.
``IndexPartition.read`` turns labels into one where a subset enters, and
returns one of its own partition as it is; the enumerations, ``joined`` and
``phi_bijection`` work on masks alone.  ``special_by_rank`` reads a special
map (level -> edge) into one special edge per rank; ``level_successor``,
``cross_section`` and ``ascent_sequence`` look their one level up by rank.
The other modules read an ``IndexSubset``'s fields, never the mask layout.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .errors import DomainError, StructureError
from .tree import MAX_DIGITS, Edge, RootedTree, Vertex, WeightedTree, json_object

Level = Fraction
# The largest index set whose 2^|I| subsets are enumerated.  The stratum
# transition compares one readout family per pair of a subset and a level
# part of its contraction, 2^|edge labels| * 3^|level labels| in all; on path
# trees, whose labels are all levels, ``verify --suite charts`` takes 0.7 s
# at |I| = 8 and 6.4-7.5 s at |I| = 10 (2-vCPU host).
MAX_SUBSET_LABELS = 10


_LEVEL_TEXT = re.compile(r"(?a)(?P<sign>[-+]?)(?:(?P<num>\d+)/(?P<den>0*[1-9]\d*)|(?=\.?\d)"
                         r"(?P<int>\d*)(?:\.(?P<frac>\d*))?(?:[eE](?P<exp>[-+]?\d{1,9}))?)")


def as_level(x) -> Level:
    """An exact level from a ``Fraction``, an ``int`` or a string such as
    ``"-1/2"`` or ``"-1.5e2"``; a float (already rounded to binary), a bool and
    malformed text are refused, and so is text whose numerator or denominator
    would have more than ``MAX_DIGITS`` digits, before any power of 10 is built."""
    if isinstance(x, str):
        text = x.strip()
        m = _LEVEL_TEXT.fullmatch(text)
        if m is not None:
            sign, num, den, whole, frac, exp = m.groups(default="")
            shift = int(exp or 0) - len(frac)  # the power of 10 to scale by
            num, den = num or whole + frac, den or "1"
            up, down = max(shift, 0), max(-shift, 0)
            if max(len(num) + up, len(den) + down) <= MAX_DIGITS:
                return Fraction(int(sign + num) * 10 ** up, int(den) * 10 ** down)
        shown = repr(text if len(text) <= 40 else text[:40] + "...")
        why = (f"more than {MAX_DIGITS} digits" if m
               else "expected an exact rational such as -1 or -3/2")
        raise DomainError(f"bad level {shown}: {why}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or not isinstance(x, int):
        raise StructureError(f"level {x!r} must be an int, a Fraction or a string "
                             "such as \"-1/2\"")
    return Fraction(x)


@dataclass(frozen=True)
class LevelRanks:
    """The level map as integer order positions.

    ``levels[k]`` is the occupied level of rank ``k``, descending from
    ``levels[0] == 0``; ``of_level`` inverts it; ``of_vertex`` gives each
    vertex the rank of its level; ``at[k]`` lists the vertices of rank ``k``
    in sorted order.  A level above another has the smaller rank.
    """

    levels: tuple[Level, ...]
    of_vertex: Mapping[Vertex, int]
    at: tuple[tuple[Vertex, ...], ...]

    @cached_property
    def of_level(self) -> Mapping[Level, int]:
        # built on first use: hashing a Fraction is slow, and most derived
        # trees never look a level up
        return {x: k for k, x in enumerate(self.levels)}


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
                levels=levels, of_vertex=of_vertex,
                at=tuple(tuple(sorted(vs)) for _, vs in ordered))
        return memo["ranks"]

    def to_json_dict(self) -> dict:
        d = self.base.to_json_dict()
        d["levels"] = {v: str(self.level[v]) for v in sorted(self.level)}
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightedLevelTree":
        base = WeightedTree.from_json_dict(data)
        raw = json_object(data, "levels")
        for v, s in raw.items():
            # a JSON number would be read through a binary float
            if not isinstance(s, str):
                raise StructureError(f"level of {v!r} must be a string such as "
                                     f"\"-1/2\", not {json.dumps(s)}")
        return cls(base=base, level=raw)


def _derived_level_tree(base: WeightedTree, level: dict,
                       ranks: LevelRanks | None = None) -> WeightedLevelTree:
    """A level tree from a level map known to be valid on ``base``, taken as
    it is (``Fraction`` values, no checks), with its rank table when the
    caller has it.  The caller owns ``level`` and must not change it."""
    out = object.__new__(WeightedLevelTree)
    object.__setattr__(out, "base", base)
    object.__setattr__(out, "level", level)
    object.__setattr__(out, "_memo", {} if ranks is None else {"ranks": ranks})
    return out


def make_level_tree(root: Vertex, parent: Mapping[Vertex, Vertex],
                    weight: Mapping[Vertex, int], level: Mapping[Vertex, object]) -> WeightedLevelTree:
    """Convenience constructor used heavily in tests and fixtures."""
    base = WeightedTree(tree=RootedTree(root=root, parent=dict(parent)), weight=dict(weight))
    return WeightedLevelTree(base=base, level=dict(level))


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
    m_rank: int
    edge_rank: Mapping[Edge, int]
    span: Mapping[Edge, int]

    @cached_property
    def sections(self) -> tuple[frozenset[Edge], ...]:
        """The cross-section of each rank ``0..m_rank``: the hat edges whose
        span holds the rank (none at rank 0), built on first use."""
        out: list[list[Edge]] = [[] for _ in range(self.m_rank + 1)]
        for e, span in self.span.items():
            while span:
                low = span & -span
                out[low.bit_length() - 1].append(e)
                span ^= low
        return tuple(map(frozenset, out))


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
        m_rank=m_rank, edge_rank=edge_rank,
        # the ranks strictly below the upper endpoint, down to the edge level
        span={e: (2 << k) - (2 << rank[parent[e]]) for e, k in edge_rank.items()})
    memo["level_data"] = out
    return out


def level_successor(t: WeightedLevelTree, i) -> Level:
    """The occupied level immediately above ``i``."""
    k = t.ranks().of_level.get(as_level(i))
    if not k:  # unoccupied, or level 0
        raise DomainError(f"level {i} has no successor (unoccupied or zero)")
    return t.ranks().levels[k - 1]


def edge_span(t: WeightedLevelTree, e: Edge) -> frozenset[Level]:
    """Occupied levels in ``[edge_level(e), level(v_e^+))`` for a hat edge:
    the levels whose gap the edge crosses, read off its ``LevelData.span``."""
    span = level_data(t).span.get(e)
    if span is None:
        raise DomainError(f"edge {e!r} has no span: it is not a hat edge")
    return frozenset(x for k, x in enumerate(t.ranks().levels) if span >> k & 1)


def cross_section(t: WeightedLevelTree, i) -> frozenset[Edge]:
    """Edges spanning the gap above level ``i``: ``edge_level(e) <= i <
    level(v_e^+)``, read off ``LevelData.sections`` by the rank of ``i``."""
    k = index_partition(t).plus_rank.get(as_level(i))
    if k is None:
        raise DomainError(f"level {i} is not an occupied level in [m, 0)")
    return level_data(t).sections[k]


class IndexSubset:
    """An index subset as its partition reads it: the partition (``part``),
    the bitmask of its labels over the partition's label order (``mask``)
    and its level part as the bitmask of its ranks (``plus_mask``).  It
    stores no labels: iterating it reads them off the mask, in label order.
    ``IndexPartition.read``, the partition's enumerations, ``joined`` and
    ``phi_bijection`` make one."""

    __slots__ = ("part", "mask", "plus_mask")

    def __init__(self, part: "IndexPartition", mask: int):
        self.part, self.mask = part, mask
        self.plus_mask = mask & ((2 << len(part.plus_rank)) - 2)

    def __iter__(self):
        return self.part._decode(self.mask)

    @property
    def i_m(self) -> frozenset:
        return self.part.i_m.intersection(self.part._decode(self.mask ^ self.plus_mask))

    @property
    def i_minus(self) -> frozenset:
        return self.part.i_minus.intersection(self.part._decode(self.mask ^ self.plus_mask))

    def joined(self, levels: "IndexSubset", lift) -> "IndexSubset":
        """This subset with ``levels`` added: a level part read on a tree
        whose level rank ``j`` is rank ``lift[j]`` here, so that its labels
        are levels of this tree too -- a contraction, with ``lift`` its
        ``ContractionResult.used``."""
        mask, plus = self.mask, levels.plus_mask
        for j in range(1, plus.bit_length()):
            if plus >> j & 1:
                mask |= 1 << lift[j]
        return IndexSubset(self.part, mask)


@dataclass(frozen=True)
class IndexPartition:
    """The index set attached to a weighted level tree, split into its parts:
    occupied levels in ``[m, 0)``, hat edges dropping below ``m``, and the
    remaining (non-hat) edges.

    It fixes one order of the labels (``order``), the bits of an
    ``IndexSubset``'s mask: the level of rank ``k`` at bit ``k``
    (``plus_rank``, ranks ``1..m_rank``), then the ``I_m`` edges and the
    ``I_minus`` edges, each sorted (``edge_bit``).  Equivalent trees share
    the order (their ranks agree up to ``m`` and their edge parts are
    equal), so a mask moves between them as it is."""

    i_plus: frozenset[Level]
    i_m: frozenset[Edge]
    i_minus: frozenset[Edge]
    plus_rank: Mapping[Level, int] = field(compare=False, repr=False)

    @cached_property
    def edge_bit(self) -> Mapping[Edge, int]:
        # built on first use: most contracted trees never read a label
        first = len(self.plus_rank) + 1
        return {e: first + n for n, e in enumerate(sorted(self.i_m) + sorted(self.i_minus))}

    def labels(self) -> frozenset:
        return self.i_plus | self.i_m | self.i_minus

    def __len__(self) -> int:
        return len(self.i_plus) + len(self.i_m) + len(self.i_minus)

    @cached_property
    def order(self) -> tuple:
        return (None, *self.plus_rank, *self.edge_bit)  # the labels by bit: each dict in bit order

    def _decode(self, mask: int):
        while mask:
            low = mask & -mask
            yield self.order[low.bit_length() - 1]
            mask ^= low

    def read(self, subset: Iterable) -> IndexSubset:
        """The index subset with these labels, read by this partition: the
        place where labels become ranks.  An ``IndexSubset`` this partition
        made comes back as it is; any other iterable, an ``IndexSubset`` of
        another partition too, is read by its labels, rejecting labels
        outside the index set."""
        if type(subset) is IndexSubset and subset.part is self:
            return subset
        mask, bad = 0, set()
        for lab in subset:
            k = self.plus_rank.get(lab)
            if k is None:
                k = self.edge_bit.get(lab)
                if k is None:
                    bad.add(lab)
                    continue
            mask |= 1 << k
        if bad:
            raise DomainError(f"labels outside the index set: {sorted(map(str, bad))}")
        return IndexSubset(self, mask)

    def subsets(self) -> list[IndexSubset]:
        """Every index subset, built up label by label with the labels sorted
        by ``str``; refused up front above ``MAX_SUBSET_LABELS`` labels."""
        return self._power_set([*self.plus_rank.items(), *self.edge_bit.items()])

    def level_parts(self) -> list[IndexSubset]:
        """Every subset of ``I_plus``, the level parts of the index subsets,
        in the order and under the bound of ``subsets``."""
        return self._power_set(self.plus_rank.items())

    def _power_set(self, bits: Iterable) -> list[IndexSubset]:
        if len(self) > MAX_SUBSET_LABELS:
            raise DomainError(f"the index set has {len(self)} labels; subsets are "
                              f"enumerated only up to {MAX_SUBSET_LABELS} labels")
        masks = [0]
        for _, k in sorted(bits, key=lambda item: str(item[0])):
            masks += [mask | 1 << k for mask in masks]
        return [IndexSubset(self, mask) for mask in masks]


def index_partition(t: WeightedLevelTree) -> IndexPartition:
    memo = t._memo
    if "index_partition" in memo:
        return memo["index_partition"]
    data = level_data(t)
    ranks = t.ranks()
    plus_rank = {ranks.levels[k]: k for k in range(1, data.m_rank + 1)}
    out = IndexPartition(
        i_plus=frozenset(plus_rank),
        i_m=frozenset(e for e in data.hat_edges if ranks.of_vertex[e] > data.m_rank),
        i_minus=t.tree.edges - data.hat_edges, plus_rank=plus_rank)
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


def default_special_by_rank(t: WeightedLevelTree) -> tuple:
    """The default special edges by rank, as ``special_by_rank`` reads a map:
    the lexicographically smallest vertex at each level of ``I_plus``, read
    off the rank table without a level lookup and kept in ``t``'s memo."""
    memo = t._memo
    if "default_special" not in memo:
        at = t.ranks().at
        memo["default_special"] = (None,) + tuple(
            at[k][0] for k in range(1, level_data(t).m_rank + 1))
    return memo["default_special"]


def special_by_rank(t: WeightedLevelTree, special: SpecialMap) -> tuple:
    """The special map checked and read by rank: ``(None, e_1, ..., e_m)``
    with ``e_k`` the special edge of the level of rank ``k``."""
    plus_rank = index_partition(t).plus_rank
    # one probe per level: as many levels as I_plus, each one of them
    ranks = [plus_rank.get(i) for i in special] if len(special) == len(plus_rank) else [None]
    if None in ranks:
        raise DomainError("special map must cover exactly the levels of I_plus")
    of_vertex = t.ranks().of_vertex
    at = [None] * (len(plus_rank) + 1)
    for k, (i, e) in zip(ranks, special.items()):
        if of_vertex.get(e) != k:
            raise DomainError(f"special edge {e!r} does not end at level {i}")
        at[k] = e
    return tuple(at)


def ascent_sequence(t: WeightedLevelTree, special: SpecialMap, i) -> tuple[Level, ...]:
    """The strictly increasing sequence ``i = i[0] < i[1] < ...`` obtained by
    repeatedly jumping to the level of the current special vertex's parent,
    terminating at 0."""
    at = special_by_rank(t, special)
    k = index_partition(t).plus_rank.get(as_level(i))
    if k is None:
        raise DomainError(f"level {i} is not an I_plus level")
    ranks = t.ranks()
    seq = [k]
    while seq[-1]:
        seq.append(ranks.of_vertex[t.tree.parent[at[seq[-1]]]])
    return tuple(ranks.levels[r] for r in seq)


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


def phi_bijection(t: WeightedLevelTree, t2: WeightedLevelTree, subset: Iterable) -> IndexSubset:
    """Transport an index subset along an equivalence: levels move through the
    vertex-level correspondence, edge labels stay put.  The classes at or
    above ``m`` take the ranks ``0..m_rank`` in both trees, so the subset
    keeps its mask, read on ``t2``'s partition.

    Whether ``t ~ t2`` is proven once per partner object and kept in ``t``'s
    memo; the entry holds ``t2``, so its ``id`` is not reused while kept."""
    proven = t._memo.setdefault("equivalent", {})
    entry = proven.get(id(t2))
    if entry is None:
        entry = proven[id(t2)] = (t2, is_equivalent(t, t2))
    if not entry[1]:
        raise DomainError("phi is only defined between equivalent trees")
    return IndexSubset(index_partition(t2), index_partition(t).read(subset).mask)
