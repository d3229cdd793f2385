"""Contraction of a weighted level tree along an index subset.

Given ``I`` inside the index set of ``t``, the contracted tree is obtained by
collapsing the edges selected below, pushing weights onto the surviving
endpoint, and re-leveling:

* contracted edges: every ``I_minus`` edge, plus each edge of
  ``(hat \\ I_m-part-of-the-index-set) | I_m`` whose occupied level span
  ``[edge_level(e), level(v_e^+))`` lies inside ``I_plus``;
* surviving lower endpoints of hat edges are lifted to the lowest surviving
  ``I_plus`` level dominating everything merged into them; surviving ``I_m``
  edges are lifted exactly to the new bottom level ``min(I_plus \\ I)``;
  everything else keeps the highest level merged into it.

``contract`` makes one pass over a per-tree plan, a ``kept`` table of the
tree: one row per non-root vertex, parents first, with its parent, the kind
of its edge, its span mask, its bit in a subset's mask, its rank and its
weight, and the tree's vertices sorted once.  The pass tests each row for
collapse on masks, builds the projection, the new parent and weight maps
and the contracted edges, and gives each survivor its rank from one lift
table per subset.  The contraction's rank table is read off the same pass.

``index_identity_report`` checks how the index data transforms, from its own
reading of ``t`` and of the contracted tree's maps, never from the plan.
The literal bookkeeping identity for the minus part admits boundary
counterexamples ("dropout" edges, the report's ``dropouts``), so the strict
and the corrected reading are exposed separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DomainError
from .levels import (LevelData, LevelRanks, WeightedLevelTree,
                     _derived_level_tree, canonical_form, index_partition, is_equivalent,
                     kept, level_data, phi_bijection)
from .tree import Edge, Vertex, _derived_weighted_tree


def _kept_ranks(data: LevelData, plus_mask: int) -> list[int]:
    """Ranks of the ``I_plus`` levels a subset leaves standing, top down."""
    return [k for k in range(1, data.m_rank + 1) if not plus_mask >> k & 1]


# the kinds of a plan row's edge
HAT, I_M, OTHER = "hat", "I_m", "other"


@dataclass(frozen=True)
class _Plan:
    """What ``contract`` reads of a level tree, built once per tree.

    ``rows`` holds one row per non-root vertex ``v``, in preorder (parents
    first): ``(v, parent, kind, span, bit, rank, weight)``.  ``kind`` is
    ``HAT`` for a hat edge outside ``I_m``, ``I_M`` for an ``I_m`` edge and
    ``OTHER`` for the rest (the ``I_minus`` edges); ``span`` is a hat edge's
    ``LevelData.span`` (0 otherwise); ``bit`` is the edge's bit in an
    ``IndexSubset``'s mask (0 for a hat edge outside ``I_m``, which is no
    label); ``rank`` is the rank of ``v``.  ``ordered`` lists every vertex,
    sorted."""

    rows: tuple
    ordered: tuple
    m_rank: int


@kept
def _contraction_plan(t: WeightedLevelTree) -> _Plan:
    """The plan of ``t``, built on first use.  It is read off ``t``'s own
    tables, never shared with another level tree on the same base, so that
    each of two equivalent trees contracts by itself."""
    data = level_data(t)
    part = index_partition(t)
    rank = t.ranks().of_vertex
    tree = t.tree
    parent, weight, edge_bit = tree.parent, t.weight, part.edge_bit
    rows = []
    for v in tree.preorder():
        if v == tree.root:
            continue
        kind = OTHER if v not in data.hat_edges else I_M if v in part.i_m else HAT
        bit = 0 if kind == HAT else 1 << edge_bit[v]
        rows.append((v, parent[v], kind, data.span.get(v, 0), bit, rank[v], weight[v]))
    return _Plan(rows=tuple(rows), ordered=tuple(sorted(tree.vertices)), m_rank=data.m_rank)


@dataclass(frozen=True)
class ContractionResult:
    """The contracted tree, the projection of ``t``'s vertices onto it and
    the contracted edges.  The tree's levels are levels of ``t``: its rank
    ``j`` is rank ``used[j]`` of ``t``, and ``rank_of`` reads a vertex's
    level off ``t``'s ranks."""

    tree: WeightedLevelTree
    projection: Mapping[Vertex, Vertex]
    contracted: frozenset[Edge]
    used: tuple[int, ...]

    def rank_of(self, v: Vertex) -> int:
        """The rank in ``t`` of the level a vertex of the contraction sits at."""
        return self.used[self.tree.ranks().of_vertex[v]]


def _lift(m_rank: int, plus_mask: int) -> list:
    """The lift table of a subset's level part, one entry per rank
    ``0..m_rank``: the rank of the lowest level the part leaves standing at
    or above that rank, or None where it leaves none."""
    lift, kept = [None] * (m_rank + 1), None
    for k in range(1, m_rank + 1):
        if not plus_mask >> k & 1:
            kept = k
        lift[k] = kept
    return lift


def contract(t: WeightedLevelTree, subset: Iterable) -> ContractionResult:
    """The contraction of ``t`` along ``subset``: one pass over the rows of
    ``t``'s plan.

    The tree keeps its last result, keyed by the subset's mask (one entry,
    so memory stays bounded), since the suites ask for the same contraction
    several times in a row.
    """
    sub = index_partition(t).read(subset)
    memo = t._memo
    last = memo.get("contract")
    if last is not None and last[0] == sub.mask:
        return last[1]
    plan = _contraction_plan(t)
    mask, plus_mask = sub.mask, sub.plus_mask
    lift = _lift(plan.m_rank, plus_mask)
    bottom = lift[-1]  # the rank of the new bottom level min(I_plus \ I)

    # A vertex whose own edge is contracted goes where its parent goes, and
    # its weight with it; the survivors hang from their parents' images.
    # Everything merged into a survivor lies below it, so its own level is
    # the highest one in its class, and it keeps a level of t, recorded by
    # its rank there.
    root = t.root
    proj: dict[Vertex, Vertex] = {root: root}
    new_parent: dict[Vertex, Vertex] = {}
    new_weight: dict[Vertex, int] = {root: t.weight[root]}
    new_rank: dict[Vertex, int] = {root: 0}
    gone = []
    used_mask, standing = 1, ~plus_mask
    for v, p, kind, span, bit, r, w in plan.rows:
        up = proj[p]
        # collapsed: an I_minus edge of the subset, or a hat edge outside I_m
        # or in the subset's I_m whose every crossed level collapses
        if mask & bit == bit and not span & standing:
            proj[v] = up
            new_weight[up] += w
            gone.append(v)
            continue
        proj[v] = v
        new_parent[v] = up
        new_weight[v] = w
        if kind == HAT:  # lifted to the lowest surviving level at or above it
            r = lift[r]
            if r is None:
                raise DomainError(f"no surviving level dominates the class of {v!r}")
        elif kind == I_M and mask & bit:  # lifted to the new bottom level
            if bottom is None:
                raise DomainError("a surviving lifted edge needs a surviving level")
            r = bottom
        # the rest, (I_m \ I) and minus edges, keep their top merged level
        new_rank[v] = r
        used_mask |= 1 << r

    # the rank table of t_(I): the surviving ranks of t, renumbered 0, 1, ...
    used = tuple(k for k in range(used_mask.bit_length()) if used_mask >> k & 1)
    renumber = dict(zip(used, range(len(used))))
    of_vertex = {v: renumber[r] for v, r in new_rank.items()}
    at: list[list[Vertex]] = [[] for _ in used]
    for v in plan.ordered:
        k = of_vertex.get(v)
        if k is not None:
            at[k].append(v)
    old_levels = t.ranks().levels
    levels = tuple(old_levels[r] for r in used)
    new_tree = _derived_level_tree(
        _derived_weighted_tree(root, new_parent, new_weight),
        {v: levels[k] for v, k in of_vertex.items()},
        LevelRanks(levels=levels, of_vertex=of_vertex, at=tuple(map(tuple, at))))
    out = ContractionResult(tree=new_tree, projection=proj, contracted=frozenset(gone),
                            used=used)
    memo["contract"] = (sub.mask, out)
    return out


# ---------------------------------------------------------------------------
# Index bookkeeping identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexIdentityReport:
    m_ok: bool
    plus_ok: bool
    mid_ok: bool
    minus_ok_strict: bool
    minus_ok_corrected: bool
    dropouts: frozenset[Edge]

    def all_strict(self) -> bool:
        return self.m_ok and self.plus_ok and self.mid_ok and self.minus_ok_strict

    def all_corrected(self) -> bool:
        return self.m_ok and self.plus_ok and self.mid_ok and self.minus_ok_corrected


def index_identity_report(t: WeightedLevelTree, subset: Iterable,
                          result: ContractionResult | None = None) -> IndexIdentityReport:
    part = index_partition(t)
    sub = part.read(subset)
    i_m = sub.i_m
    res = result if result is not None else contract(t, sub)
    new_part = index_partition(res.tree)
    new_data = level_data(res.tree)

    ranks = t.ranks()
    levels = ranks.levels
    kept = _kept_ranks(level_data(t), sub.plus_mask)
    # the rank of the new bottom level min(I_plus \ I), or of level 0 when
    # every level collapses
    bottom = kept[-1] if kept else 0
    # dropouts: surviving below-m hat edges whose upper endpoint lands exactly
    # on the new bottom level; they leave the hat-edge family of the
    # contraction and reappear in its minus part
    dropouts = frozenset(e for e in part.i_m - i_m
                         if ranks.of_vertex[t.tree.parent[e]] >= bottom)
    expected_mid = part.i_m - i_m - dropouts
    expected_minus_strict = part.i_minus - sub.i_minus
    # the contraction keeps levels of t: its levels in [m, 0), in rank order,
    # must be those of the kept ranks
    new_levels = res.tree.ranks().levels
    return IndexIdentityReport(
        m_ok=(new_data.m == levels[bottom]),
        plus_ok=(new_levels[1:new_data.m_rank + 1] == tuple(levels[k] for k in kept)),
        mid_ok=(new_part.i_m == expected_mid),
        minus_ok_strict=(new_part.i_minus == expected_minus_strict),
        minus_ok_corrected=(new_part.i_minus == expected_minus_strict | dropouts),
        dropouts=dropouts,
    )


def verify_equivalence_compat(t: WeightedLevelTree, t2: WeightedLevelTree,
                              subset: Iterable) -> bool:
    """Contracting equivalent trees along transported subsets stays
    equivalent; the inputs must be equivalent (``DomainError`` otherwise)."""
    sub = index_partition(t).read(subset)
    moved = phi_bijection(t, t2, sub)
    return is_equivalent(contract(t, sub).tree, contract(t2, moved).tree)


def nested_contraction_coherent(t: WeightedLevelTree, subset: Iterable,
                                subset2: Iterable) -> bool:
    """Contracting in two stages agrees with contracting the union, up to
    equivalence and canonical relabeling of the intermediate index labels."""
    first = contract(t, subset).tree
    inner = index_partition(first)
    sub2 = frozenset(subset2) & inner.labels()
    if frozenset(subset2) != sub2:
        raise DomainError("second subset must consist of surviving labels")
    staged = canonical_form(contract(first, sub2).tree)
    # the labels keep their names: edges persist, and the contraction keeps
    # the surviving I_plus levels at their values; ``read`` refuses the rest
    merged = canonical_form(contract(t, frozenset(subset) | sub2).tree)
    return staged.level == merged.level and staged.base == merged.base
