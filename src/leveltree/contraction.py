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

``index_identity_report`` checks how the index data transforms.  The
literal bookkeeping identity for the minus part admits boundary
counterexamples ("dropout" edges, the report's ``dropouts``), so the strict
and the corrected reading are exposed separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DomainError
from .levels import (IndexSubset, LevelData, LevelRanks, WeightedLevelTree,
                     _derived_level_tree, canonical_form, index_partition, is_equivalent,
                     level_data, phi_bijection)
from .tree import Edge, Vertex, _derived_weighted_tree


def _collapsed(t: WeightedLevelTree, sub: IndexSubset) -> frozenset[Edge]:
    """The contracted edges: a hat edge collapses when every level it
    crosses does."""
    data = level_data(t)
    plus_mask, i_m = sub.plus_mask, sub.i_m
    out = set(sub.i_minus)
    for e in (data.hat_edges - sub.part.i_m) | i_m:
        if not data.span[e] & ~plus_mask:
            out.add(e)
    return frozenset(out)


def _kept_ranks(data: LevelData, plus_mask: int) -> list[int]:
    """Ranks of the ``I_plus`` levels a subset leaves standing, top down."""
    return [k for k in range(1, data.m_rank + 1) if not plus_mask >> k & 1]


@dataclass(frozen=True)
class ContractionResult:
    """The contracted tree, the projection of ``t``'s vertices onto it and
    the contracted edges.  The tree's levels are levels of ``t``: its rank
    ``j`` is rank ``used[j]`` of ``t``."""

    tree: WeightedLevelTree
    projection: Mapping[Vertex, Vertex]
    contracted: frozenset[Edge]
    used: tuple[int, ...]


def contract(t: WeightedLevelTree, subset: Iterable) -> ContractionResult:
    """The contraction of ``t`` along ``subset``.

    The tree keeps its last result, keyed by the subset's mask (one entry,
    so memory stays bounded), since the suites ask for the same contraction
    several times in a row.
    """
    part = index_partition(t)
    sub = part.read(subset)
    last = t._memo.get("contract")
    if last is not None and last[0] == sub.mask:
        return last[1]
    plus_mask, i_m = sub.plus_mask, sub.i_m
    gone = _collapsed(t, sub)
    tree = t.tree
    data = level_data(t)

    # projection: a vertex whose own edge is contracted goes where its
    # parent goes; the survivors hang from their parents' images
    root, parent = tree.root, tree.parent
    proj: dict[Vertex, Vertex] = {root: root}
    new_parent: dict[Vertex, Vertex] = {}
    for v in tree.preorder():  # parents before children
        if v == root:
            continue
        up = proj[parent[v]]
        if v in gone:
            proj[v] = up
        else:
            proj[v] = v
            new_parent[v] = up
    new_weight = dict.fromkeys(proj.values(), 0)
    for v, w in t.weight.items():
        new_weight[proj[v]] += w

    # Everything merged into a surviving vertex lies below it, so its own
    # level is the highest one in its class.  Each survivor keeps a level of
    # ``t``, recorded by its rank there.
    ranks = t.ranks()
    rank = ranks.of_vertex
    kept = _kept_ranks(data, plus_mask)
    new_rank: dict[Vertex, int] = {root: 0}
    for e in new_parent:
        if e in data.hat_edges and e not in part.i_m:
            # lifted to the lowest surviving level at or above it
            above = [k for k in kept if k <= rank[e]]
            if not above:
                raise DomainError(f"no surviving level dominates the class of {e!r}")
            new_rank[e] = above[-1]
        elif e in i_m:
            if not kept:
                raise DomainError("a surviving lifted edge needs a surviving level")
            new_rank[e] = kept[-1]
        else:  # (I_m \ i_m) edges and minus edges keep their top merged level
            new_rank[e] = rank[e]

    # the rank table of t_(I): the surviving ranks of t, renumbered 0, 1, ...
    used = tuple(sorted(set(new_rank.values())))
    renumber = {r: k for k, r in enumerate(used)}
    of_vertex = {v: renumber[r] for v, r in new_rank.items()}
    at: list[list[Vertex]] = [[] for _ in used]
    for v in sorted(of_vertex):
        at[of_vertex[v]].append(v)
    levels = tuple(ranks.levels[r] for r in used)
    new_tree = _derived_level_tree(
        _derived_weighted_tree(root, new_parent, new_weight),
        {v: levels[k] for v, k in of_vertex.items()},
        LevelRanks(levels=levels, of_vertex=of_vertex, at=tuple(map(tuple, at))))
    out = ContractionResult(tree=new_tree, projection=proj, contracted=gone, used=used)
    t._memo["contract"] = (sub.mask, out)
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
