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
counterexamples ("dropout" edges, see ``minus_part_dropouts``), so the strict
and the corrected reading are exposed separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DomainError
from .levels import (Level, LevelData, WeightedLevelTree, canonical_form,
                     index_partition, is_equivalent, level_data, level_mask,
                     phi_bijection)
from .tree import Edge, RootedTree, Vertex, WeightedTree


def _collapsed(t: WeightedLevelTree, plus_mask: int, i_m: frozenset,
               i_minus: frozenset) -> frozenset[Edge]:
    """The contracted edges, given the level part of the subset as a rank
    bitmask: a hat edge collapses when every level it crosses does."""
    data = level_data(t)
    out = set(i_minus)
    for e in (data.hat_edges - index_partition(t).i_m) | i_m:
        if not data.span[e] & ~plus_mask:
            out.add(e)
    return frozenset(out)


def contracted_edges(t: WeightedLevelTree, subset: Iterable) -> frozenset[Edge]:
    i_plus, i_m, i_minus = index_partition(t).split(subset)
    return _collapsed(t, level_mask(t, i_plus), i_m, i_minus)


def _kept_ranks(data: LevelData, plus_mask: int) -> list[int]:
    """Ranks of the ``I_plus`` levels a subset leaves standing, top down."""
    return [k for k in range(1, data.m_rank + 1) if not plus_mask >> k & 1]


@dataclass(frozen=True)
class ContractionResult:
    tree: WeightedLevelTree
    projection: Mapping[Vertex, Vertex]
    contracted: frozenset[Edge]


def contract(t: WeightedLevelTree, subset: Iterable) -> ContractionResult:
    """The contraction of ``t`` along ``subset``.

    The tree keeps its last result (one entry, so memory stays bounded),
    since the suites ask for the same contraction several times in a row.
    """
    key = frozenset(subset)
    last = t._memo.get("contract")
    if last is not None and last[0] == key:
        return last[1]
    part = index_partition(t)
    i_plus, i_m, i_minus = part.split(key)
    plus_mask = level_mask(t, i_plus)
    gone = _collapsed(t, plus_mask, i_m, i_minus)
    tree = t.tree
    data = level_data(t)

    # projection: walk up while the current vertex's own edge is contracted
    proj: dict[Vertex, Vertex] = {}
    for v in tree.preorder():
        if v == tree.root or v not in gone:
            proj[v] = v
        else:
            proj[v] = proj[tree.parent[v]]

    surviving = [v for v in tree.vertices if v != tree.root and v not in gone]
    new_parent = {v: proj[tree.parent[v]] for v in surviving}
    new_weight: dict[Vertex, int] = {proj[tree.root]: 0}
    for v in surviving:
        new_weight[v] = 0
    for v in tree.vertices:
        new_weight[proj[v]] += t.weight[v]

    # Everything merged into a surviving vertex lies below it, so its own
    # level is the highest one in its class.
    levels, rank = t.ranks().levels, t.ranks().of_vertex
    kept = _kept_ranks(data, plus_mask)
    new_level: dict[Vertex, Level] = {tree.root: levels[0]}
    for e in surviving:
        if e in data.hat_edges and e not in part.i_m:
            # lifted to the lowest surviving level at or above it
            above = [k for k in kept if k <= rank[e]]
            if not above:
                raise DomainError(f"no surviving level dominates the class of {e!r}")
            new_level[e] = levels[above[-1]]
        elif e in i_m:
            if not kept:
                raise DomainError("a surviving lifted edge needs a surviving level")
            new_level[e] = levels[kept[-1]]
        else:  # (I_m \ i_m) edges and minus edges keep their top merged level
            new_level[e] = t.level[e]

    new_tree = WeightedLevelTree(
        base=WeightedTree(tree=RootedTree(root=tree.root, parent=new_parent),
                          weight=new_weight),
        level=new_level,
    )
    out = ContractionResult(tree=new_tree, projection=proj, contracted=gone)
    t._memo["contract"] = (key, out)
    return out


# ---------------------------------------------------------------------------
# Index bookkeeping identities
# ---------------------------------------------------------------------------

def _dropouts(t: WeightedLevelTree, bottom: int, i_m: frozenset) -> frozenset[Edge]:
    rank = t.ranks().of_vertex
    return frozenset(e for e in index_partition(t).i_m - i_m
                     if rank[t.tree.parent[e]] >= bottom)


def _new_bottom(t: WeightedLevelTree, i_plus: frozenset) -> int:
    """Rank of the contraction's bottom level ``min(I_plus \\ I)``, or of
    level 0 when every level collapses."""
    kept = _kept_ranks(level_data(t), level_mask(t, i_plus))
    return kept[-1] if kept else 0


def minus_part_dropouts(t: WeightedLevelTree, subset: Iterable) -> frozenset[Edge]:
    """Surviving below-``m`` hat edges whose upper endpoint lands exactly on
    the new bottom level: they leave the hat-edge family of the contraction
    and reappear in its minus part."""
    i_plus, i_m, _ = index_partition(t).split(subset)
    return _dropouts(t, _new_bottom(t, i_plus), i_m)


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
    i_plus, i_m, i_minus = part.split(subset)
    res = result if result is not None else contract(t, subset)
    new_part = index_partition(res.tree)
    new_m = level_data(res.tree).m

    bottom = _new_bottom(t, i_plus)
    dropouts = _dropouts(t, bottom, i_m)
    expected_mid = part.i_m - i_m - dropouts
    expected_minus_strict = part.i_minus - i_minus
    return IndexIdentityReport(
        m_ok=(new_m == t.ranks().levels[bottom]),
        plus_ok=(new_part.i_plus == part.i_plus - i_plus),
        mid_ok=(new_part.i_m == expected_mid),
        minus_ok_strict=(new_part.i_minus == expected_minus_strict),
        minus_ok_corrected=(new_part.i_minus == expected_minus_strict | dropouts),
        dropouts=dropouts,
    )


def verify_equivalence_compat(t: WeightedLevelTree, t2: WeightedLevelTree,
                              subset: Iterable) -> bool:
    """Contracting equivalent trees along transported subsets stays
    equivalent; the inputs must be equivalent (``DomainError`` otherwise)."""
    moved = phi_bijection(t, t2, subset)
    return is_equivalent(contract(t, subset).tree, contract(t2, moved).tree)


def nested_contraction_coherent(t: WeightedLevelTree, subset: Iterable,
                                subset2: Iterable) -> bool:
    """Contracting in two stages agrees with contracting the union, up to
    equivalence and canonical relabeling of the intermediate index labels."""
    first = contract(t, subset).tree
    inner = index_partition(first)
    sub2 = frozenset(subset2) & inner.labels()
    if frozenset(subset2) != sub2:
        raise DomainError("second subset must consist of surviving labels")
    staged = contract(first, sub2).tree
    merged = contract(t, frozenset(subset) | _relabel_to_outer(t, subset, sub2)).tree
    return canonical_form(staged).level == canonical_form(merged).level and \
        canonical_form(staged).base == canonical_form(merged).base


def _relabel_to_outer(t: WeightedLevelTree, subset: Iterable, sub2: frozenset) -> frozenset:
    # Edge labels persist through contraction; level labels do too because the
    # contraction keeps surviving I_plus levels at their original values.
    part = index_partition(t)
    out = set()
    for lab in sub2:
        if isinstance(lab, Level) and lab not in part.i_plus:
            raise DomainError(f"level {lab} does not come from the outer index set")
        out.add(lab)
    return frozenset(out)
