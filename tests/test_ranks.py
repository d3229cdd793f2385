"""The rank tables against plain ``Fraction`` scans, exhaustively over every
instance with at most four edges and weights at most 2.

The references below are the definitions the rank-based code replaced:
pairwise level comparisons and scans over the occupied levels."""

from fractions import Fraction

import pytest

from leveltree.contraction import contract
from leveltree.enumerate import EnumSpec, gen_instances
from leveltree.errors import DomainError
from leveltree.levels import (WeightedLevelTree, cross_section, edge_span,
                              index_partition, is_equivalent, level_data,
                              level_successor)

F = Fraction
SPEC = EnumSpec(max_edges=4, max_weight=2, max_levels=5)


@pytest.fixture(scope="module")
def instances():
    return list(gen_instances(SPEC))


def reference_equivalent(t, t2) -> bool:
    if t.base != t2.base:
        return False
    m = max(t.level[v] for v in t.base.positive_vertices())
    for v in t.tree.vertices:
        if t.level[v] < m:
            continue
        for w in t.tree.vertices:
            if t.level[v] == t.level[w] and t2.level[v] != t2.level[w]:
                return False
            if t.level[v] > t.level[w] and not t2.level[v] > t2.level[w]:
                return False
    return True


def relevel(t, f):
    return WeightedLevelTree(base=t.base, level={v: f(x) for v, x in t.level.items()})


def split_a_class(t):
    """A non-equivalent level map: one vertex of a shared class at or above
    ``m`` moves halfway up to the next occupied level; None when every such
    class is a single vertex."""
    m = level_data(t).m
    occ = sorted(set(t.level.values()))
    for x in sorted(occ, reverse=True):
        members = sorted(v for v in t.level if t.level[v] == x)
        if x < 0 and x >= m and len(members) > 1:
            above = min(y for y in occ if y > x)
            level = dict(t.level)
            level[members[0]] = (x + above) / 2
            return WeightedLevelTree(base=t.base, level=level)
    return None


def test_is_equivalent_matches_the_pairwise_definition(instances):
    by_base = {}  # the representatives of one weighted tree share its object
    for t in instances:
        by_base.setdefault(id(t.base), []).append(t)
    perturbed = 0
    for t in instances:
        m = level_data(t).m
        for t2 in (relevel(t, lambda x: 2 * x), relevel(t, lambda x: F(3, 2) * x),
                   relevel(t, lambda x: x if x >= m else x - 1)):
            assert is_equivalent(t, t2) and reference_equivalent(t, t2)
            assert is_equivalent(t2, t) == reference_equivalent(t2, t)
        other = split_a_class(t)
        if other is not None:
            perturbed += 1
            assert not reference_equivalent(t, other)
            assert not is_equivalent(t, other)
            assert is_equivalent(other, t) == reference_equivalent(other, t)
        # every other class representative on the same weighted tree
        for t2 in by_base[id(t.base)]:
            assert is_equivalent(t, t2) == reference_equivalent(t, t2) == (t2 is t)
    assert perturbed > len(instances) // 4


def test_level_tables_match_fraction_scans(instances):
    for t in instances:
        occ = sorted(set(t.level.values()), reverse=True)
        assert t.occupied_levels() == tuple(occ)
        for lo in occ:
            for hi in occ:
                assert t.levels_in(lo, hi, True) == {x for x in occ if lo <= x < hi}
                assert t.levels_in(lo, hi, False) == {x for x in occ if lo < x < hi}
        for i in occ:
            if i == 0:
                with pytest.raises(DomainError):
                    level_successor(t, i)
            else:
                assert level_successor(t, i) == min(x for x in occ if x > i)
        data = level_data(t)
        m = data.m
        for e in t.edges():
            top = t.level[t.tree.parent[e]]
            if top > m:
                low = max(t.level[e], m)
                assert edge_span(t, e) == {x for x in occ if low <= x < top}
            else:
                with pytest.raises(DomainError):
                    edge_span(t, e)
        for i in occ:
            if m <= i < 0:
                assert cross_section(t, i) == {
                    e for e in data.hat_edges
                    if data.edge_level[e] <= i < t.level[t.tree.parent[e]]}
            else:
                with pytest.raises(DomainError):
                    cross_section(t, i)


def test_unoccupied_levels_are_rejected(nested_tree):
    with pytest.raises(DomainError):
        level_successor(nested_tree, F(-1, 2))
    with pytest.raises(DomainError):
        cross_section(nested_tree, F(-3, 2))
    with pytest.raises(DomainError):
        nested_tree.levels_in(F(-3, 2), 0, True)


def test_contract_memo_returns_only_its_own_subset(instances):
    for t in instances:
        copy = WeightedLevelTree(base=t.base, level=dict(t.level))
        previous = None
        for I in index_partition(t).subsets():
            res = contract(t, I)
            assert res is not previous
            assert contract(t, set(I)) is res
            fresh = contract(copy, I)
            assert fresh is not res
            assert (res.tree.base, res.tree.level, res.projection, res.contracted) == \
                (fresh.tree.base, fresh.tree.level, fresh.projection, fresh.contracted)
            previous = res
