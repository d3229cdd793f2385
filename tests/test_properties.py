"""Properties on sampled trees past the exhaustive bound: weighted level trees
with 7-10 edges and random rational levels, and index subsets sampled from
their labels (never expanded through ``subsets()``).  The example budget is
fixed and the search derandomized, so every run checks the same trees."""

import itertools
from fractions import Fraction

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from leveltree.contraction import contract, index_identity_report
from leveltree.levels import (WeightedLevelTree, index_partition,
                              make_level_tree, phi_bijection)

F = Fraction
# No shrink phase: a failing example is already a tree of at most 10 edges,
# and shrinking one took over five minutes.
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None,
                    phases=[Phase.explicit, Phase.generate],
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def level_trees(draw):
    """A tree on 7-10 edges, each vertex hung from one of the three vertices
    made before it; each vertex sits one to three slots below its parent on a
    descending ladder of negative rationals, so levels are shared across
    branches.  Weights (at most 2) are positive only from a drawn slot down,
    so ``m`` lies deep and ``I_plus`` is large."""
    n = draw(st.integers(7, 10))
    names = [f"v{k}" for k in range(n + 1)]
    parent = {names[k]: names[draw(st.integers(max(0, k - 3), k - 1))]
              for k in range(1, n + 1)}
    gaps = draw(st.lists(st.fractions(F(1, 12), F(3), max_denominator=12),
                         min_size=3 * n, max_size=3 * n))
    ladder = list(itertools.accumulate(gaps))
    slot = {names[0]: -1}
    for v in names[1:]:
        slot[v] = slot[parent[v]] + draw(st.integers(1, 3))
    cut = draw(st.integers(0, max(slot.values())))
    weight = {v: draw(st.integers(0, 2)) if slot[v] >= cut else 0 for v in names}
    deepest = max(names, key=slot.get)
    weight[deepest] = max(weight[deepest], 1)
    level = {v: F(0) if k < 0 else -ladder[k] for v, k in slot.items()}
    return make_level_tree(names[0], parent, weight, level)


@st.composite
def trees_and_subsets(draw):
    t = draw(level_trees())
    labels = sorted(index_partition(t).labels(), key=str)
    return t, frozenset(draw(st.sets(st.sampled_from(labels))))


def reference_split(t, subset):
    """The set-based split: the level part intersected with ``I_plus`` and
    mapped through the rank table, and the two edge parts."""
    part = index_partition(t)
    of_level = t.ranks().of_level
    mask = sum(1 << of_level[x] for x in subset & part.i_plus)
    return mask, subset & part.i_m, subset & part.i_minus


@PROPERTY
@given(trees_and_subsets())
def test_read_matches_the_set_reference(case):
    t, subset = case
    sub = index_partition(t).read(subset)
    assert sub == subset
    assert (sub.plus_mask, sub.i_m, sub.i_minus) == reference_split(t, subset)


@PROPERTY
@given(trees_and_subsets())
def test_contraction_identities_on_sampled_trees(case):
    t, subset = case
    res = contract(t, subset)
    assert sum(res.tree.weight.values()) == sum(t.weight.values())
    assert index_identity_report(t, subset, result=res).all_corrected()
    scaled = WeightedLevelTree(base=t.base,
                               level={v: F(3, 2) * x for v, x in t.level.items()})
    moved = phi_bijection(t, scaled, subset)
    assert moved == {F(3, 2) * x if isinstance(x, Fraction) else x for x in subset}
    assert phi_bijection(scaled, t, moved) == subset
