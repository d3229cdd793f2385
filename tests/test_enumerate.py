import itertools
from fractions import Fraction

import pytest

from leveltree.enumerate import (EnumSpec, class_key, gen_instances,
                                 gen_level_trees, gen_weighted_trees,
                                 strata_poset)
from leveltree.errors import DomainError
from leveltree.levels import (WeightedLevelTree, canonical_form,
                              index_partition, is_equivalent, make_level_tree)
from leveltree.tree import RootedTree, WeightedTree

F = Fraction

# first-run totals, frozen so regressions in either generator are loud
GOLDEN_WEIGHTED_COUNTS = {0: 2, 1: 8, 2: 43, 3: 242, 4: 1476}
GOLDEN_CLASS_COUNTS = {1: 10, 2: 63, 3: 451, 4: 3637, 5: 29097}


def test_weighted_tree_counts_match_hand_count():
    # one edge, weights <= 1, at least one positive: the three patterns
    # (0,1), (1,0), (1,1) of (root, child)
    spec = EnumSpec(max_edges=1, max_weight=1)
    trees = list(gen_weighted_trees(spec))
    assert len(trees) == 1 + 3  # the weighted point plus the three patterns
    singles = [t for t in trees if len(t.tree.edges) == 0]
    assert len(singles) == 1 and singles[0].weight == {"o": 1}


def test_edgeless_enumeration():
    spec = EnumSpec(max_edges=0, max_weight=2)
    trees = list(gen_weighted_trees(spec))
    assert [t.weight["o"] for t in trees] == [1, 2]
    spec = EnumSpec(max_edges=0, max_weight=2, require_positive_weight=False)
    assert [t.weight["o"] for t in gen_weighted_trees(spec)] == [0, 1, 2]


def test_weighted_tree_golden_counts():
    for n, expected in GOLDEN_WEIGHTED_COUNTS.items():
        spec = EnumSpec(max_edges=n, max_weight=2)
        exact = [t for t in gen_weighted_trees(spec) if len(t.tree.edges) == n]
        assert len(exact) == expected


def test_class_golden_counts():
    for n, expected in GOLDEN_CLASS_COUNTS.items():
        spec = EnumSpec(max_edges=n, max_weight=2)
        assert sum(1 for _ in gen_instances(spec)) == expected


def test_no_two_weighted_trees_are_isomorphic():
    def encoding(wt: WeightedTree, v):
        return (wt.weight[v],
                tuple(sorted(encoding(wt, c) for c in wt.tree.children(v))))

    spec = EnumSpec(max_edges=3, max_weight=2)
    seen = set()
    for wt in gen_weighted_trees(spec):
        key = encoding(wt, wt.root)
        assert key not in seen
        seen.add(key)


def reference_level_maps(base: WeightedTree, spec: EnumSpec) -> list[dict]:
    """The generator that direct class generation replaced: it builds every
    order type of levels along the tree, keeps the first of each class key
    and sorts the representatives' level maps."""
    tree = base.tree
    order = [v for v in tree.preorder() if v != tree.root]
    weighted = [v for v in tree.vertices if base.weight[v] > 0 and v != tree.root]
    root_weighted = base.weight[tree.root] > 0
    seen = set()
    results = []

    def finish(classes):
        rank = {v: k + 1 for k, cls in enumerate(classes) for v in cls}
        r_m = 0 if root_weighted else min(rank[v] for v in weighted)
        key = tuple(tuple(sorted(cls)) for cls in classes[:r_m])
        if key in seen:
            return
        seen.add(key)
        levels = {tree.root: F(0)}
        bottom = F(-r_m)
        for v in order:
            if rank[v] <= r_m:
                levels[v] = F(-rank[v])
            else:
                levels[v] = min(levels[tree.parent[v]], bottom) - 1
        if len(set(levels.values())) <= spec.max_levels:
            results.append(levels)

    # a vertex joins a class strictly below its parent's or founds a new
    # class at any position strictly below it
    def rec(idx, classes, class_of):
        if idx == len(order):
            finish(classes)
            return
        v = order[idx]
        par = tree.parent[v]
        lo = classes.index(class_of[par]) if par != tree.root else -1
        for j in range(lo + 1, len(classes)):
            classes[j].append(v)
            class_of[v] = classes[j]
            rec(idx + 1, classes, class_of)
            classes[j].pop()
        fresh = [v]
        class_of[v] = fresh
        for j in range(lo + 1, len(classes) + 1):
            classes.insert(j, fresh)
            rec(idx + 1, classes, class_of)
            classes.pop(j)
        del class_of[v]

    rec(0, [], {})
    results.sort(key=lambda levels: sorted(levels.items()))
    return results


@pytest.mark.parametrize("max_edges, max_weight, max_levels",
                         [(4, 2, 2), (4, 2, 3), (4, 2, 5), (5, 1, 5)])
def test_direct_generation_matches_order_type_enumeration(max_edges, max_weight,
                                                          max_levels):
    spec = EnumSpec(max_edges=max_edges, max_weight=max_weight, max_levels=max_levels)
    for base in gen_weighted_trees(spec):
        got = [t.level for t in gen_level_trees(base, spec)]
        assert got == reference_level_maps(base, spec)


def test_level_classes_cover_all_order_types_and_have_no_duplicates():
    base = WeightedTree(tree=RootedTree(root="o", parent={"a": "o", "b": "a"}),
                        weight={"o": 0, "a": 0, "b": 1})
    classes = list(gen_level_trees(base, EnumSpec(max_edges=2)))
    # brute force every rank assignment and match it to exactly one class
    for ra in range(1, 3):
        for rb in range(ra + 1, 4):
            t = WeightedLevelTree(base=base, level={"o": 0, "a": -ra, "b": -rb})
            hits = [c for c in classes if is_equivalent(t, c)]
            assert len(hits) == 1
    for c1, c2 in itertools.combinations(classes, 2):
        assert not is_equivalent(c1, c2)


def iso_key(t: WeightedLevelTree):
    def enc(v):
        return (t.weight[v], t.level[v],
                tuple(sorted(enc(c) for c in t.tree.children(v))))
    return enc(t.root)


def test_nested_class_is_enumerated(nested_tree):
    spec = EnumSpec(max_edges=4, max_weight=1)
    keys = {iso_key(t) for t in gen_instances(spec)}
    assert iso_key(canonical_form(nested_tree)) in keys


def test_single_vertex_base_has_one_class():
    base = WeightedTree(tree=RootedTree(root="o", parent={}), weight={"o": 2})
    classes = list(gen_level_trees(base, EnumSpec()))
    assert len(classes) == 1 and classes[0].level == {"o": 0}


def test_level_trees_need_positive_weight():
    base = WeightedTree(tree=RootedTree(root="o", parent={"a": "o"}),
                        weight={"o": 0, "a": 0})
    with pytest.raises(DomainError):
        list(gen_level_trees(base, EnumSpec()))


def test_enumeration_is_deterministic():
    spec = EnumSpec(max_edges=3, max_weight=2)
    first = [class_key(t) for t in gen_instances(spec)]
    second = [class_key(t) for t in gen_instances(spec)]
    assert first == second


def test_max_levels_bound():
    base = WeightedTree(tree=RootedTree(root="o", parent={"a": "o", "b": "a"}),
                        weight={"o": 0, "a": 1, "b": 1})
    tight = list(gen_level_trees(base, EnumSpec(max_levels=2)))
    loose = list(gen_level_trees(base, EnumSpec(max_levels=3)))
    assert len(tight) < len(loose)
    assert all(len(set(t.level.values())) <= 2 for t in tight)


def test_strata_poset_of_nested_tree(nested_tree):
    poset = strata_poset(nested_tree)
    assert len(poset.nodes) == 4
    keys = {key: t for key, t in poset.nodes.items()}
    top = class_key(nested_tree)
    assert top in keys
    for key in keys:
        assert poset.reachable(top, key)


def test_strata_poset_single_vertex():
    t = make_level_tree("o", {}, {"o": 1}, {"o": 0})
    poset = strata_poset(t)
    assert len(poset.nodes) == 1 and not poset.arrows


def test_strata_poset_arrows_match_contraction_reachability(boundary_tree):
    from leveltree.contraction import contract
    poset = strata_poset(boundary_tree)
    top = class_key(boundary_tree)
    for I in index_partition(boundary_tree).subsets():
        dst = class_key(contract(boundary_tree, I).tree)
        assert poset.reachable(top, dst)
