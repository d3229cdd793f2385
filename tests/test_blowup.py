import itertools
from fractions import Fraction

import pytest

from leveltree.blowup import (MAX_SECTIONS, bundle_identity,
                              ideal_transform_check, is_traverse_section,
                              order_compatible, psi2_chart_check,
                              psi2_level_tree, section_compare, stage_ideals,
                              traverse_sections, weight_contracted_tree,
                              yk_pullback, zk_components)
from leveltree.charts import build_chart
from leveltree.enumerate import EnumSpec, gen_instances, gen_weighted_trees
from leveltree.errors import DomainError, InfeasibleError
from leveltree.levels import (WeightedLevelTree, cross_section, index_partition,
                              is_equivalent, level_data, make_level_tree)
from leveltree.monomial import parse_monomial
from leveltree.tree import Cmp, RootedTree, WeightedTree

F = Fraction


def brute_sections(tree):
    edges = sorted(tree.edges)
    out = set()
    for r in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            if is_traverse_section(tree, combo):
                out.add(frozenset(combo))
    return frozenset(out)


def test_sections_on_nested_tree(nested_tree):
    secs = traverse_sections(nested_tree.tree)
    assert secs == {frozenset({"a", "b"}), frozenset({"a", "c", "d"})}
    assert secs == brute_sections(nested_tree.tree)


def test_sections_path_and_star():
    path = RootedTree(root="o", parent={"a": "o"})
    assert traverse_sections(path) == {frozenset({"a"})}
    star = RootedTree(root="o", parent={"a": "o", "b": "o", "c": "o"})
    assert traverse_sections(star) == {frozenset({"a", "b", "c"})}
    # deeper than the interpreter's recursion limit: one section per edge
    long = RootedTree(root="s0", parent={f"s{k}": f"s{k - 1}" for k in range(1, 1101)})
    assert len(traverse_sections(long)) == 1100


def test_sections_match_brute_force_exhaustively():
    for t in gen_instances(EnumSpec(max_edges=4, max_weight=1)):
        assert traverse_sections(t.tree) == brute_sections(t.tree)


def test_edgeless_tree_has_no_sections():
    assert traverse_sections(RootedTree(root="o", parent={})) == frozenset()


def _spokes(n: int) -> RootedTree:
    """A root with ``n`` spokes, each carrying two leaves: 2^n sections."""
    parent = {f"s{i}": "o" for i in range(n)}
    parent.update({f"l{i}{j}": f"s{i}" for i in range(n) for j in "ab"})
    return RootedTree(root="o", parent=parent)


def test_sections_are_refused_above_the_bound():
    assert 2 ** 14 == MAX_SECTIONS
    assert len(traverse_sections(_spokes(14))) == MAX_SECTIONS
    with pytest.raises(DomainError, match=f"^the tree has {2 ** 15} traverse sections; "
                                          f"they are listed only up to {MAX_SECTIONS}$"):
        traverse_sections(_spokes(15))


def test_section_compare(nested_tree):
    tree = nested_tree.tree
    assert section_compare(tree, {"a", "b"}, {"a", "c", "d"}) is Cmp.GREATER
    assert section_compare(tree, {"a", "c", "d"}, {"a", "b"}) is Cmp.LESS
    assert section_compare(tree, {"a", "b"}, {"a", "b"}) is Cmp.EQUAL


def test_incomparable_sections():
    tree = RootedTree(root="o", parent={"a": "o", "b": "o", "p": "a", "q": "b"})
    assert section_compare(tree, {"p", "b"}, {"a", "q"}) is Cmp.INCOMPARABLE


def test_cross_sections_are_sections_of_the_upper_shell(deep_fan):
    # restrict to the part above each level and check the path condition
    part = index_partition(deep_fan)
    for i in part.i_plus:
        section = cross_section(deep_fan, i)
        upper = {v for v in deep_fan.tree.vertices if deep_fan.level[v] > i}
        kept = {e: deep_fan.tree.parent[e] for e in deep_fan.tree.edges
                if deep_fan.tree.parent[e] in upper
                and (e in upper or e in section)}
        restricted = RootedTree(root="o", parent=kept)
        assert is_traverse_section(restricted, section)


def test_cross_section_order_is_monotone_on_stable_trees():
    for t in gen_instances(EnumSpec(max_edges=4, max_weight=1), stable_only=True):
        part = index_partition(t)
        for i in part.i_plus:
            for j in part.i_plus:
                if i < j:
                    cmp = section_compare(t.tree, cross_section(t, j),
                                          cross_section(t, i))
                    assert cmp in (Cmp.GREATER, Cmp.EQUAL)


def test_weight_contracted_tree(nested_tree):
    bar = weight_contracted_tree(nested_tree.base)
    assert bar.edges == nested_tree.tree.edges  # weights sit at the leaves
    rooted = WeightedTree(tree=nested_tree.tree,
                          weight={"o": 1, "a": 0, "b": 0, "c": 0, "d": 0})
    assert weight_contracted_tree(rooted).edges == frozenset()
    mid = WeightedTree(tree=nested_tree.tree,
                       weight={"o": 0, "a": 1, "b": 1, "c": 0, "d": 0})
    assert weight_contracted_tree(mid).edges == {"a", "b"}


def _pairwise_order_compatible(bar: RootedTree) -> bool:
    """The definition: blowing up by size respects the section order, so a
    section above another is strictly smaller."""
    return not any(section_compare(bar, s1, s2) is Cmp.GREATER and len(s1) >= len(s2)
                   for s1, s2 in itertools.permutations(traverse_sections(bar), 2))


def test_order_compatible_matches_the_pairwise_definition():
    verdicts = set()
    for wt in gen_weighted_trees(EnumSpec(max_edges=6, max_weight=1)):
        bar = weight_contracted_tree(wt)
        verdict = _pairwise_order_compatible(bar)
        assert order_compatible(bar) == verdict, wt.to_json_dict()
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_blowup_schedule_is_order_compatible_on_stable_trees():
    for t in gen_instances(EnumSpec(max_edges=4, max_weight=1), stable_only=True):
        assert order_compatible(weight_contracted_tree(t.base))


def test_zk_components(nested_tree):
    chart = build_chart(nested_tree, tags=())
    sections = traverse_sections(weight_contracted_tree(nested_tree.base))
    assert zk_components(chart, sections, 1) == frozenset()
    assert zk_components(chart, sections, 2) == {frozenset({"a", "b"})}
    assert zk_components(chart, sections, 3) == {frozenset({"a", "b"}),
                                                  frozenset({"a", "c", "d"})}
    with pytest.raises(DomainError):
        zk_components(chart, sections, 0)


def test_yk_pullback_values(nested_tree):
    chart = build_chart(nested_tree, special={F(-1): "b", F(-2): "a"}, tags=())
    assert yk_pullback(chart, 1) == parse_monomial("1")
    assert yk_pullback(chart, 2) == parse_monomial("eps(-1)")
    assert yk_pullback(chart, 3) == parse_monomial("eps(-1) * eps(-2)")
    assert yk_pullback(chart, 4) == parse_monomial("eps(-1) * eps(-2)")


def test_yk_pullback_is_monotone_in_k():
    for t in gen_instances(EnumSpec(max_edges=4, max_weight=1), stable_only=True):
        chart = build_chart(t, tags=())
        sections = traverse_sections(weight_contracted_tree(t.base))
        prev = parse_monomial("1")
        for k in range(1, len(t.edges()) + 1):
            zk_components(chart, sections, k)  # raises without a witness edge
            cur = yk_pullback(chart, k)
            assert not (cur / prev).is_zero  # divisibility: prev divides cur
            assert all(e >= 0 for _, e in (cur / prev).exps)
            prev = cur


def test_psi2_reconstruction_on_nested_tree(nested_tree):
    rebuilt = psi2_level_tree(nested_tree.base, [1, 2])
    assert is_equivalent(nested_tree, rebuilt)
    assert index_partition(rebuilt).i_plus == {F(-1), F(-2)}


def test_psi2_empty_index():
    rooted = WeightedTree(tree=RootedTree(root="o", parent={"a": "o"}),
                          weight={"o": 1, "a": 0})
    t = psi2_level_tree(rooted, [])
    assert level_data(t).m == 0
    assert index_partition(t).i_plus == frozenset()
    bare = WeightedTree(tree=RootedTree(root="o", parent={"a": "o"}),
                        weight={"o": 0, "a": 1})
    with pytest.raises(InfeasibleError):
        psi2_level_tree(bare, [])


def test_psi2_infeasible_chain():
    chain = WeightedTree(tree=RootedTree(root="o", parent={"a": "o", "b": "a"}),
                         weight={"o": 0, "a": 0, "b": 1})
    with pytest.raises(InfeasibleError):
        psi2_level_tree(chain, [1])
    ok = psi2_level_tree(chain, [1, 2])
    assert ok.level == {"o": 0, "a": -1, "b": -2}


def test_psi2_rejects_bad_indices(nested_tree):
    with pytest.raises(DomainError):
        psi2_level_tree(nested_tree.base, [2, 1])
    with pytest.raises(DomainError):
        psi2_level_tree(nested_tree.base, [0, 1])
    for bad in ([1.7], ["1"], [True], [1, 2.0]):
        with pytest.raises(DomainError, match="divisor indices must be ints"):
            psi2_level_tree(nested_tree.base, bad)


def test_bundle_identity_single_edge():
    t = make_level_tree("o", {"a": "o"}, {"o": 0, "a": 1}, {"o": 0, "a": -1})
    assert bundle_identity(t)


def test_bundle_identity_on_fixtures(nested_tree, deep_fan, boundary_tree):
    assert bundle_identity(nested_tree)
    assert bundle_identity(deep_fan)
    assert bundle_identity(boundary_tree)


def test_bundle_identity_exhaustively_up_to_six_edges():
    for t in gen_instances(EnumSpec(max_edges=6, max_weight=1, max_levels=7)):
        if index_partition(t).i_plus:
            assert bundle_identity(t)


def test_psi2_chart_check_on_fixtures(nested_tree, deep_fan, boundary_tree):
    assert psi2_chart_check(nested_tree)
    assert psi2_chart_check(deep_fan)
    assert psi2_chart_check(boundary_tree)


def test_psi2_chart_check_with_empty_level_index():
    t = make_level_tree("o", {"a": "o"}, {"o": 1, "a": 1}, {"o": 0, "a": -1})
    assert psi2_chart_check(t)  # pure passthrough


def test_stage_ideals_on_nested_tree(nested_tree):
    gens, cumulative, factor = stage_ideals(nested_tree, 1)
    assert factor == parse_monomial("1")
    assert gens == cumulative
    gens2, cum2, factor2 = stage_ideals(nested_tree, 2)
    assert factor2 == parse_monomial("t:eps(-1)")
    assert gens2 == {parse_monomial("zch_a"), parse_monomial("zt_c"),
                     parse_monomial("zt_d")}
    assert cum2 == {g * factor2 for g in gens2}


def test_ideal_transform_check_all_steps(nested_tree, deep_fan):
    for t in (nested_tree, deep_fan):
        doubled = WeightedLevelTree(base=t.base, level={v: 2 * x for v, x in t.level.items()})
        for step in range(1, len(index_partition(t).i_plus) + 3):
            assert ideal_transform_check(t, step)
            assert ideal_transform_check(doubled, step)
        # a stage is a level rank, so every level map of the class has the
        # same stages, cut out by the same edges
        for step in range(1, len(index_partition(t).i_plus) + 1):
            assert stage_ideals(doubled, step)[0] == stage_ideals(t, step)[0]
