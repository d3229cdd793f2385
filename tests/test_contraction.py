from fractions import Fraction

import pytest

from leveltree.contraction import (contract, index_identity_report,
                                   nested_contraction_coherent,
                                   verify_equivalence_compat)
from leveltree.enumerate import EnumSpec, gen_instances
from leveltree.errors import DomainError
from leveltree.levels import (WeightedLevelTree, index_partition,
                              level_data)

F = Fraction


def test_contracted_edges_on_nested_tree(nested_tree):
    assert contract(nested_tree, {F(-2)}).contracted == {"c", "d"}
    assert contract(nested_tree, {F(-1)}).contracted == {"b"}
    assert contract(nested_tree, {F(-1), F(-2)}).contracted == {"a", "b", "c", "d"}
    assert contract(nested_tree, set()).contracted == frozenset()


def test_contracted_edges_rejects_foreign_labels(nested_tree):
    with pytest.raises(DomainError):
        contract(nested_tree, {F(-3)})
    with pytest.raises(DomainError):
        contract(nested_tree, {"zz"})


def test_contract_lifts_to_the_surviving_level(nested_tree):
    res = contract(nested_tree, {F(-2)})
    assert res.tree.edges() == {"a", "b"}
    assert res.tree.level == {"o": 0, "a": -1, "b": -1}
    assert res.tree.weight == {"o": 0, "a": 1, "b": 2}
    assert res.projection["c"] == "b" and res.projection["d"] == "b"


def test_contract_collapses_the_middle_vertex(nested_tree):
    res = contract(nested_tree, {F(-1)})
    assert res.tree.edges() == {"a", "c", "d"}
    assert res.tree.level == {"o": 0, "a": -2, "c": -2, "d": -2}
    assert res.projection["b"] == "o"


def test_contract_with_empty_subset_is_identity(nested_tree):
    res = contract(nested_tree, set())
    assert res.tree.level == nested_tree.level
    assert res.tree.base == nested_tree.base


def test_total_contraction_leaves_the_weighted_point(nested_tree, deep_fan):
    for t in (nested_tree, deep_fan):
        res = contract(t, index_partition(t).labels())
        assert res.tree.edges() == frozenset()
        assert res.tree.weight == {"o": t.base.total_weight()}


def test_index_identities_on_nested_tree(nested_tree):
    rep = index_identity_report(nested_tree, {F(-2)})
    assert rep.all_strict() and rep.all_corrected()
    assert index_partition(contract(nested_tree, {F(-2)}).tree).i_plus == {F(-1)}


def test_boundary_dropout_is_the_only_strict_failure(boundary_tree):
    rep = index_identity_report(boundary_tree, {F(-2)})
    assert rep.m_ok and rep.plus_ok and rep.mid_ok
    assert not rep.minus_ok_strict
    assert rep.minus_ok_corrected
    assert rep.dropouts == {"q"}


def test_dropout_edge_lands_in_the_minus_part(boundary_tree):
    res = contract(boundary_tree, {F(-2)})
    part = index_partition(res.tree)
    assert "q" in part.i_minus
    assert level_data(res.tree).m == -1


def test_identities_exhaustively_small():
    for t in gen_instances(EnumSpec(max_edges=3, max_weight=1)):
        for I in index_partition(t).subsets():
            assert index_identity_report(t, I).all_corrected()


def test_weight_conservation_exhaustively_small():
    for t in gen_instances(EnumSpec(max_edges=3, max_weight=2)):
        total = t.base.total_weight()
        for I in index_partition(t).subsets():
            assert contract(t, I).tree.base.total_weight() == total


def test_equivalence_compat(nested_tree):
    doubled = WeightedLevelTree(base=nested_tree.base,
                                level={v: 2 * x for v, x in nested_tree.level.items()})
    for I in index_partition(nested_tree).subsets():
        assert verify_equivalence_compat(nested_tree, doubled, I)
    assert verify_equivalence_compat(nested_tree, nested_tree, {F(-1)})


def test_equivalence_compat_requires_equivalence(nested_tree):
    other = WeightedLevelTree(
        base=nested_tree.base,
        level={"o": 0, "a": -2, "b": -1, "c": -3, "d": -2})
    with pytest.raises(DomainError):
        verify_equivalence_compat(nested_tree, other, set())


def test_contraction_depends_only_on_the_class(deep_fan):
    deeper = WeightedLevelTree(
        base=deep_fan.base,
        level={v: (x if x >= -3 else x - 2) for v, x in deep_fan.level.items()})
    for I in index_partition(deep_fan).subsets():
        assert verify_equivalence_compat(deep_fan, deeper, I)


def test_nested_contraction_coherence_exhaustively_small():
    for t in gen_instances(EnumSpec(max_edges=3, max_weight=1)):
        part = index_partition(t)
        for I in part.subsets():
            inner = index_partition(contract(t, I).tree)
            for I2 in inner.subsets():
                assert nested_contraction_coherent(t, I, I2), (t.level, I, I2)


def test_surviving_cross_sections_are_preserved():
    for t in gen_instances(EnumSpec(max_edges=3, max_weight=1)):
        from leveltree.levels import cross_section
        part = index_partition(t)
        for I in part.subsets():
            res = contract(t, I)
            for i in index_partition(res.tree).i_plus:
                assert cross_section(t, i) == cross_section(res.tree, i)
