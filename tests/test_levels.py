import itertools
from fractions import Fraction

import pytest

from leveltree.charts import build_chart
from leveltree.enumerate import EnumSpec, gen_instances
from leveltree.errors import DomainError, StructureError
from leveltree.levels import (WeightedLevelTree, as_level, ascent_sequence,
                              canonical_form, cross_section, edge_span, index_partition,
                              is_equivalent, level_data, level_successor,
                              make_level_tree, phi_bijection, special_choices)

F = Fraction


def test_level_map_validation():
    with pytest.raises(StructureError):  # root not at 0
        make_level_tree("o", {"a": "o"}, {"o": 0, "a": 1}, {"o": -1, "a": -2})
    with pytest.raises(StructureError):  # a second vertex at 0
        make_level_tree("o", {"a": "o"}, {"o": 0, "a": 1}, {"o": 0, "a": 0})
    with pytest.raises(StructureError):  # not strictly decreasing
        make_level_tree("o", {"a": "o", "b": "a"}, {"o": 0, "a": 0, "b": 1},
                        {"o": 0, "a": -2, "b": -1})
    # a float has already been rounded to binary, and a bool is no level
    edge = ("o", {"a": "o"}, {"o": 0, "a": 1})
    base = make_level_tree(*edge, {"o": 0, "a": -1}).base
    for bad, level in [(-0.1, {"o": 0, "a": -0.1}), (-1.0, {"o": 0, "a": -1.0}),
                       (True, {"o": 0, "a": True}), (False, {"o": False, "a": -1})]:
        message = f"^level {bad!r} must be an int, a Fraction or a string"
        with pytest.raises(StructureError, match=message):
            make_level_tree(*edge, level)
        with pytest.raises(StructureError, match=message):
            WeightedLevelTree(base=base, level=level)
    assert make_level_tree(*edge, {"o": "0", "a": F(-1, 3)}).level["a"] == F(-1, 3)


def test_level_text_is_read_exactly_or_refused_before_scaling():
    assert [as_level(x) for x in [" -3/2 ", "-1.5e1", "-.25", "-2e-3", "-1" + "0" * 999]] \
        == [F(-3, 2), F(-15), F(-1, 4), F(-1, 500), -10 ** 999]
    malformed = "expected an exact rational such as -1 or -3/2"
    for text, reason in [("x", malformed), ("-1/0", malformed), ("1_0", malformed),
                         ("-1/-2", malformed), ("-1e", malformed), ("-1e5000", "1000 digits"),
                         ("-1e-5000", "1000 digits"), ("-1e10000000", "1000 digits"),
                         ("-0e1000", "1000 digits"), ("-1" + "0" * 1000, "1000 digits")]:
        with pytest.raises(DomainError, match=f"^bad level '.*': .*{reason}"):
            as_level(text)


def test_level_map_validation_on_fractional_levels():
    path = ("o", {"a": "o", "b": "a"}, {"o": 0, "a": 0, "b": 1})
    t = make_level_tree(*path, {"o": "0", "a": "-1/3", "b": "-1/2"})
    assert t.level == {"o": 0, "a": F(-1, 3), "b": F(-1, 2)}
    decrease = r"^levels must strictly decrease along edges \('a' -> 'b'\)$"
    with pytest.raises(StructureError, match=decrease):
        make_level_tree(*path, {"o": "0", "a": "-1/2", "b": "-1/3"})
    with pytest.raises(StructureError, match=decrease):  # -2/4 == -1/2
        make_level_tree(*path, {"o": "0", "a": "-2/4", "b": "-1/2"})
    with pytest.raises(StructureError, match=r"^level of 'b' must be nonpositive$"):
        make_level_tree(*path, {"o": "0", "a": "-1/3", "b": "1/7"})


def test_level_data_on_nested_tree(nested_tree):
    data = level_data(nested_tree)
    assert data.m == -2
    assert data.hat_edges == {"a", "b", "c", "d"}
    assert data.edge_level == {"a": -2, "b": -1, "c": -2, "d": -2}


def test_level_data_on_deep_fan(deep_fan):
    data = level_data(deep_fan)
    assert data.m == -3
    part = index_partition(deep_fan)
    assert part.i_plus == {F(-1), F(-2), F(-3)}
    assert part.i_m == {"w0", "b4"}
    assert part.i_minus == {"b3", "c1", "c2"}


def test_level_data_needs_positive_weight():
    t = make_level_tree("o", {"a": "o"}, {"o": 0, "a": 0}, {"o": 0, "a": -1})
    with pytest.raises(DomainError):
        level_data(t)


def test_root_weighted_tree_has_empty_level_index():
    t = make_level_tree("o", {"a": "o"}, {"o": 2, "a": 0}, {"o": 0, "a": -1})
    data = level_data(t)
    part = index_partition(t)
    assert data.m == 0
    assert data.hat_edges == frozenset()
    assert part.i_plus == frozenset()
    assert part.i_minus == {"a"}


def test_level_successor(deep_fan):
    assert level_successor(deep_fan, -1) == 0
    assert level_successor(deep_fan, -2) == -1
    assert level_successor(deep_fan, -3) == -2
    with pytest.raises(DomainError):
        level_successor(deep_fan, 0)
    with pytest.raises(DomainError):
        level_successor(deep_fan, F(-5, 2))


def test_cross_sections_on_nested_tree(nested_tree):
    assert cross_section(nested_tree, -1) == {"a", "b"}
    assert cross_section(nested_tree, -2) == {"a", "c", "d"}
    with pytest.raises(DomainError):
        cross_section(nested_tree, -3)


def test_cross_section_single_edge():
    t = make_level_tree("o", {"a": "o"}, {"o": 0, "a": 1}, {"o": 0, "a": -1})
    assert cross_section(t, -1) == {"a"}


def test_ascent_sequences(deep_fan, deep_fan_special):
    assert ascent_sequence(deep_fan, deep_fan_special, -3) == (-3, -2, 0)
    assert ascent_sequence(deep_fan, deep_fan_special, -1) == (-1, 0)
    assert ascent_sequence(deep_fan, deep_fan_special, -2) == (-2, 0)


def test_ascent_rejects_bad_special(deep_fan, deep_fan_special):
    bad = dict(deep_fan_special)
    bad[F(-1)] = "v2"  # wrong level
    with pytest.raises(DomainError):
        ascent_sequence(deep_fan, bad, -1)


def test_ascent_terminates_at_zero_and_increases(deep_fan, deep_fan_special):
    for i in index_partition(deep_fan).i_plus:
        seq = ascent_sequence(deep_fan, deep_fan_special, i)
        assert seq[-1] == 0
        assert all(a < b for a, b in zip(seq, seq[1:]))


def test_default_special_picks_smallest_name(nested_tree):
    assert build_chart(nested_tree).frame.special == {F(-1): "b", F(-2): "a"}
    assert special_choices(nested_tree)[F(-2)] == ("a", "c", "d")


def test_edge_span(nested_tree):
    assert edge_span(nested_tree, "a") == {F(-1), F(-2)}
    assert edge_span(nested_tree, "c") == {F(-2)}


def test_equivalence_under_rescaling(nested_tree):
    doubled = WeightedLevelTree(base=nested_tree.base,
                                level={v: 2 * x for v, x in nested_tree.level.items()})
    assert is_equivalent(nested_tree, doubled)
    assert is_equivalent(doubled, nested_tree)
    assert is_equivalent(nested_tree, nested_tree)


def test_equivalence_detects_reordering(nested_tree):
    moved = WeightedLevelTree(
        base=nested_tree.base,
        level={"o": 0, "a": -2, "b": -1, "c": -3, "d": -2})
    assert not is_equivalent(nested_tree, moved)


def test_equivalence_ignores_structure_below_the_weighted_frontier(deep_fan):
    deeper = WeightedLevelTree(
        base=deep_fan.base,
        level={v: (x if x >= -3 else x - 5) for v, x in deep_fan.level.items()})
    assert is_equivalent(deep_fan, deeper)
    assert is_equivalent(deeper, deep_fan)


def test_equivalence_is_an_equivalence_relation_on_relabelings(nested_tree, deep_fan):
    for t in (nested_tree, deep_fan):
        variants = [t,
                    WeightedLevelTree(base=t.base,
                                      level={v: 2 * x for v, x in t.level.items()}),
                    WeightedLevelTree(base=t.base,
                                      level={v: F(3, 2) * x for v, x in t.level.items()}),
                    canonical_form(t)]
        for a, b in itertools.product(variants, repeat=2):
            assert is_equivalent(a, b)
            assert is_equivalent(b, a)
        for a, b, c in itertools.product(variants, repeat=3):
            if is_equivalent(a, b) and is_equivalent(b, c):
                assert is_equivalent(a, c)


def test_weighted_frontier_is_preserved_by_equivalence():
    # the bottom weighted level corresponds across any equivalence, even when
    # the numeric values disagree
    for t in gen_instances(EnumSpec(max_edges=3, max_weight=1)):
        m = level_data(t).m
        doubled = WeightedLevelTree(base=t.base,
                                    level={v: 2 * x for v, x in t.level.items()})
        m2 = level_data(doubled).m
        assert {v for v in t.level if t.level[v] >= m} == \
            {v for v in doubled.level if doubled.level[v] >= m2}


def test_canonical_form_is_idempotent_and_equivalent(deep_fan, nested_tree):
    for t in (deep_fan, nested_tree):
        c = canonical_form(t)
        assert is_equivalent(t, c)
        assert canonical_form(c).level == c.level


def test_canonical_form_renumbers_levels():
    t = make_level_tree("o", {"a": "o", "b": "a"}, {"o": 0, "a": 0, "b": 1},
                        {"o": 0, "a": F(-1, 2), "b": -3})
    c = canonical_form(t)
    assert c.level == {"o": 0, "a": -1, "b": -2}


def test_canonical_form_keeps_chains_below_the_frontier_strict(deep_fan):
    c = canonical_form(deep_fan)
    assert c.level["w0"] == -4 and c.level["c1"] == -5
    assert is_equivalent(deep_fan, c)


def test_phi_bijection_examples(nested_tree):
    doubled = WeightedLevelTree(base=nested_tree.base,
                                level={v: 2 * x for v, x in nested_tree.level.items()})
    assert frozenset(phi_bijection(nested_tree, nested_tree, {F(-1)})) == {F(-1)}
    assert frozenset(phi_bijection(nested_tree, doubled, {F(-1)})) == {F(-2)}
    part = index_partition(nested_tree)
    for I in part.subsets():
        moved = phi_bijection(nested_tree, doubled, I)
        assert phi_bijection(doubled, nested_tree, moved).mask == I.mask


def test_phi_bijection_requires_equivalence(nested_tree):
    other = WeightedLevelTree(
        base=nested_tree.base,
        level={"o": 0, "a": -2, "b": -1, "c": -3, "d": -2})
    with pytest.raises(DomainError):
        phi_bijection(nested_tree, other, set())


def test_cross_section_contains_its_level_enders():
    for t in gen_instances(EnumSpec(max_edges=3, max_weight=1)):
        part = index_partition(t)
        for i in part.i_plus:
            enders = {e for e in t.edges() if t.level[e] == i}
            assert enders <= cross_section(t, i)
            assert cross_section(t, i)
