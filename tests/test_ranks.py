"""The rank tables against plain ``Fraction`` scans, exhaustively over every
instance with at most four edges and weights at most 2.

The references below are the definitions the rank-based code replaced:
pairwise level comparisons, scans over the occupied levels and set-based
readings of index subsets.  The trees ``contract`` derives without
validation, and the rank tables it hands them, are checked against the same
maps rebuilt through the public constructors."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

import leveltree.levels as levels_mod
from leveltree.checks import SUITES, RunReport, run_checks
from leveltree.contraction import contract, verify_equivalence_compat
from leveltree.enumerate import EnumSpec, gen_instances
from leveltree.errors import DomainError
from leveltree.levels import (IndexSubset, WeightedLevelTree, cross_section, edge_span,
                              index_partition, is_equivalent, level_data,
                              level_successor, make_level_tree, phi_bijection)

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
        assert t.ranks().levels == tuple(occ)
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


def renamed(t):
    """``t`` with each name prefixed by the vertex's depth, so that the
    vertices of one level no longer sort in preorder."""
    def name(v):
        return f"{len(t.tree.root_path(v))}{v}"
    return make_level_tree(name(t.root), {name(c): name(p) for c, p in t.tree.parent.items()},
                           {name(v): w for v, w in t.weight.items()},
                           {name(v): x for v, x in t.level.items()})


def test_contractions_match_their_validated_rebuilds(instances):
    for t in instances:
        for tree in (t, relevel(t, lambda x: 2 * x), relevel(t, lambda x: F(3, 2) * x),
                     renamed(t)):
            for I in index_partition(tree).subsets():
                nt = contract(tree, I).tree
                rebuilt = make_level_tree(nt.root, dict(nt.tree.parent),
                                          dict(nt.weight), dict(nt.level))
                assert nt.base == rebuilt.base and nt.level == rebuilt.level
                assert list(nt.tree.preorder()) == list(rebuilt.tree.preorder())
                assert nt.ranks() == rebuilt.ranks()


def test_each_equivalence_is_proven_once_per_partner_object(nested_tree, monkeypatch):
    proofs = []

    def counted(t, t2):
        proofs.append(t2)
        return is_equivalent(t, t2)

    monkeypatch.setattr(levels_mod, "is_equivalent", counted)
    t = nested_tree
    good = relevel(t, lambda x: 2 * x)
    bad = split_a_class(t)
    subsets = index_partition(t).subsets()
    for subset in (subsets[3], subsets[-1]):
        assert phi_bijection(t, good, subset) == phi_bijection(
            t, relevel(t, lambda x: 2 * x), subset)
        assert verify_equivalence_compat(t, good, subset)
        for _ in range(2):
            with pytest.raises(DomainError):
                phi_bijection(t, bad, subset)
            with pytest.raises(DomainError):
                verify_equivalence_compat(t, bad, subset)
        assert verify_equivalence_compat(t, good, subset)
    # one proof per partner object; the two fresh ×2 relevelings are distinct
    # objects equal in value, each proven on its own
    assert [p is good or p is bad for p in proofs] == [True, False, True, False]
    twin = WeightedLevelTree(base=bad.base, level=dict(bad.level))
    with pytest.raises(DomainError):
        phi_bijection(t, twin, subsets[3])
    assert proofs[-1] is twin and len(proofs) == 5


def reference_read(t, labels):
    """A label set read on ``t`` by sets and the rank table: the rank mask of
    its level part and its two edge parts, or the error text of its labels
    outside the index set."""
    part = index_partition(t)
    bad = labels - part.labels()
    if bad:
        return f"labels outside the index set: {sorted(map(str, bad))}"
    of_level = t.ranks().of_level
    return (sum(1 << of_level[x] for x in labels & part.i_plus),
            labels & part.i_m, labels & part.i_minus)


def read_on(t, labels):
    """``reference_read``'s result from ``IndexPartition.read``."""
    try:
        sub = index_partition(t).read(labels)
    except DomainError as exc:
        return str(exc)
    assert type(sub) is IndexSubset and sub == labels
    return sub.plus_mask, sub.i_m, sub.i_minus


def test_a_subset_and_its_labels_read_alike(instances):
    for t in instances:
        part = index_partition(t)
        masks = set()
        for I in part.subsets():
            plain = frozenset(I)
            assert type(plain) is frozenset
            sub = part.read(plain)
            assert part.read(I) is I
            assert (sub.mask, sub) == (I.mask, I)
            assert read_on(t, plain) == read_on(t, I) == reference_read(t, plain)
            masks.add(I.mask)
        # bit 0 stands for level 0, which is no label
        assert masks == set(range(0, 2 << len(part), 2))
        assert [I.mask for I in part.level_parts()] == \
            [I.mask for I in part.subsets() if I <= part.i_plus]


def test_subsets_from_a_second_copy_read_as_the_enumerated_ones(instances):
    """Plain frozensets of the labels of a second copy of the tree, as the
    benchmark builds them (level objects shared), and of a copy with new
    level objects, reach the results of the enumerated subsets."""
    for t in instances[::3]:
        part = index_partition(t)
        enumerated = {frozenset(I): I for I in part.subsets()}
        shared = make_level_tree(t.root, dict(t.tree.parent), dict(t.weight), dict(t.level))
        fresh = make_level_tree(t.root, dict(t.tree.parent), dict(t.weight),
                                {v: str(x) for v, x in t.level.items()})
        for copy in (shared, fresh):
            labels = sorted(index_partition(copy).labels(), key=str)
            plain = [frozenset(c) for n in range(len(labels) + 1)
                     for c in itertools.combinations(labels, n)]
            assert len(plain) == len(enumerated)
            for P in plain:
                I = enumerated[P]
                assert part.read(P).mask == I.mask
                assert contract(t, P) is contract(t, I)
                assert contract(t, I) is contract(t, P)


def test_a_subset_of_another_tree_is_read_by_its_labels(instances):
    """A subset enumerated on ``t``, given to a releveling, to a contraction of
    ``t`` or to another tree, reads as its plain labels do there: never by
    its mask, and labels outside that index set raise as they always have."""
    foreign = Counter()
    for t, other in zip(instances, instances[1:] + instances[:1]):
        subsets = index_partition(t).subsets()
        trees = [relevel(t, lambda x: 2 * x), relevel(t, lambda x: F(3, 2) * x),
                 contract(t, subsets[len(subsets) // 2]).tree, other]
        for I in subsets:
            for tree in trees:
                got = read_on(tree, I)
                assert got == read_on(tree, frozenset(I)) == reference_read(tree, I)
                if isinstance(got, str):
                    foreign["refused"] += 1
                elif got[0] != I.plus_mask:
                    foreign["moved ranks"] += 1
    assert foreign["refused"] and foreign["moved ranks"]
    with pytest.raises(DomainError, match=r"labels outside the index set: \['-1/3', 'zz'\]"):
        index_partition(instances[-1]).read({F(-1, 3), "zz"})


def test_phi_bijection_moves_a_subset_with_its_mask(instances):
    """The transported subset keeps its mask on the partner tree: its labels,
    read there as a plain set, give the same mask."""
    for t in instances[::2]:
        m = level_data(t).m
        for t2 in (relevel(t, lambda x: 2 * x),
                   relevel(t, lambda x: x if x >= m else x - 1)):
            part2 = index_partition(t2)
            for I in index_partition(t).subsets():
                moved = phi_bijection(t, t2, I)
                assert moved.part is part2
                assert part2.read(frozenset(moved)).mask == moved.mask == I.mask


def test_a_suite_pass_compares_few_fractions(monkeypatch):
    """The contraction and charts suites read each index subset by its labels
    once and go by ranks from there: one pass on the nested README tree
    makes about 770 ``Fraction`` comparisons and 154 hashes (about 3,350 and
    883 before subsets carried their masks; the comparisons vary by a few
    with the string hash seed); the bounds are about twice that."""
    t = make_level_tree(root="o", parent={"a": "o", "b": "o", "c": "b", "d": "b"},
                        weight={"o": 0, "a": 1, "b": 0, "c": 1, "d": 1},
                        level={"o": 0, "a": -2, "b": -1, "c": -2, "d": -2})
    calls = Counter()
    real_eq, real_hash = Fraction.__eq__, Fraction.__hash__

    def eq(a, b):
        calls["eq"] += 1
        return real_eq(a, b)

    def hash_(a):
        calls["hash"] += 1
        return real_hash(a)

    report = RunReport(suite="contraction and charts")
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__eq__", eq)
        patch.setattr(Fraction, "__hash__", hash_)
        run_checks(t, SUITES["contraction"] + SUITES["charts"], report, "nested")
    assert report.ok() and report.instances == 47
    assert calls["eq"] <= 1550 and calls["hash"] <= 310, calls
