from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import leveltree.contraction as contraction_mod
import leveltree.tree as tree_mod
from leveltree.checks import SUITES, RunReport, relevelings, run_checks
from leveltree.contraction import (ContractionResult, contract, index_identity_report,
                                   nested_contraction_coherent,
                                   verify_equivalence_compat)
from leveltree.enumerate import EnumSpec, gen_instances
from leveltree.errors import DomainError
from leveltree.levels import (LevelRanks, WeightedLevelTree, _derived_level_tree,
                              index_partition, level_data)
from leveltree.tree import _derived_weighted_tree
from test_ranks import renamed

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


def reference_contract(t, subset) -> ContractionResult:
    """The contraction as it was written before the one-pass kernel: the
    collapsed edges as a set, a projection walk, and each surviving edge's
    rank from a scan of the kept ranks."""
    part = index_partition(t)
    sub = part.read(subset)
    data = level_data(t)
    plus_mask, i_m = sub.plus_mask, sub.i_m
    gone = set(sub.i_minus)
    for e in (data.hat_edges - part.i_m) | i_m:
        if not data.span[e] & ~plus_mask:
            gone.add(e)
    gone = frozenset(gone)
    tree = t.tree
    root, parent = tree.root, tree.parent
    proj = {root: root}
    new_parent = {}
    for v in tree.preorder():
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
    ranks = t.ranks()
    rank = ranks.of_vertex
    kept = [k for k in range(1, data.m_rank + 1) if not plus_mask >> k & 1]
    new_rank = {root: 0}
    for e in new_parent:
        if e in data.hat_edges and e not in part.i_m:
            above = [k for k in kept if k <= rank[e]]
            if not above:
                raise DomainError(f"no surviving level dominates the class of {e!r}")
            new_rank[e] = above[-1]
        elif e in i_m:
            if not kept:
                raise DomainError("a surviving lifted edge needs a surviving level")
            new_rank[e] = kept[-1]
        else:
            new_rank[e] = rank[e]
    used = tuple(sorted(set(new_rank.values())))
    renumber = {r: k for k, r in enumerate(used)}
    of_vertex = {v: renumber[r] for v, r in new_rank.items()}
    at = [[] for _ in used]
    for v in sorted(of_vertex):
        at[of_vertex[v]].append(v)
    levels = tuple(ranks.levels[r] for r in used)
    new_tree = _derived_level_tree(
        _derived_weighted_tree(root, new_parent, new_weight),
        {v: levels[k] for v, k in of_vertex.items()},
        LevelRanks(levels=levels, of_vertex=of_vertex, at=tuple(map(tuple, at))))
    return ContractionResult(tree=new_tree, projection=proj, contracted=gone, used=used)


def test_contract_matches_the_reference():
    """Every <=4-edge instance, its three relevelings and a renamed copy,
    along every index subset: the same maps, in the same order, the same
    rank table and the same preorder as the reference."""
    cases = 0
    for t in gen_instances(EnumSpec(max_edges=4, max_weight=2)):
        for tree in (t, *relevelings(t), renamed(t)):
            for I in index_partition(tree).subsets():
                got, want = contract(tree, I), reference_contract(tree, I)
                g, w = got.tree, want.tree
                assert list(g.tree.parent.items()) == list(w.tree.parent.items())
                assert list(g.weight.items()) == list(w.weight.items())
                assert list(g.level.items()) == list(w.level.items())
                assert (got.projection, got.contracted, got.used) \
                    == (want.projection, want.contracted, want.used)
                gr, wr = g.ranks(), w.ranks()
                assert (gr.levels, list(gr.of_vertex.items()), gr.at) \
                    == (wr.levels, list(wr.of_vertex.items()), wr.at)
                assert list(g.tree.preorder()) == list(w.tree.preorder())
                cases += 1
    assert cases > 200000


def _lift_skipping_a_kept_rank(monkeypatch):
    """The kernel's lift table skips the lowest level left standing whenever
    another stands above it."""
    real = contraction_mod._lift

    def skipping(m_rank, plus_mask):
        lift = real(m_rank, plus_mask)
        kept = sorted({k for k in lift if k is not None})
        if len(kept) < 2:
            return lift
        return [kept[-2] if k == kept[-1] else k for k in lift]

    monkeypatch.setattr(contraction_mod, "_lift", skipping)


def _moving_contracted_weights(to_root):
    """A kernel that takes the weight of every contracted vertex off the
    root, dropping it from the total, or with ``to_root`` moves it from the
    vertex it lands on to the root, keeping the total."""
    def plant(monkeypatch):
        real = contraction_mod.contract

        def moving(t, subset):
            res = real(t, subset)
            nt = res.tree
            weight = dict(nt.weight)
            for v in res.contracted:
                w = t.weight[v]
                if to_root:
                    weight[res.projection[v]] -= w
                    weight[t.root] += w
                else:
                    weight[t.root] -= w
            base = _derived_weighted_tree(nt.root, nt.tree.parent, weight)
            return replace(res, tree=_derived_level_tree(base, nt.level, nt.ranks()))

        monkeypatch.setattr(contraction_mod, "contract", moving)
    return plant


def _phi_dropping_the_minus_part(monkeypatch):
    """The transport of a subset along an equivalence loses its ``I_minus``
    edges."""
    real = contraction_mod.phi_bijection

    def dropping(t, t2, subset):
        moved = real(t, t2, subset)
        return index_partition(t2).read(frozenset(moved) - moved.i_minus)

    monkeypatch.setattr(contraction_mod, "phi_bijection", dropping)


# a plausible fault of the kernel or of its helpers, and the contraction
# checks that must fail under it
PLANTED = {
    "lift-skips-a-kept-rank": (_lift_skipping_a_kept_rank, ("index-identities",)),
    "weights-dropped": (_moving_contracted_weights(to_root=False),
                        ("weight-conservation", "contract-validity")),
    "weights-sent-to-the-root": (_moving_contracted_weights(to_root=True),
                                 ("weight-conservation",)),
    "phi-drops-the-minus-part": (_phi_dropping_the_minus_part, ("equivalence-compat",)),
}


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_a_planted_fault_fails_its_check(monkeypatch, fault):
    """Each planted fault makes the checks named for it fail somewhere on the
    <=3-edge representatives, so those checks are no copy of the kernel."""
    from test_checks import _failures
    plant, caught = PLANTED[fault]
    plant(monkeypatch)
    failed = _failures("contraction")
    assert all(failed[name] for name in caught), failed


def test_a_suite_pass_builds_each_plan_once(nested_tree, monkeypatch):
    """One contraction-suite pass builds the plan of the tree and of each of
    its three relevelings once, and no child lists of the contracted trees,
    which nothing walks: the only child lists built are those of the trees
    ``contract-validity`` rebuilds, one per subset."""
    plans, walked, results = Counter(), [], []
    real_plan = contraction_mod._contraction_plan
    real_lists = tree_mod._child_lists
    real_contract = contraction_mod.contract

    def plan_spy(t):
        plans[id(t)] += 1
        return real_plan(t)

    def lists_spy(root, parent):
        walked.append(parent)
        return real_lists(root, parent)

    def contract_spy(t, subset):
        results.append(real_contract(t, subset))
        return results[-1]

    monkeypatch.setattr(contraction_mod, "_contraction_plan", plan_spy)
    monkeypatch.setattr(tree_mod, "_child_lists", lists_spy)
    monkeypatch.setattr(contraction_mod, "contract", contract_spy)
    report = RunReport(suite="contraction")
    run_checks(nested_tree, SUITES["contraction"], report, "nested")
    subsets = len(index_partition(nested_tree).subsets())
    assert report.ok() and subsets == 4
    assert sorted(plans.values()) == [1, 1, 1, 1]
    contracted = {id(res.tree.tree.parent) for res in results}
    assert len(results) >= 5 * subsets
    assert not [p for p in walked if id(p) in contracted]
    assert len(walked) <= subsets
