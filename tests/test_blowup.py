import itertools
import random
from fractions import Fraction

import pytest

from leveltree import blowup
from leveltree.blowup import (MAX_SECTIONS, bundle_identity, divisor_slots,
                              ideal_transform_check, order_compatible,
                              psi2_chart_check, psi2_level_tree, stage_ideals,
                              traverse_sections, twisted_bundles,
                              weight_contracted_tree, yk_pullback, zk_components)
from leveltree.checks import SUITES, RunReport, run_checks
from leveltree.enumerate import EnumSpec, gen_instances, gen_weighted_trees
from leveltree.errors import DomainError, InfeasibleError, VerificationError
from leveltree.levels import (WeightedLevelTree, cross_section, index_partition,
                              is_equivalent, level_data, make_level_tree)
from leveltree.monomial import Monomial, MonomialMap, Symbol, parse_monomial
from leveltree.tree import RootedTree, WeightedTree

F = Fraction


def is_traverse_section(tree, edges):
    """The definition: ``edges`` meets the path from each leaf to the root
    exactly once."""
    edges = frozenset(edges)
    leaves = tree.vertices - set(tree.parent.values())
    return edges <= tree.edges and all(len(edges.intersection(tree.root_path(leaf))) == 1
                                       for leaf in leaves)


def section_above(tree, s1, s2):
    """The section order: ``s1 > s2`` iff they differ and every edge of
    ``s1`` lies at or above some edge of ``s2``."""
    above = frozenset().union(*(tree.root_path(e)[:-1] for e in s2))
    return frozenset(s1) != frozenset(s2) and frozenset(s1) <= above


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
    assert section_above(tree, {"a", "b"}, {"a", "c", "d"})
    assert not section_above(tree, {"a", "c", "d"}, {"a", "b"})
    assert not section_above(tree, {"a", "b"}, {"a", "b"})


def test_incomparable_sections():
    tree = RootedTree(root="o", parent={"a": "o", "b": "o", "p": "a", "q": "b"})
    assert not section_above(tree, {"p", "b"}, {"a", "q"})
    assert not section_above(tree, {"a", "q"}, {"p", "b"})


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
                    upper, lower = cross_section(t, j), cross_section(t, i)
                    assert upper == lower or section_above(t.tree, upper, lower)


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
    return not any(section_above(bar, s1, s2) and len(s1) >= len(s2)
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
    assert zk_components(nested_tree, 1) == frozenset()
    assert zk_components(nested_tree, 2) == {frozenset({"a", "b"})}
    assert zk_components(nested_tree, 3) == {frozenset({"a", "b"}),
                                             frozenset({"a", "c", "d"})}
    with pytest.raises(DomainError):
        zk_components(nested_tree, 0)


def test_yk_pullback_values(nested_tree):
    assert yk_pullback(nested_tree, 1) == parse_monomial("1")
    assert yk_pullback(nested_tree, 2) == parse_monomial("eps(-1)")
    assert yk_pullback(nested_tree, 3) == parse_monomial("eps(-1) * eps(-2)")
    assert yk_pullback(nested_tree, 4) == parse_monomial("eps(-1) * eps(-2)")


def test_yk_pullback_is_monotone_in_k():
    for t in gen_instances(EnumSpec(max_edges=4, max_weight=1), stable_only=True):
        prev = parse_monomial("1")
        for k in range(1, len(t.edges()) + 1):
            zk_components(t, k)  # raises without a witness edge
            cur = yk_pullback(t, k)
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


# -- the per-k, per-stage and per-edge definitions the blowup tables replace --

def reference_qualifying_ranks(t, k):
    """The cross-sections counted from their definition, on ``Fraction``
    levels: ``edge_level(e) <= i < level(v_e^+)``."""
    data = level_data(t)
    levels = t.ranks().levels
    return [r for r in range(1, data.m_rank + 1)
            if sum(data.edge_level[e] <= levels[r] < t.level[t.tree.parent[e]]
                   for e in data.hat_edges) <= k]


def reference_yk_pullback(t, k):
    """The gap coordinates of the qualifying ranks of ``k``, multiplied afresh."""
    levels = t.ranks().levels
    return Monomial.product(Monomial.sym(Symbol("eps", levels[r]))
                            for r in reference_qualifying_ranks(t, k))


def reference_zk_components(t, sections, k):
    """Every section filtered for each ``k``, each component checked for a
    witness edge against the qualifying ranks of ``k``."""
    data = level_data(t)
    keep = data.hat_edges - index_partition(t).i_m
    closed = sum(1 << r for r in reference_qualifying_ranks(t, k))
    components = frozenset(s for s in sections if len(s) <= k and s & keep)
    for s in components:
        if not any(not data.span[e] & ~closed for e in s & keep):
            raise VerificationError(
                "no witness edge places the component inside the divisor", witness=s)
    return components


def reference_stage_factor(t, step):
    levels = t.ranks().levels
    return Monomial.product(Monomial.sym(Symbol("t:eps", levels[j]))
                            for j in range(1, step))


def ancestor_bundle(t, e):
    """The product of the basis classes over all edges at or above ``e``."""
    return Monomial.product(Monomial.sym(Symbol("L", a))
                            for a in t.tree.root_path(e)[:-1])


def reference_bundle_sides(t):
    """Both sides of the bundle identity per hat edge, each built from its
    ancestors."""
    data = level_data(t)
    by_rank, by_edge = twisted_bundles(t)
    out = {}
    for e, k in data.edge_rank.items():
        lhs = by_edge[e] * Monomial.product(by_edge[a] / by_rank[data.edge_rank[a]]
                                            for a in t.tree.root_path(e)[1:-1])
        out[e] = lhs, ancestor_bundle(t, e) / Monomial.product(by_rank[1:k])
    return out


def reference_psi2_level_tree(tau, idx):
    """Every slot scanned with ``Fraction`` compares for each vertex."""
    slots = [F(-i) for i in idx]
    if not slots and tau.weight[tau.root] == 0:
        raise InfeasibleError("an empty index needs a positively weighted root")
    bottom = slots[-1] if slots else F(0)
    level = {tau.root: F(0)}
    for v in tau.tree.preorder():
        if v == tau.root:
            continue
        par_level = level[tau.tree.parent[v]]
        cap = bottom if tau.weight[v] > 0 else F(0)
        candidates = [s for s in slots if s < par_level and s <= cap]
        level[v] = max(candidates) if candidates else min(par_level, bottom) - 1
    out = WeightedLevelTree(base=tau, level=level)
    if index_partition(out).i_plus != frozenset(slots):
        raise InfeasibleError(f"no level map over this tree has level index {sorted(slots)}")
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (VerificationError, InfeasibleError) as exc:
        return type(exc), str(exc)


def _agrees_with_the_references(t, seen: set):
    """The blowup tables of ``t`` against the per-k, per-stage and per-edge
    definitions; ``t`` needs a positive weight.  The reconstruction reads
    only the weighted tree and the indices, so pairs in ``seen`` are
    skipped."""
    sections = traverse_sections(weight_contracted_tree(t.base))
    n = len(t.edges())
    for k in range(1, n + 1):
        assert _outcome(zk_components, t, k) \
            == _outcome(reference_zk_components, t, sections, k)
    # in order, as the report asks, then from the top down
    for k in [*range(1, n + 1), *range(n, 0, -1)]:
        assert yk_pullback(t, k) == reference_yk_pullback(t, k)
    m_rank = level_data(t).m_rank
    # in order, as the checks ask, then from the bottom up
    for step in [*range(1, m_rank + 1), *range(m_rank, 0, -1)]:
        assert stage_ideals(t, step)[2] == reference_stage_factor(t, step)
    if m_rank:
        assert {e: (lhs, rhs) for e, lhs, rhs in blowup._bundle_sides(t)} \
            == reference_bundle_sides(t)
    slots = divisor_slots(t)
    base = (tuple(sorted(t.tree.parent.items())), tuple(sorted(t.weight.items())))
    for idx in (slots, slots[1:], [i + 1 for i in slots], slots[:-1] + [n + 2]):
        if (base, tuple(idx)) in seen:
            continue
        seen.add((base, tuple(idx)))
        new = _outcome(psi2_level_tree, t.base, idx)
        ref = _outcome(reference_psi2_level_tree, t.base, idx)
        if isinstance(ref, WeightedLevelTree):
            assert new.level == ref.level
            assert all(type(x) is F for x in new.level.values())
        else:
            assert new == ref


def test_blowup_tables_match_the_references_exhaustively():
    classes = {}  # the blowup reads the tree, its positive vertices and levels
    for t in gen_instances(EnumSpec(max_edges=5, max_weight=2, max_levels=5)):
        classes.setdefault((tuple(sorted(t.tree.parent.items())),
                            frozenset(t.base.positive_vertices()),
                            tuple(sorted(t.level.items()))), t)
    seen = set()
    for t in classes.values():
        _agrees_with_the_references(t, seen)


def _seeded_tree(shape: str, n: int, rng: random.Random) -> WeightedLevelTree:
    """A path, a caterpillar (a spine with a leg on each upper vertex) or a
    broom (a handle ending in a star) of ``n`` edges, with seeded level gaps
    and weights on its lower part."""
    spine = {"path": n, "caterpillar": n - n // 2, "broom": n // 2}[shape]
    parent, weight, level = {}, {"o": 0}, {"o": F(0)}
    first = spine - spine // 4

    def add(v, up, lvl, weighted):
        parent[v], level[v] = up, lvl
        weight[v] = rng.choice((1, 2)) if weighted else 0

    for k in range(1, spine + 1):
        up = "o" if k == 1 else f"s{k - 1}"
        add(f"s{k}", up, level[up] - rng.choice((F(1, 2), F(1), F(3, 2))),
            shape != "broom" and k >= first)
    if shape == "caterpillar":
        for k in range(1, n - spine + 1):
            below = level[f"s{k + 1}"] if k < spine else level[f"s{k}"] - 1
            add(f"l{k}", f"s{k}", below, k >= first and rng.random() < 0.5)
    elif shape == "broom":
        for k in range(1, n - spine + 1):
            add(f"b{k}", f"s{spine}", level[f"s{spine}"] - F(1 + k % 2, 2),
                k == 1 or rng.random() < 0.7)
    return make_level_tree("o", parent, weight, level)


def test_blowup_tables_match_the_references_on_large_trees():
    rng = random.Random(14)
    for shape in ("path", "caterpillar", "broom"):
        for n in (24, 40, 56):
            _agrees_with_the_references(_seeded_tree(shape, n, rng), set())


def test_a_wrong_cached_section_size_fails_divisor_containment(nested_tree):
    report = RunReport(suite="blowup")
    run_checks(nested_tree, SUITES["blowup"], report, "nested")
    assert report.ok()
    # the deeper level's cross-section {a, c, d} cached as {a, b, c, d}: at
    # k = 3 the component {a, c, d} has no witness edge
    t = make_level_tree("o", nested_tree.tree.parent, nested_tree.weight, nested_tree.level)
    data = level_data(t)
    assert data.sections == (frozenset(), {"a", "b"}, {"a", "c", "d"})
    object.__setattr__(data, "sections", data.sections[:2] + (frozenset("abcd"),))
    report = RunReport(suite="blowup")
    run_checks(t, SUITES["blowup"], report, "planted")
    assert [(f["operation"], f["detail"].split(":")[0]) for f in report.failures] \
        == [("divisor-containment", "k=3")]


# -- one planted fault per blowup check ------------------------------------------

def _bundles_one_level_short(monkeypatch):
    """Each edge's twisted class divided by the level classes of its ascent
    gap but the first."""
    real = blowup.twisted_bundles

    def short(t):
        by_rank, _ = real(t)
        rank = t.ranks().of_vertex
        return by_rank, {e: blowup._bundle(e)
                         / Monomial.product(by_rank[rank[t.tree.parent[e]] + 2:k])
                         for e, k in level_data(t).edge_rank.items()}

    monkeypatch.setattr(blowup, "twisted_bundles", short)


def _comparison_one_gap_up(monkeypatch):
    """The comparison map sends each gap coordinate below the top level to
    the blowup gap of the level above it."""
    real = blowup.blowup_side_maps

    def shifted(t):
        projection, comparison, chart = real(t)
        at, wrong = blowup._gap_symbols(t)[0], dict(comparison.assignment)
        for k in range(2, len(at)):
            wrong[chart.frame.eps_at[k]] = Monomial.sym(at[k - 1])
        return projection, MonomialMap(comparison.source_coords,
                                       comparison.target_coords, wrong), chart

    monkeypatch.setattr(blowup, "blowup_side_maps", shifted)


def _slots_without_the_deepest(monkeypatch):
    """The deepest divisor slot is lost.  (Shifting every slot alike is no
    fault: ``is_equivalent`` compares the order of the levels only.)"""
    real = blowup.divisor_slots
    monkeypatch.setattr(blowup, "divisor_slots", lambda t: real(t)[:-1])


# a plausible fault of the blowup bookkeeping, and the blowup checks that
# must fail under it; ``divisor-containment`` fails under a wrong cached
# cross-section (``test_a_wrong_cached_section_size_fails_divisor_containment``)
PLANTED = {
    "bundles-one-level-short": (_bundles_one_level_short, ("bundle-identity",)),
    "comparison-one-gap-up": (_comparison_one_gap_up, ("blowup-chart-comparison",)),
    "slots-without-the-deepest": (_slots_without_the_deepest, ("level-reconstruction",)),
}


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_a_planted_fault_fails_its_check(monkeypatch, fault):
    """Each planted fault makes the checks named for it fail somewhere on the
    <=3-edge representatives."""
    from test_checks import _failures
    plant, caught = PLANTED[fault]
    plant(monkeypatch)
    failed = _failures("blowup")
    assert all(failed[name] for name in caught), failed


def test_no_planted_fault_fails_ideal_transform(monkeypatch):
    """The declared exception (ROADMAP item 3): ``ideal-transform`` divides
    the generators it built as ``g * factor`` by ``factor`` again, so even a
    scaling monomial one stage short passes it.  Once the check is built
    from its definition, this fault belongs in ``PLANTED``."""
    real = blowup._stage_factor
    monkeypatch.setattr(blowup, "_stage_factor",
                        lambda t, step: real(t, max(step - 1, 1)))
    from test_checks import _failures
    assert not _failures("blowup")["ideal-transform"]
