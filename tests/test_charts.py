import itertools
import math
import pickle
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from leveltree import blowup, charts, levels
from leveltree.charts import (ChartFrame, build_chart, build_inverse, build_mu,
                              check_mu_vanishing, forward_map,
                              remark_identities, sigma, verify_parameter_transition,
                              verify_round_trip,
                              verify_special_vertex_transition,
                              verify_stratum_transition, zeta)
from leveltree.checks import SUITES, RunReport, run_checks
from leveltree.cli import render_chart
from leveltree.contraction import contract
from leveltree.enumerate import EnumSpec, gen_instances
from leveltree.errors import MonomialError, VerificationError
from leveltree.levels import (WeightedLevelTree, ascent_sequence, index_partition, level_data,
                              make_level_tree, special_by_rank, special_choices)
from leveltree.monomial import Monomial, MonomialMap, Stratum, Symbol, parse_monomial

F = Fraction
GOLDEN = Path(__file__).parent / "golden" / "nested_chart.txt"


@pytest.fixture
def nested_chart(nested_tree):
    return build_chart(nested_tree, special={F(-1): "b", F(-2): "a"}, tags=())


def test_nested_chart_matches_golden_file(nested_chart):
    assert render_chart(nested_chart) == GOLDEN.read_text()


def test_theta_components(nested_chart):
    th = nested_chart.theta.assignment
    assert th[zeta("a")] == parse_monomial("eps(-1) * eps(-2)")
    assert th[zeta("b")] == parse_monomial("eps(-1)")
    assert th[zeta("c")] == parse_monomial("eps(-2) * u_c")
    assert th[zeta("d")] == parse_monomial("eps(-2) * u_d")


def test_theta_root_special_edge_is_a_pure_gap_product(nested_chart):
    # a special edge hanging from the root collects exactly its crossed gaps
    assert nested_chart.theta.assignment[zeta("a")] == \
        parse_monomial("eps(-1) * eps(-2)")


def test_theta_on_deep_fan(deep_fan, deep_fan_special):
    chart = build_chart(deep_fan, deep_fan_special, tags=())
    th = chart.theta.assignment
    # the chain above v3 climbs through p3 and cancels against itself
    assert th[zeta("v3")] == parse_monomial("eps(-3)")
    assert th[zeta("a1")] == parse_monomial("eps(-3) * u_a1")
    assert th[zeta("w0")] == parse_monomial("eps(-3) * eps(-2) * u_w0 * u_p3")
    assert th[zeta("c1")] == parse_monomial("z_c1")


def test_mu_with_empty_subset_reads_off_u(nested_chart):
    table = nested_chart.mu(frozenset())
    assert table[(F(-2), "c")] == parse_monomial("u_c")
    assert table[(F(-2), "a")] == Monomial.one()
    assert table[(F(-1), "a")] == parse_monomial("eps(-2)")


def test_mu_examples(nested_chart):
    assert nested_chart.mu({F(-1)})[(F(-2), "c")] == parse_monomial("u_c * eps(-1)^-1")
    assert nested_chart.mu({F(-2)})[(F(-1), "a")] == parse_monomial("eps(-2)")


def test_mu_vanishing_on_nested_tree(nested_chart, nested_tree):
    for I in index_partition(nested_tree).subsets():
        assert check_mu_vanishing(nested_chart, I)


def value_at_center(mon, lambdas):
    """``mon`` at the chart's centre: each ``u_e`` takes ``lambdas[e]`` and
    every other coordinate is 0; a negative power of 0 is ill-defined."""
    values = [(F(lambdas[s.key]) if s.kind == "u" else F(0), e) for s, e in mon.exps]
    assert all(v or e > 0 for v, e in values), f"{mon} is ill-defined at the centre"
    return math.prod(v ** e for v, e in values)


def test_base_point_readout(nested_tree):
    # the readout of the empty subset at the centre: each hat edge's lambda
    # at its own level (1 on special edges), 0 above it
    chart = build_chart(nested_tree, special={F(-1): "b", F(-2): "a"}, tags=())
    lambdas = {"c": 5, "d": F(-2, 3)}
    for (i, e), mon in chart.mu(frozenset()).items():
        want = lambdas.get(e, 1) if chart.frame.data.edge_level[e] == i else 0
        assert value_at_center(mon, lambdas) == want


def test_inverse_on_the_open_stratum(nested_chart, nested_tree):
    inv = build_inverse(nested_chart, {F(-1), F(-2)})
    frame = nested_chart.frame
    assert inv.assignment[charts.eps(F(-1))] == parse_monomial("zeta_b")
    assert inv.assignment[charts.eps(F(-2))] == parse_monomial("zeta_a * zeta_b^-1")
    assert inv.assignment[frame.usym("c")] == \
        parse_monomial("zeta_c * zeta_b * zeta_a^-1")
    assert inv.assignment[frame.usym("d")] == \
        parse_monomial("zeta_d * zeta_b * zeta_a^-1")


def test_inverse_with_empty_subset_reads_pure_twists(nested_chart):
    frame = nested_chart.frame
    inv = build_inverse(nested_chart, frozenset())
    assert inv.assignment[charts.eps(F(-1))].is_zero
    assert inv.assignment[charts.eps(F(-2))].is_zero
    assert inv.assignment[frame.usym("c")] == parse_monomial("mu_c")
    assert inv.assignment[frame.usym("d")] == parse_monomial("mu_d")


def test_inverse_mixed_subset(nested_chart):
    # the kept level reads the closed gap off the readout coordinate of the
    # surviving non-special edge, not off its (vanishing) modular parameter
    frame = nested_chart.frame
    inv = build_inverse(nested_chart, {F(-2)})
    assert inv.assignment[charts.eps(F(-1))].is_zero
    assert inv.assignment[charts.eps(F(-2))] == parse_monomial("mu_a")
    assert inv.assignment[frame.usym("c")] == parse_monomial("zeta_c * mu_a^-1")
    fwd = forward_map(nested_chart, {F(-2)})
    assert fwd.assignment[parse_monomial("mu_a").symbols()[0]] == \
        parse_monomial("eps(-2)")


def test_round_trips_on_nested_tree(nested_chart, nested_tree):
    for I in index_partition(nested_tree).subsets():
        assert verify_round_trip(nested_chart, I)


def test_round_trips_on_deep_fan(deep_fan, deep_fan_special):
    chart = build_chart(deep_fan, deep_fan_special, tags=("j1",))
    part = index_partition(deep_fan)
    for I in [frozenset(), frozenset({F(-1)}), frozenset({F(-3), "w0"}),
              frozenset({"b3", "c1"}), frozenset({F(-2), "b4", "c2"}),
              part.labels()]:
        assert verify_round_trip(chart, I)
        assert check_mu_vanishing(chart, I)


def test_extra_tags_do_not_affect_identities(nested_tree):
    for tags in ((), ("j1", "j2")):
        chart = build_chart(nested_tree, tags=tags)
        for I in index_partition(nested_tree).subsets():
            assert verify_round_trip(chart, I)
        assert remark_identities(chart)


def test_special_vertex_transition(nested_tree):
    choices = special_choices(nested_tree)
    keys = sorted(choices)
    for ca in itertools.product(*(choices[i] for i in keys)):
        for cb in itertools.product(*(choices[i] for i in keys)):
            assert verify_special_vertex_transition(
                nested_tree, dict(zip(keys, ca)), dict(zip(keys, cb)))


def test_parameter_transition(nested_tree, deep_fan, boundary_tree):
    assert verify_parameter_transition(nested_tree)
    assert verify_parameter_transition(boundary_tree)
    assert verify_parameter_transition(deep_fan)


def test_stratum_transition(nested_tree):
    for I in index_partition(nested_tree).subsets():
        assert verify_stratum_transition(nested_tree, I)


def test_stratum_transition_on_boundary_tree(boundary_tree):
    # the dropout edge becomes an honest vanishing coordinate downstairs
    for I in index_partition(boundary_tree).subsets():
        assert verify_stratum_transition(boundary_tree, I)


def test_remark_identities(nested_chart, nested_tree):
    assert remark_identities(nested_chart)
    th = nested_chart.theta.assignment
    assert th[zeta("c")] * th[zeta("b")] == parse_monomial("u_c") * th[zeta("a")]


def test_remark_identity_single_edge():
    from leveltree.levels import make_level_tree
    t = make_level_tree("o", {"a": "o"}, {"o": 0, "a": 1}, {"o": 0, "a": -1})
    chart = build_chart(t, tags=())
    assert remark_identities(chart)
    assert chart.theta.assignment[zeta("a")] == parse_monomial("eps(-1)")


def test_chart_suite_exhaustively_tiny():
    for t in gen_instances(EnumSpec(max_edges=2, max_weight=1)):
        chart = build_chart(t, tags=("j1",))
        for I in index_partition(t).subsets():
            assert verify_round_trip(chart, I)
            assert check_mu_vanishing(chart, I)


def test_theta_vanishes_exactly_on_surviving_edges():
    # imposing a stratum kills the modular parameter of an edge iff the edge
    # survives the matching contraction
    for t in gen_instances(EnumSpec(max_edges=3, max_weight=1)):
        chart = build_chart(t, tags=())
        for I in index_partition(t).subsets():
            strat = charts.stratum_target(chart.frame, I).stratum
            surviving = contract(t, I).tree.edges()
            for e in t.edges():
                reduced = strat.reduce(chart.theta.assignment[zeta(e)])
                assert reduced.is_zero == (e in surviving)
                if e not in surviving:
                    assert strat.is_unit(reduced)


def reference_stratum(frame, subset) -> Stratum:
    """The chart stratum of ``subset``, built on its own: surviving labels
    pin their coordinates to zero, collapsed labels make them units, and
    ``u`` over hat-but-not-dropping edges is a unit everywhere."""
    part = frame.part
    of_level = frame.t.ranks().of_level
    plus_mask = sum(1 << of_level[x] for x in subset & part.i_plus)
    i_m, i_minus = subset & part.i_m, subset & part.i_minus
    top = range(1, frame.data.m_rank + 1)
    zeros = {frame.eps_at[k] for k in top if not plus_mask >> k & 1}
    zeros |= {frame.usym(e) for e in part.i_m - i_m}
    zeros |= {frame.zsym(e) for e in part.i_minus - i_minus}
    units = {frame.eps_at[k] for k in top if plus_mask >> k & 1}
    units |= {frame.usym(e) for e in i_m}
    units |= {frame.zsym(e) for e in i_minus}
    units |= {frame.usym(e)
              for e in frame.data.hat_edges - part.i_m - frame.special_edges()}
    return Stratum(zeros=frozenset(zeros), units=frozenset(units))


def test_the_subset_record_holds_the_stratum():
    for t in gen_instances(EnumSpec(max_edges=3)):
        frame = build_chart(t).frame
        for I in index_partition(t).subsets():
            assert charts.stratum_target(frame, I).stratum == reference_stratum(
                frame, frozenset(I))


def test_stratum_target_invariant_raises_without_asserts(nested_chart, monkeypatch):
    import dataclasses

    real = charts.level_data
    # the contraction's hat edges, misreported: the readout coordinates disagree
    monkeypatch.setattr(charts, "level_data",
                        lambda t: dataclasses.replace(real(t), hat_edges=frozenset()))
    for _ in range(2):  # a build that raised is not kept
        with pytest.raises(VerificationError) as info:
            charts.stratum_target(nested_chart.frame, frozenset())
        t, subset = info.value.witness
        assert (t, frozenset(subset)) == (nested_chart.frame.t, frozenset())


def test_inverse_vanishing_invariant_raises_without_asserts(nested_chart, monkeypatch):
    # closed gaps no longer read as zero, so the promised pattern breaks
    monkeypatch.setattr(charts, "ZERO", Monomial.one())
    with pytest.raises(VerificationError) as info:
        build_inverse(nested_chart, frozenset())
    assert frozenset(info.value.witness[1]) == frozenset()


# -- what the charts of one tree share ----------------------------------------

def _copy(t: WeightedLevelTree) -> WeightedLevelTree:
    """An equal tree with an empty memo."""
    return make_level_tree(t.root, t.tree.parent, t.weight, t.level)


def test_build_chart_keeps_one_chart_per_arguments(nested_tree):
    t = nested_tree
    chart = build_chart(t)
    assert build_chart(t) is chart
    assert build_chart(t, chart.frame.special, tags=["j1", "j2"]) is chart
    releveled = WeightedLevelTree(base=t.base, level={v: 2 * x for v, x in t.level.items()})
    others = [build_chart(t, {F(-1): "b", F(-2): "c"}), build_chart(t, tags=("j1",)),
              build_chart(releveled), build_chart(_copy(t))]
    assert all(other is not chart for other in others)
    assert len({id(other) for other in others}) == len(others)


def test_a_given_special_map_is_read_once(nested_tree, monkeypatch):
    real, calls = levels.special_by_rank, []

    def counting(t, special):
        calls.append(special)
        return real(t, special)

    for module in (charts, levels):
        monkeypatch.setattr(module, "special_by_rank", counting)
    special = {F(-1): "b", F(-2): "c"}
    chart = build_chart(nested_tree, special)  # cold
    assert calls == [special]
    assert chart.frame.special == special
    assert chart.frame.special_at == (None, "b", "c")
    ChartFrame(t=nested_tree, special_at=chart.frame.special_at)
    assert calls == [special]


def test_the_suites_share_one_chart_of_the_class(monkeypatch):
    """The chart and blowup suites keep one chart of the class's
    representative per special-edge map, all with the tags of the checks;
    the memo is read as the executor drops it.  No contracted tree ever
    holds a chart: the stratum transition's chart of it is kept nowhere."""
    real, kept = charts.drop_charts, []
    real_contract, contracted = charts.contract, []

    def spy(t):
        kept.append((t, list(t._memo.get("charts", {}))))
        real(t)

    def contract_spy(t, subset):
        res = real_contract(t, subset)
        contracted.append(res.tree)
        return res

    monkeypatch.setattr(charts, "drop_charts", spy)
    monkeypatch.setattr(charts, "contract", contract_spy)
    groups = {}  # instances sharing the tree, the positive vertices and levels
    for t in gen_instances(EnumSpec(max_edges=3)):
        groups.setdefault((tuple(sorted(t.tree.parent.items())),
                           frozenset(t.base.positive_vertices()),
                           tuple(sorted(t.level.items()))), t)
    for k, t in enumerate(groups.values()):
        report = RunReport(suite="charts and blowup")
        run_checks(t, SUITES["charts"] + SUITES["blowup"], report, f"#{k}")
        assert report.ok(), report.failures[:5]
    assert contracted and not [nt for nt in contracted if "charts" in nt._memo]
    assert [t for t, _ in kept] == list(groups.values())
    for t, keys in kept:
        choices = special_choices(t)
        maps = {tuple(zip(choices, combo)) for combo in itertools.product(*choices.values())}
        assert len(keys) == len(maps)
        assert set(keys) == {(special_by_rank(t, dict(m)), charts.CHECK_TAGS) for m in maps}


def test_chart_equality_ignores_cached_mu_tables(nested_tree):
    chart, twin = build_chart(nested_tree), build_chart(_copy(nested_tree))
    assert chart == twin
    chart.mu(frozenset())
    assert chart == twin


def test_mu_reads_only_the_level_part_of_the_subset():
    charted = {}  # a chart depends on the tree, its positive vertices and levels
    for t in gen_instances(EnumSpec(max_edges=4, max_weight=2)):
        charted.setdefault((tuple(sorted(t.tree.parent.items())),
                            frozenset(t.base.positive_vertices()),
                            tuple(sorted(t.level.items()))), t)
    for t in charted.values():
        part = index_partition(t)
        chart, fresh = build_chart(t, tags=()), build_chart(_copy(t), tags=())
        for I in part.subsets():
            table = chart.mu(I)
            assert table == chart.mu(frozenset(I) & part.i_plus)
            assert table == build_mu(fresh, I)


def test_transitions_agree_on_warm_and_cold_trees():
    for t in gen_instances(EnumSpec(max_edges=3, max_weight=1)):
        choices = special_choices(t)
        keys = sorted(choices)
        maps = [dict(zip(keys, c)) for c in itertools.product(*(choices[i] for i in keys))]
        for a, b in itertools.product(maps, maps):
            verify_special_vertex_transition(t, a, b)  # warms t's charts
        for a, b in itertools.product(maps, maps):
            assert verify_special_vertex_transition(t, a, b) \
                == verify_special_vertex_transition(_copy(t), a, b)
        verify_parameter_transition(t)
        assert verify_parameter_transition(t) == verify_parameter_transition(_copy(t))


def reference_stratum_transition(t, subset) -> bool:
    """The stratum transition comparing the readout families once for every
    subset of the contraction's index set, each table built afresh."""
    subset = frozenset(subset)
    chart, res, prime, g = charts._recentering(t, subset)
    theta, theta_p = chart.theta.assignment, prime.theta.assignment
    if any(theta_p[zeta(e)].substitute(g.assignment) != theta[zeta(e)]
           for e in res.tree.edges()):
        return False
    if any(theta_p[sigma(j)].substitute(g.assignment) != theta[sigma(j)]
           for j in charts.CHECK_TAGS):
        return False
    if any(theta_p[sigma(("ctr", e))].substitute(g.assignment) != theta[zeta(e)]
           for e in res.contracted):
        return False
    for subset2 in index_partition(res.tree).subsets():
        mu_union = charts.build_mu(chart, frozenset(subset) | frozenset(subset2))
        for (i, e), mon in charts.build_mu(prime, subset2).items():
            if mon.substitute(g.assignment) != mu_union[(i, e)]:
                return False
    return True


def test_stratum_transition_matches_the_all_subsets_reference(monkeypatch):
    cases = [(t, I) for t in gen_instances(EnumSpec(max_edges=3, max_weight=1))
             for I in index_partition(t).subsets()]
    for t, I in cases:
        assert verify_stratum_transition(t, I) and reference_stratum_transition(t, I)

    real = charts._recentering

    def planted(t, subset):
        """One ``u`` entry of ``g`` multiplied by a tag."""
        chart, res, prime, g = real(t, subset)
        u = min((s for s in g.assignment if s.kind == "u"), key=str)
        wrong = dict(g.assignment)
        wrong[u] = wrong[u] * Monomial.sym(chart.frame.wsym(charts.CHECK_TAGS[0]))
        return chart, res, prime, MonomialMap(g.source_coords, g.target_coords, wrong)

    faulty = [(t, I) for t, I in cases
              if any(s.kind == "u" for s in real(t, I)[3].assignment)]
    assert faulty
    with monkeypatch.context() as patch:
        patch.setattr(charts, "_recentering", planted)
        for t, I in faulty:
            assert not verify_stratum_transition(t, I)
            assert not reference_stratum_transition(t, I)

    real_mu, top = charts.build_mu, None

    def wrong_readout(chart, subset):
        """One entry of each contracted chart's table at a nonempty level part
        multiplied by a tag: only the readout comparison sees it.  The table
        is rebuilt from its rows, so its labels and its rows both hold it."""
        table = real_mu(chart, subset)
        if chart.frame.t is not top and chart.frame.part.read(subset).plus_mask and table:
            level, e = min(table, key=str)
            ranks = chart.frame.t.ranks()
            rows = [dict(row) for row in table.rows]
            k = ranks.of_level[level]
            rows[k][e] = rows[k][e] * Monomial.sym(chart.frame.wsym(charts.CHECK_TAGS[0]))
            table = charts.Readouts(ranks.levels, rows)
        return table

    monkeypatch.setattr(charts, "build_mu", wrong_readout)
    verdicts = []
    for t, I in cases:  # fresh copies, so no table built before the fault is reused
        top = _copy(t)
        new = verify_stratum_transition(top, I)
        top = _copy(t)
        verdicts.append((new, reference_stratum_transition(top, I)))
    assert all(new == ref for new, ref in verdicts)
    assert not all(new for new, _ in verdicts)


def test_every_single_entry_fault_of_g_fails_its_transition(monkeypatch):
    """Each entry of each transition's ``g`` in turn, multiplied by a tag,
    makes that transition fail, while the true ``g`` passes."""
    real, planted, missed = charts._pulls_back, Counter(), []
    kind = None  # the transition running

    def faulty(other, g, theta, expected_mu):
        tag = Monomial.sym(other.frame.wsym(charts.CHECK_TAGS[0]))
        for s in g.assignment:
            wrong = dict(g.assignment)
            wrong[s] = wrong[s] * tag
            planted[kind] += 1
            if real(other, MonomialMap(g.source_coords, g.target_coords, wrong),
                    theta, expected_mu):
                missed.append((kind, other.frame.t, s))
        return real(other, g, theta, expected_mu)

    monkeypatch.setattr(charts, "_pulls_back", faulty)
    for t in gen_instances(EnumSpec(max_edges=3, max_weight=1)):
        choices = special_choices(t)
        maps = [dict(zip(choices, combo)) for combo in itertools.product(*choices.values())]
        kind = "special-vertex"
        assert all(verify_special_vertex_transition(t, a, b) for a in maps for b in maps)
        kind = "parameter"
        assert verify_parameter_transition(t)
        kind = "stratum"
        assert all(verify_stratum_transition(t, I) for I in index_partition(t).subsets())
    assert not missed, missed[:5]
    assert planted == {"special-vertex": 1059, "parameter": 555, "stratum": 3530}


def test_build_mu_runs_once_per_chart_and_level_mask(monkeypatch):
    real, calls, seen = charts.build_mu, Counter(), []

    def counting(chart, subset):
        seen.append(chart)  # kept alive, so no id is reused
        calls[(id(chart), chart.frame.part.read(subset).plus_mask)] += 1
        return real(chart, subset)

    monkeypatch.setattr(charts, "build_mu", counting)
    for k, t in enumerate(gen_instances(EnumSpec(max_edges=3, max_weight=1))):
        report = RunReport(suite="charts")
        run_checks(t, SUITES["charts"], report, f"#{k}")
        assert report.ok()
    assert calls and max(calls.values()) == 1


def test_composed_maps_pass_the_validating_constructor(monkeypatch):
    """``compose`` builds its result without the constructor's checks; every
    map it builds in the chart and blowup suites over the <=3-edge instances
    passes them and equals the map the constructor builds."""
    real, composed = charts.compose, []

    def checked(f, g):
        out = real(f, g)
        assert MonomialMap(out.source_coords, out.target_coords, out.assignment) == out
        composed.append(out)
        return out

    for module in (charts, blowup):
        monkeypatch.setattr(module, "compose", checked)
    for k, t in enumerate(gen_instances(EnumSpec(max_edges=3, max_weight=1))):
        report = RunReport(suite="charts and blowup")
        run_checks(t, SUITES["charts"] + SUITES["blowup"], report, f"#{k}")
        assert report.ok(), report.failures[:5]
    assert len(composed) > 1000


def test_symbol_families_hand_out_the_interned_symbols(nested_tree):
    before = Symbol("zeta", "family-before")  # interned before the family reads it
    assert zeta("family-before") is before
    assert zeta("family-after") is Symbol("zeta", "family-after")
    assert sigma(("ctr", "e")) is Symbol("sig", ("ctr", "e"))
    assert charts.musym("e") is Symbol("mu", "e")
    frame = build_chart(nested_tree).frame
    for family, kind in ((frame.usym, "u"), (frame.zsym, "z"), (frame.wsym, "w")):
        assert family("c") is Symbol(kind, "c")
    for s in (zeta("e"), sigma("j1"), frame.usym("c")):
        assert pickle.loads(pickle.dumps(s)) is s


def reference_collapsed_product(frame, plus_mask, above_of, value):
    """The filtered product over the edges strictly above ``above_of``."""
    if above_of is None:
        return Monomial.one()
    return Monomial.product(value(a) for a in frame.t.tree.root_path(above_of)[1:-1]
                            if not frame.data.span[a] & ~plus_mask)


def distinct_chart_trees():
    """One tree of each distinct <=4-edge chart: a chart reads the tree, its
    positive vertices and its levels."""
    classes = {}
    for t in gen_instances(EnumSpec(max_edges=4, max_weight=2)):
        classes.setdefault((tuple(sorted(t.tree.parent.items())),
                            frozenset(t.base.positive_vertices()),
                            tuple(sorted(t.level.items()))), t)
    return classes.values()


def test_collapsed_product_walks_up_to_the_root():
    for t in distinct_chart_trees():
        chart = build_chart(t)
        frame = chart.frame

        def vanishing(e):  # zero on the root's edges, so a product may vanish
            return Monomial.zero() if t.tree.parent[e] == t.root else Monomial.sym(zeta(e))

        for plus_mask in range(0, 2 << frame.data.m_rank, 2):  # bit k: rank k
            for above_of in (None, *frame.data.hat_edges):
                for value in (chart.theta_of, vanishing):
                    assert charts._collapsed_product(frame, plus_mask, above_of, value) \
                        == reference_collapsed_product(frame, plus_mask, above_of, value)


def explicit_ascent(frame, k) -> list:
    """The special edges met by the ascent from rank ``k``, walked up the
    tree: from each special edge on to the special edge of its parent's
    level, until an edge hangs from the root."""
    t = frame.t
    out = []
    while k:
        out.append(frame.special_at[k])
        k = t.ranks().of_vertex[t.tree.parent[out[-1]]]
    return out


def test_climbs_match_products_over_the_explicit_ascent():
    """Every distinct <=4-edge chart under every special map of its tree:
    the climbing chains and the climbs of a symbol-valued ``value`` are the
    products over the explicitly built ascents, and the jump table visits
    the levels of ``levels.ascent_sequence``."""
    def value(e):
        return Monomial.sym(Symbol("x", e))

    cases = 0
    for t in distinct_chart_trees():
        choices = special_choices(t)
        keys = sorted(choices)
        parent, levels_of = t.tree.parent, t.ranks().levels
        for picks in itertools.product(*(choices[i] for i in keys)):
            special = dict(zip(keys, picks))
            frame = build_chart(t, special).frame
            up, up_parents = frame.climb(value), frame.climb(value, parents=True)
            for k in range(frame.data.m_rank + 1):
                ascent = explicit_ascent(frame, k)
                assert frame.chains[k] == Monomial.product(
                    frame.u_mon(parent[e]) for e in ascent[:-1])
                assert up[k] == Monomial.product(map(value, ascent))
                assert up_parents[k] == Monomial.product(value(parent[e]) for e in ascent[:-1])
                visited = [k]
                while visited[-1]:
                    visited.append(frame.jump[visited[-1]])
                if k:
                    assert tuple(levels_of[r] for r in visited) \
                        == ascent_sequence(t, special, levels_of[k])
                cases += 1
        charts.drop_charts(t)
    assert cases > 1000


def test_gaps_are_the_products_of_their_gap_coordinates():
    """Every distinct <=4-edge chart and every range ``[lo, hi)`` of level
    ranks: the frame's gap product, asked for twice, is the explicit
    product of the ``eps`` of the ranks in the range."""
    cases = 0
    for t in distinct_chart_trees():
        frame = build_chart(t).frame
        top = frame.data.m_rank + 1
        for lo in range(1, top + 1):
            for hi in range(lo, top + 1):
                want = Monomial.one()
                for k in range(lo, hi):
                    want = want * Monomial.sym(Symbol("eps", t.ranks().levels[k]))
                assert frame.gaps(lo, hi) == want
                assert frame.gaps(lo, hi) is frame.gaps(lo, hi)
                cases += 1
        charts.drop_charts(t)
    assert cases > 4000


def test_a_chart_of_a_long_path_reads_each_u_a_bounded_number_of_times(monkeypatch):
    # a 2,000-edge path, levels -1..-2000, weight on its lowest quarter: the
    # climbing chains and the base map read u at most 3n times in all
    n = 2000
    t = make_level_tree(root="o", parent={f"s{k}": f"s{k - 1}" if k > 1 else "o"
                                          for k in range(1, n + 1)},
                        weight={"o": 0, **{f"s{k}": int(k > n - n // 4)
                                           for k in range(1, n + 1)}},
                        level={"o": 0, **{f"s{k}": -k for k in range(1, n + 1)}})
    real, calls = ChartFrame.u_mon, 0

    def counting(self, e):
        nonlocal calls
        calls += 1
        return real(self, e)

    monkeypatch.setattr(ChartFrame, "u_mon", counting)
    build_chart(t)
    assert 0 < calls <= 3 * n


def reference_inverse(chart, subset) -> MonomialMap:
    """The inverse with a branch for the gap coordinates and one for the
    ``u`` coordinates, each re-multiplying the climbing chains it reads."""
    frame = chart.frame
    t = frame.t
    subset = frame.part.read(subset)
    mask = subset.plus_mask
    rank = t.ranks().of_vertex
    target = charts.stratum_target(frame, subset)
    res = target.result
    new_i_m = index_partition(res.tree).i_m
    new_rank = res.tree.ranks().of_vertex
    # the special edge of a surviving level survives, at that level
    special_new = [frame.special_at[k] for k in res.used[:level_data(res.tree).m_rank + 1]]
    one, zero = Monomial.one(), Monomial.zero()

    def zeta_val(e):
        return Monomial.sym(zeta(e)) if e in res.contracted else zero

    def mu_val(e):
        if e in target.free_mu:
            return Monomial.sym(charts.musym(e))
        if e in new_i_m:
            return zero
        j = new_rank[e]
        if 0 < j < len(special_new) and e == special_new[j]:
            return one
        raise MonomialError(f"no readout coordinate for edge {e!r}")

    built = {}

    def u_val(e):
        if e in frame.special_edges():
            return one
        return built[frame.usym(e)]

    def chain_val(k):
        # the last special edge of an ascent hangs from the root
        return Monomial.product(u_val(t.tree.parent[e]) for e in explicit_ascent(frame, k)[:-1])

    def eps_prod(lo, hi):
        return Monomial.product(built[frame.eps_at[h]] for h in range(lo, hi))

    def collapsed(above_of):
        return charts._collapsed_product(frame, mask, above_of, zeta_val)

    for k in range(1, frame.data.m_rank + 1):  # levels top down
        se = frame.special_at[k]
        k1 = rank[t.tree.parent[se]]
        open_gaps = ((2 << k) - (2 << k1)) & ~mask  # ranks k1+1..k left standing
        if not mask >> k & 1:
            built[frame.eps_at[k]] = zero
        elif not open_gaps:
            built[frame.eps_at[k]] = zeta_val(se) / eps_prod(k1 + 1, k)
        else:
            khat = open_gaps.bit_length() - 1  # the lowest level left standing
            val = mu_val(se) * chain_val(khat) / chain_val(k)
            val = val * (collapsed(se) / collapsed(frame.special_at[khat]))
            built[frame.eps_at[k]] = val / eps_prod(khat + 1, k)
        for e in sorted(frame.data.hat_edges):
            if frame.data.edge_rank[e] != k or e == se:
                continue
            top = rank[t.tree.parent[e]]
            open_e = frame.data.span[e] & ~mask
            if open_e:
                kappa = open_e.bit_length() - 1
                val = mu_val(e) * chain_val(kappa) / chain_val(k)
                val = val * (collapsed(e) / collapsed(frame.special_at[kappa]))
                val = val / eps_prod(kappa + 1, k + 1)
            else:
                v_plus = t.tree.parent[e]
                den = one if v_plus == t.root else u_val(v_plus) * chain_val(top)
                val = zeta_val(e) * den / chain_val(k)
                val = val / eps_prod(top + 1, k + 1)
            built[frame.usym(e)] = val
    for e in frame.part.i_minus:
        built[frame.zsym(e)] = zeta_val(e)
    for j in frame.extra_tags:
        built[frame.wsym(j)] = Monomial.sym(sigma(j))
    return MonomialMap(source_coords=target.coords, target_coords=frame.coords(),
                       assignment=built)


def test_inverse_matches_the_two_branch_reference():
    """Every distinct <=4-edge chart under every special map of its tree
    and every index subset: the one-relation inverse builds the reference's
    assignment, in the reference's order."""
    cases = 0
    for t in distinct_chart_trees():
        choices = special_choices(t)
        keys = sorted(choices)
        for picks in itertools.product(*(choices[i] for i in keys)):
            chart = build_chart(t, dict(zip(keys, picks)))
            for subset in index_partition(t).subsets():
                want = reference_inverse(chart, subset).assignment
                assert list(build_inverse(chart, subset).assignment.items()) \
                    == list(want.items())
                cases += 1
        charts.drop_charts(t)
    assert cases > 10000


# -- one planted fault per chart check ------------------------------------------

def _gaps_one_rank_past(monkeypatch):
    """``gaps(lo, hi)`` multiplies in the gap of rank ``hi`` too, while
    there is one: an off-by-one at the end of every span."""
    real = charts.ChartFrame.gaps
    monkeypatch.setattr(charts.ChartFrame, "gaps", lambda frame, lo, hi: real(
        frame, lo, hi + 1 if hi <= frame.data.m_rank else hi))


def _no_collapsed_product(monkeypatch):
    """The collapsed modular parameters above an edge are dropped."""
    monkeypatch.setattr(charts, "_collapsed_product", lambda *_: charts.ONE)


def _climb_ignoring_parents(monkeypatch):
    """An ascent product read at the special edges where their parent
    edges were asked for."""
    real = charts.ChartFrame.climb
    monkeypatch.setattr(charts.ChartFrame, "climb",
                        lambda frame, value, parents=False: real(frame, value))


# a plausible fault of the chart engine, and the chart checks that must
# fail under it
PLANTED = {
    "gaps-one-rank-past": (_gaps_one_rank_past,
                           ("round-trip", "mu-vanishing", "stratum-transition",
                            "parameter-transition", "special-vertex-transition",
                            "ancestor-product-identities")),
    "no-collapsed-product": (_no_collapsed_product,
                             ("stratum-transition", "parameter-transition")),
    "climb-ignores-parents": (_climb_ignoring_parents, ("special-vertex-transition",)),
}


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_a_planted_fault_fails_its_check(monkeypatch, fault):
    """Each planted fault makes the checks named for it fail somewhere on the
    <=3-edge representatives."""
    from test_checks import _failures
    plant, caught = PLANTED[fault]
    plant(monkeypatch)
    failed = _failures("charts")
    assert all(failed[name] for name in caught), failed
