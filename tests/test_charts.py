import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from leveltree.charts import (BasePoint, build_chart, build_inverse,
                              check_mu_vanishing, evaluate, forward_map,
                              remark_identities, verify_parameter_transition,
                              verify_round_trip,
                              verify_special_vertex_transition,
                              verify_stratum_transition, zeta)
from leveltree.cli import render_chart
from leveltree.contraction import contract
from leveltree.enumerate import EnumSpec, gen_instances
from leveltree.errors import DomainError, VerificationError
from leveltree.levels import index_partition, special_choices
from leveltree.monomial import Monomial, parse_monomial

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


def test_base_point_readout(nested_tree):
    chart = build_chart(nested_tree, special={F(-1): "b", F(-2): "a"}, tags=())
    bp = BasePoint(frame=chart.frame,
                   lambdas={"a": 1, "b": 1, "c": 5, "d": F(-2, 3)})
    vals = bp.values()
    table = chart.mu(frozenset())
    for (i, e), mon in table.items():
        if chart.frame.data.edge_level[e] == i:
            assert evaluate(mon, vals) == bp.lambdas[e]
        else:
            assert evaluate(mon, vals) == 0


def test_base_point_validation(nested_tree):
    chart = build_chart(nested_tree, special={F(-1): "b", F(-2): "a"}, tags=())
    with pytest.raises(DomainError):
        BasePoint(frame=chart.frame, lambdas={"a": 2, "b": 1, "c": 1, "d": 1})
    with pytest.raises(DomainError):
        BasePoint(frame=chart.frame, lambdas={"a": 1, "b": 1, "c": 0, "d": 1})


def test_inverse_on_the_open_stratum(nested_chart, nested_tree):
    inv = build_inverse(nested_chart, {F(-1), F(-2)})
    frame = nested_chart.frame
    assert inv.assignment[frame.eps(F(-1))] == parse_monomial("zeta_b")
    assert inv.assignment[frame.eps(F(-2))] == parse_monomial("zeta_a * zeta_b^-1")
    assert inv.assignment[frame.usym("c")] == \
        parse_monomial("zeta_c * zeta_b * zeta_a^-1")
    assert inv.assignment[frame.usym("d")] == \
        parse_monomial("zeta_d * zeta_b * zeta_a^-1")


def test_inverse_with_empty_subset_reads_pure_twists(nested_chart):
    frame = nested_chart.frame
    inv = build_inverse(nested_chart, frozenset())
    assert inv.assignment[frame.eps(F(-1))].is_zero
    assert inv.assignment[frame.eps(F(-2))].is_zero
    assert inv.assignment[frame.usym("c")] == parse_monomial("mu_c")
    assert inv.assignment[frame.usym("d")] == parse_monomial("mu_d")


def test_inverse_mixed_subset(nested_chart):
    # the kept level reads the closed gap off the readout coordinate of the
    # surviving non-special edge, not off its (vanishing) modular parameter
    frame = nested_chart.frame
    inv = build_inverse(nested_chart, {F(-2)})
    assert inv.assignment[frame.eps(F(-1))].is_zero
    assert inv.assignment[frame.eps(F(-2))] == parse_monomial("mu_a")
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
    from leveltree.charts import stratum_of
    for t in gen_instances(EnumSpec(max_edges=3, max_weight=1)):
        chart = build_chart(t, tags=())
        for I in index_partition(t).subsets():
            strat = stratum_of(chart.frame, I)
            surviving = contract(t, I).tree.edges()
            for e in t.edges():
                reduced = strat.reduce(chart.theta.assignment[zeta(e)])
                assert reduced.is_zero == (e in surviving)
                if e not in surviving:
                    assert strat.is_unit(reduced)


def test_stratum_target_invariant_raises_without_asserts(nested_chart, monkeypatch):
    import dataclasses

    from leveltree import charts
    real = charts.level_data
    # the contraction's hat edges, misreported: the readout coordinates disagree
    monkeypatch.setattr(charts, "level_data",
                        lambda t: dataclasses.replace(real(t), hat_edges=frozenset()))
    with pytest.raises(VerificationError) as info:
        charts.stratum_target(nested_chart.frame, frozenset())
    assert info.value.witness == (nested_chart.frame.t, frozenset())


def test_inverse_vanishing_invariant_raises_without_asserts(nested_chart, monkeypatch):
    from leveltree import charts
    # closed gaps no longer read as zero, so the promised pattern breaks
    monkeypatch.setattr(charts, "ZERO", Monomial.one())
    with pytest.raises(VerificationError) as info:
        build_inverse(nested_chart, frozenset())
    assert info.value.witness[1] == frozenset()
