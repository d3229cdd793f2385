import functools
import json
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from leveltree.checks import (CHECKS, CLASS, DROPOUT_REMARK, SUBSET, SUITES, Check,
                              RunReport, run_checks)
from leveltree.cli import run
from leveltree.contraction import index_identity_report
from leveltree.enumerate import EnumSpec, gen_instances
from leveltree.errors import DomainError
from leveltree.levels import (MAX_SUBSET_LABELS, IndexSubset, WeightedLevelTree,
                              index_partition, level_data, make_level_tree)
from leveltree.tree import tree_json
from sweeps import group_by_class, representative_report
from test_blowup import PLANTED as BLOWUP
from test_charts import PLANTED as CHARTS
from test_contraction import PLANTED as CONTRACTION

F = Fraction
GOLDEN = Path(__file__).parent / "golden" / "nested_verify.json"


def _write(tmp_path, t, name="tree.json"):
    path = tmp_path / name
    path.write_text(tree_json(t.base, t.level))
    return str(path)


def _path_tree(n: int, weighted_from: int):
    """A path of ``n`` edges, one level per vertex, weighted from vertex
    ``weighted_from`` down."""
    return make_level_tree(
        root="o",
        parent={f"s{k}": "o" if k == 1 else f"s{k - 1}" for k in range(1, n + 1)},
        weight={"o": 0, **{f"s{k}": int(k >= weighted_from) for k in range(1, n + 1)}},
        level={"o": 0, **{f"s{k}": -k for k in range(1, n + 1)}})


# -- golden output and the failure path --------------------------------------

def test_verify_json_matches_golden(tmp_path, nested_tree, capsys):
    # the golden file is the output of ``leveltree verify nested.json --suite
    # all --json``; a change to it is a change to what verify checks
    assert run(["verify", _write(tmp_path, nested_tree), "--suite", "all", "--json"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_failing_checks_exit_1_and_name_check_and_instance(tmp_path, boundary_tree,
                                                            capsys, monkeypatch):
    def fails_on_first_level(c, subset, _):
        return frozenset(subset) != {F(-1)}, "forced"

    def raises_on_edge_q(c, subset, _):
        if "q" in subset:
            raise DomainError("no contraction here")
        return True, ""

    swap = {"round-trip": fails_on_first_level, "contract-validity": raises_on_edge_q}
    for suite in ("charts", "contraction"):
        monkeypatch.setitem(SUITES, suite, tuple(
            Check(k.name, k.scope, swap[k.name]) if k.name in swap else k
            for k in SUITES[suite]))
    path = _write(tmp_path, boundary_tree, "boundary.json")
    assert run(["verify", path, "--suite", "all", "--json"]) == 1
    _, charts, contraction = json.loads(capsys.readouterr().out)
    assert charts["failures"] == [{"instance": "boundary.json I=['-1']",
                                   "operation": "round-trip", "detail": "forced"}]
    # the index set is {-1, -2, q}; a check that raises fails with the error
    # and skips the rest of its subset
    assert len(contraction["failures"]) == 4
    assert {(f["operation"], f["detail"]) for f in contraction["failures"]} == \
        {("contract-validity", "no contraction here")}
    assert contraction["checks"] == {"contract-validity": 8, "equivalence-compat": 12,
                                     "index-identities": 4, "weight-conservation": 4}
    assert run(["verify", path, "--suite", "charts"]) == 1
    assert "FAIL boundary.json I=['-1'] round-trip forced" in capsys.readouterr().out


# -- the registry --------------------------------------------------------------

def test_a_passing_run_reads_no_subset_by_its_labels(nested_tree, deep_fan, monkeypatch):
    """A subset is its mask: every suite passes on both trees without once
    iterating a subset, the only way its labels come back."""
    real, calls = IndexSubset.__iter__, []

    def counted(self):
        calls.append(self.mask)
        return real(self)

    monkeypatch.setattr(IndexSubset, "__iter__", counted)
    for t in (nested_tree, deep_fan):
        report = RunReport(suite="all")
        run_checks(t, CHECKS.values(), report, "t")
        assert report.ok() and report.instances > 0
    assert calls == []
    list(index_partition(nested_tree).subsets()[1])  # the count does see an iteration
    assert calls == [1 << 1]


def test_a_run_lists_the_relevelings_once(nested_tree):
    """``equivalence-compat`` reads the same three relevelings on every
    subset, so ``phi_bijection`` proves each equivalence once per run (one
    listing per subset would prove 12 on the four subsets)."""
    report = RunReport(suite="contraction")
    run_checks(nested_tree, SUITES["contraction"], report, "nested")
    assert report.ok() and len(index_partition(nested_tree).subsets()) == 4
    assert len(nested_tree._memo["equivalent"]) == 3


# each suite's planted faults, kept beside the fault functions in its tests
PLANTED = {"contraction": CONTRACTION, "charts": CHARTS, "blowup": BLOWUP}


def test_every_check_has_a_planted_fault():
    """Every registry check fails under a planted fault of the library, but
    two: ``divisor-containment`` fails under a wrong cached cross-section in
    its own test, and ``ideal-transform`` is the declared exception of
    ROADMAP item 2."""
    caught = {name for planted in PLANTED.values()
              for _, names in planted.values() for name in names}
    assert caught | {"divisor-containment", "ideal-transform"} == set(CHECKS)
    assert not caught & {"divisor-containment", "ideal-transform"}


@pytest.mark.parametrize("suite, fault", [(suite, fault) for suite, planted in PLANTED.items()
                                          for fault in sorted(planted)])
def test_a_planted_fault_fails_its_check(monkeypatch, suite, fault):
    """Each planted fault makes the checks named for it fail somewhere on the
    <=3-edge representatives, so no check is a copy of the code it checks."""
    plant, caught = PLANTED[suite][fault]
    plant(monkeypatch)
    failed = Counter(f["operation"] for f in representative_report(suite).failures)
    assert all(failed[name] for name in caught), failed


def test_check_names_are_unique_and_cover_the_acceptance_rows():
    from test_acceptance import ROWS
    names = [k.name for suite in SUITES.values() for k in suite]
    assert len(names) == len(set(names)) == len(CHECKS)
    assert all(set(row[2]) <= set(CHECKS) for row in ROWS.values())
    assert {k.scope for k in CHECKS.values()} == {SUBSET, CLASS}


# Equivalent level maps of a tree: the checks may see only the order of its
# levels, so each must give the same check counts and remarks.
RELEVELINGS = {
    "x1/2": lambda t: {v: x / 2 for v, x in t.level.items()},
    "x3/2": lambda t: {v: F(3, 2) * x for v, x in t.level.items()},
    "below-m-1/3": lambda t: {v: x if x >= level_data(t).m else x - F(1, 3)
                              for v, x in t.level.items()},
}


def _relevel(t, releveling):
    if releveling is None:
        return t
    return WeightedLevelTree(base=t.base, level=RELEVELINGS[releveling](t))


@functools.cache
def _grouped_sweep(max_edges, suite, releveling=None):
    """A suite (``"all"`` for every check) on the first instance of each
    group, releveled."""
    groups = group_by_class(gen_instances(EnumSpec(max_edges=max_edges)))
    report = RunReport(suite=suite)
    checks = CHECKS.values() if suite == "all" else SUITES[suite]
    for first, *_ in groups:
        run_checks(_relevel(first, releveling), checks, report, "first")
    return groups, report


def test_suites_pass_exhaustively_small():
    groups, report = _grouped_sweep(3, "all")
    assert report.ok(), report.failures[:5]
    pairs = sum(2 ** len(index_partition(first)) for first, *_ in groups)
    assert report.counts["weight-conservation"] == report.counts["round-trip"] == pairs
    assert report.remarks == {DROPOUT_REMARK: sum(
        1 for first, *_ in groups
        for I in index_partition(first).subsets()
        if index_identity_report(first, I).dropouts)}


def _alone(t) -> RunReport:
    report = RunReport(suite="all")
    run_checks(t, CHECKS.values(), report, "alone")
    return report


def test_each_instance_checks_as_its_group_does():
    """The group argument: the checks read only the tree, the levels and
    which weights are positive, so every instance run alone gives the
    counts, failures and remarks of its group's first instance."""
    groups = group_by_class(gen_instances(EnumSpec(max_edges=3)))
    assert (len(groups), sum(map(len, groups))) == (124, 451)
    for first, *rest in groups:
        want = _alone(first)
        for t in rest:
            got = _alone(t)
            assert (got.counts, got.failures, got.remarks) == \
                (want.counts, want.failures, want.remarks), t.to_json_dict()


@pytest.mark.parametrize("releveling", sorted(RELEVELINGS))
def test_suites_agree_under_relevelings(releveling):
    plain, moved = _grouped_sweep(3, "all")[1], _grouped_sweep(3, "all", releveling)[1]
    assert moved.ok(), moved.failures[:5]
    assert (moved.counts, moved.remarks) == (plain.counts, plain.remarks)


@pytest.mark.parametrize("releveling", sorted(RELEVELINGS))
def test_contraction_suite_agrees_under_relevelings_up_to_four_edges(releveling):
    plain = _grouped_sweep(4, "contraction")[1]
    moved = _grouped_sweep(4, "contraction", releveling)[1]
    assert plain.ok() and moved.ok(), moved.failures[:5]
    assert (moved.counts, moved.remarks) == (plain.counts, plain.remarks)


@functools.cache
def _blowup_sweep(releveling=None) -> RunReport:
    """The blowup suite on every instance with at most four edges."""
    report = RunReport(suite="blowup")
    for k, t in enumerate(gen_instances(EnumSpec(max_edges=4))):
        run_checks(_relevel(t, releveling), SUITES["blowup"], report, f"t{k}")
    return report


@pytest.mark.parametrize("releveling", sorted(RELEVELINGS))
def test_blowup_suite_agrees_under_relevelings_up_to_four_edges(releveling):
    plain, moved = _blowup_sweep(), _blowup_sweep(releveling)
    assert plain.ok() and moved.ok(), moved.failures[:5]
    assert moved.counts == plain.counts


# -- the subset expansion and its bound ------------------------------------------

def test_subsets_order_and_bound(boundary_tree):
    assert [frozenset(I) for I in index_partition(boundary_tree).subsets()] == [
        frozenset(), {F(-1)}, {F(-2)}, {F(-1), F(-2)},
        {"q"}, {F(-1), "q"}, {F(-2), "q"}, {F(-1), F(-2), "q"}]
    at_bound = index_partition(_path_tree(MAX_SUBSET_LABELS, MAX_SUBSET_LABELS))
    assert len(at_bound.subsets()) == 2 ** MAX_SUBSET_LABELS
    above = index_partition(_path_tree(MAX_SUBSET_LABELS + 1, MAX_SUBSET_LABELS + 1))
    with pytest.raises(DomainError, match=f"{MAX_SUBSET_LABELS + 1} labels"):
        above.subsets()


@pytest.mark.parametrize("argv, rc", [(["verify", "--suite", "contraction"], 2),
                                      (["verify", "--suite", "charts"], 2),
                                      (["verify"], 2), (["chart"], 2),
                                      (["verify", "--suite", "blowup"], 0)])
def test_large_index_sets_are_refused_up_front(tmp_path, capsys, argv, rc):
    path = _write(tmp_path, _path_tree(60, 45))
    start = time.perf_counter()
    assert run(argv[:1] + [path] + argv[1:]) == rc
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == ("" if rc == 0 else
                   f"error: the index set has 60 labels; subsets are enumerated "
                   f"only up to {MAX_SUBSET_LABELS} labels\n")
