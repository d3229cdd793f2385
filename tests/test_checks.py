import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from leveltree.checks import (CHECKS, CLASS, DROPOUT_REMARK, INSTANCE, SUBSET,
                              SUITES, Check, RunReport, run_checks)
from leveltree.cli import run
from leveltree.contraction import minus_part_dropouts
from leveltree.enumerate import EnumSpec, gen_instances
from leveltree.errors import DomainError
from leveltree.levels import MAX_SUBSET_LABELS, index_partition, make_level_tree
from leveltree.tree import tree_json

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
        return subset != {F(-1)}, "forced"

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

def test_check_names_are_unique_and_cover_the_acceptance_rows():
    from test_acceptance import ROWS
    names = [k.name for suite in SUITES.values() for k in suite]
    assert len(names) == len(set(names)) == len(CHECKS)
    assert all(set(row[2]) <= set(CHECKS) for row in ROWS.values())
    assert {k.scope for k in CHECKS.values()} == {SUBSET, INSTANCE, CLASS}
    assert [k.name for k in CHECKS.values() if k.scope == INSTANCE] == \
        ["weight-conservation"]


def test_suites_pass_exhaustively_small():
    # every instance with at most three edges, grouped as the acceptance
    # sweeps group them, so each member gets its own weight conservation
    from test_acceptance import _positivity_key
    instances = list(gen_instances(EnumSpec(max_edges=3)))
    groups: dict = {}
    for t in instances:
        groups.setdefault(_positivity_key(t), []).append(t)
    report = RunReport(suite="all")
    for first, *rest in groups.values():
        run_checks(first, CHECKS.values(), report, "first",
                   members=[(f"m{k}", t) for k, t in enumerate(rest)])
    assert report.ok(), report.failures[:5]
    assert report.counts["weight-conservation"] == \
        sum(2 ** len(index_partition(t)) for t in instances)
    assert report.counts["round-trip"] == \
        sum(2 ** len(index_partition(ts[0])) for ts in groups.values())
    assert report.remarks == {DROPOUT_REMARK: sum(
        1 for first, *_ in groups.values()
        for I in index_partition(first).subsets() if minus_part_dropouts(first, I))}


# -- the subset expansion and its bound ------------------------------------------

def test_subsets_order_and_bound(boundary_tree):
    assert index_partition(boundary_tree).subsets() == [
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
