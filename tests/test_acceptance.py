"""End-to-end acceptance checks, one per shipped criterion.

Criteria 3-7 are rows of ``ROWS``: an instance set and the names of checks
from the registry in ``leveltree.checks``, which ``_sweep`` runs exhaustively
and exactly through the executor ``leveltree verify`` uses.  Instances that
share the tree, the levels and the positivity pattern of the weights form a
group: its checks run once, on its first instance, and cover every member
(``test_checks`` runs each instance alone and compares).  Each instance set
is enumerated and grouped once per session, shared by the rows on it, and
the groups fan out over a small fork pool.

Two documented readings of boundary slips in the source formulas (see the
README) are exercised: the minus-part identity of contractions holds in its
corrected form and fails literally only on "dropout" edges, which are
counted; and levels are reconstructed from divisor slots on stable trees
without dropping edges, the classes the slots determine.
"""

import functools
import multiprocessing as mp
import time
from fractions import Fraction

from leveltree import blowup as blowup_mod
from leveltree import charts as charts_mod
from leveltree.checks import CHECKS, DROPOUT_REMARK, RunReport, run_checks
from leveltree.cli import render_chart, run as cli_run
from leveltree.enumerate import EnumSpec, gen_instances
from leveltree.levels import ascent_sequence, index_partition, level_successor
from leveltree.monomial import parse_monomial
from leveltree.tree import tree_json

F = Fraction
FULL_SPEC = EnumSpec(max_edges=5, max_weight=2, max_levels=5)
SMALL_SPEC = EnumSpec(max_edges=4, max_weight=2, max_levels=5)
WORKERS = max(1, min(2, mp.cpu_count()))

# criterion -> (title, instance set, checks run on it, wall-clock budget in s)
ROWS = {
    3: ("contraction suite", FULL_SPEC,
        ("contract-validity", "weight-conservation", "index-identities",
         "equivalence-compat"), 120.0),
    4: ("chart isomorphism suite", FULL_SPEC, ("round-trip", "mu-vanishing"), 300.0),
    5: ("transition suite", SMALL_SPEC,
        ("stratum-transition", "parameter-transition", "special-vertex-transition"),
        300.0),
    6: ("blowup suite", FULL_SPEC,
        ("divisor-containment", "bundle-identity", "blowup-chart-comparison",
         "ideal-transform", "level-reconstruction"), 120.0),
    7: ("ancestor-product identities", FULL_SPEC, ("ancestor-product-identities",),
        None),
}

_INSTANCES = None  # the instance set of the running sweep, inherited by fork


def _positivity_key(t):
    return (tuple(sorted(t.tree.parent.items())),
            frozenset(t.base.positive_vertices()),
            tuple(sorted(t.level.items())))


def _sweep_groups(args):
    """Run the checks on the first instance of each group; the report and
    the (tree, subset) pairs the groups cover."""
    groups, names = args
    checks = [CHECKS[name] for name in names]
    report, covered = RunReport(suite="sweep"), 0
    for group in groups:
        t = _INSTANCES[group[0]]
        run_checks(t, checks, report, f"#{group[0]}")
        covered += len(group) << len(index_partition(t))
    return report, covered


@functools.cache
def _corpus(spec: EnumSpec):
    """The instance set of ``spec`` and its groups, as lists of indices into
    it, enumerated once per session and shared by the rows on ``spec``."""
    instances = list(gen_instances(spec))
    groups: dict = {}
    for k, t in enumerate(instances):
        groups.setdefault(_positivity_key(t), []).append(k)
    return instances, sorted(groups.values())


def _sweep(spec: EnumSpec, names):
    """Run the named checks on every group of the instance set; the merged
    report, the number of groups and the (tree, subset) pairs they cover."""
    global _INSTANCES
    _INSTANCES, ordered = _corpus(spec)
    with mp.get_context("fork").Pool(WORKERS) as pool:
        parts = pool.map(_sweep_groups,
                         [(ordered[w::WORKERS], names) for w in range(WORKERS)])
    # the checks ran in the workers: the instances a later row inherits hold
    # nothing that an earlier row's checks left in their memos
    assert not any(t._memo for t in _INSTANCES)
    total = RunReport(suite="sweep")
    for part, _ in parts:
        total.instances += part.instances
        for op, n in part.counts.items():
            total.counts[op] = total.counts.get(op, 0) + n
        for remark, n in part.remarks.items():
            total.remarks[remark] = total.remarks.get(remark, 0) + n
        total.failures += part.failures
    return total, len(ordered), sum(covered for _, covered in parts)


def _report(capsys, criterion: str, ok: bool, detail: str, failures=()):
    with capsys.disabled():
        print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, "\n".join([f"{criterion}: {detail}"] + [str(f) for f in failures[:10]])


def _check_row(capsys, criterion: int, summary, failures=()):
    """Sweep a row within its budget and report it; ``summary(report,
    groups, covered)`` says what was checked."""
    title, spec, names, budget = ROWS[criterion]
    start = time.perf_counter()
    report, groups, covered = _sweep(spec, names)
    failures = [*failures, *report.failures]
    elapsed = time.perf_counter() - start
    ok = not failures and (budget is None or elapsed < budget)
    _report(capsys, f"{criterion} {title}", ok,
            f"{summary(report, groups, covered)}, {len(failures)} failures, {elapsed:.1f}s"
            + (f" < {budget:.0f}s" if budget else ""), failures)


# -- criterion 1: golden chart reproduction ----------------------------------

def test_criterion_1_golden_chart(nested_tree, capsys):
    from test_charts import GOLDEN
    start = time.perf_counter()
    chart = charts_mod.build_chart(nested_tree,
                                   special={F(-1): "b", F(-2): "a"}, tags=())
    text = render_chart(chart)
    elapsed = time.perf_counter() - start
    ok = text == GOLDEN.read_text() and elapsed < 1.0
    _report(capsys, "1 golden chart", ok, f"string-exact, {elapsed:.3f}s")


# -- criterion 2: successor and ascent annotations ---------------------------

def test_criterion_2_annotations(deep_fan, deep_fan_special, capsys):
    ok = (level_successor(deep_fan, -1) == 0
          and level_successor(deep_fan, -2) == -1
          and level_successor(deep_fan, -3) == -2
          and ascent_sequence(deep_fan, deep_fan_special, -3) == (-3, -2, 0)
          and ascent_sequence(deep_fan, deep_fan_special, -1) == (-1, 0))
    _report(capsys, "2 level annotations", ok, "successors and ascents exact")


# -- criteria 3-7: the check registry's sweeps -------------------------------

def test_criterion_3_contraction_suite(capsys):
    _check_row(capsys, 3, lambda r, _, covered: (
        f"{r.counts['contract-validity']} (class, subset) pairs checked, covering "
        f"{covered} (tree, subset) pairs, literal minus-part "
        f"identity fails only on {r.remarks.get(DROPOUT_REMARK, 0)} dropout instances "
        "(corrected reading asserted)"))


def test_criterion_4_chart_suite(capsys):
    _check_row(capsys, 4, lambda r, groups, covered: (
        f"{r.counts['round-trip']} (class, subset) pairs checked, covering "
        f"{covered} (tree, subset) pairs, over {groups} distinct charts"))


def test_criterion_5_transition_suite(capsys):
    _check_row(capsys, 5, lambda r, groups, _: (
        f"{r.instances} transitions over {groups} distinct charts"))


def test_criterion_6_blowup_suite(nested_tree, capsys):
    expected = {1: "1", 2: "eps(-1)", 3: "eps(-1) * eps(-2)"}
    failures = [f"nested divisor k={k}" for k, text in expected.items()
                if blowup_mod.yk_pullback(nested_tree, k) != parse_monomial(text)]
    _check_row(capsys, 6, lambda r, groups, _: (
        f"{len(expected) + r.instances} checks over {groups} distinct charts "
        "(reconstruction on stable classes without dropping edges)"), failures)


def test_criterion_7_ancestor_product_identities(capsys):
    _check_row(capsys, 7, lambda r, *_: (
        f"{r.counts['ancestor-product-identities']} charts (bottom-level index "
        "product reading)"))


# -- criterion 8: determinism ---------------------------------------------------

def test_criterion_8_determinism(tmp_path, nested_tree, capsys):
    path = tmp_path / "nested.json"
    path.write_text(tree_json(nested_tree.base, nested_tree.level))

    outputs = []
    for _ in range(2):
        assert cli_run(["verify", str(path), "--suite", "all", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    streams = []
    for _ in range(2):
        assert cli_run(["enumerate", "--max-edges", "3"]) == 0
        streams.append(capsys.readouterr().out)
    ok = outputs[0] == outputs[1] and streams[0] == streams[1]
    _report(capsys, "8 determinism", ok,
            "verify --json and enumerate streams byte-identical across runs")
