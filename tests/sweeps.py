"""What the sweeps of the tests share: the level classes, which give the
same charts, blowup tables and check results, and a suite's report on the
<=3-edge classes.  Callers enumerate their own instances, so no tree object,
and no memo filled on one, passes from one test to the next."""

from leveltree.checks import SUITES, RunReport, run_checks
from leveltree.enumerate import EnumSpec, gen_instances


def class_key(t):
    """What a check reads of an instance: its tree, its positive vertices
    and its levels."""
    return (tuple(sorted(t.tree.parent.items())),
            frozenset(t.base.positive_vertices()),
            tuple(sorted(t.level.items())))


def group_by_class(instances) -> list[list]:
    """``instances`` in groups of one class each, in the order of their
    first members; a group keeps its members' order."""
    groups: dict = {}
    for t in instances:
        groups.setdefault(class_key(t), []).append(t)
    return list(groups.values())


def representative_report(suite) -> RunReport:
    """A suite's report on each of the 124 <=3-edge representatives,
    enumerated afresh so that no memo filled under one planted fault reaches
    the next."""
    report = RunReport(suite=suite)
    for k, (t, *_) in enumerate(group_by_class(gen_instances(EnumSpec(max_edges=3)))):
        run_checks(t, SUITES[suite], report, f"#{k}")
    return report
