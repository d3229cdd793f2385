"""The verification checks, each written once, and the one executor that runs
them for ``leveltree verify`` and for the acceptance sweeps.

A ``Check`` is a named identity; its name is the operation string reports
count it under.  Its scope says where it runs on one level class: on every
index subset (``SUBSET``), on every subset once for each instance of the
class's group (``INSTANCE``: instances sharing the tree, the levels and the
positivity pattern of the weights), or once on the class (``CLASS``).  It
runs once per case its ``cases`` yields -- a releveling, a divisor index, a
pair of special-edge choices, an instance -- and on none where its identity
is void.  Its function returns ``(ok, detail)``: the detail says why it
failed or, on a pass, is a remark the report counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable

from . import blowup as blowup_mod
from . import charts as charts_mod
from . import contraction as contraction_mod
from . import levels as levels_mod
from .errors import LevelTreeError, VerificationError

SUBSET, INSTANCE, CLASS = "per (class, subset)", "per instance", "per class"
DROPOUT_REMARK = "literal minus-part identity fails on dropout edges"


@dataclass
class RunReport:
    suite: str
    instances: int = 0
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    remarks: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def check(self, operation: str, ok: bool, instance: str, detail: str = ""):
        self.instances += 1
        self.counts[operation] = self.counts.get(operation, 0) + 1
        if not ok:
            self.failures.append({"instance": instance, "operation": operation,
                                  "detail": detail})
        elif detail:
            self.remarks[detail] = self.remarks.get(detail, 0) + 1

    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        # elapsed and the remarks are intentionally omitted so identical
        # inputs give byte-identical reports
        return {"suite": self.suite, "instances": self.instances,
                "checks": dict(sorted(self.counts.items())),
                "failures": sorted(self.failures,
                                   key=lambda f: (f["instance"], f["operation"]))}

    def render(self) -> str:
        lines = [f"suite {self.suite}: {self.instances} checks, "
                 f"{len(self.failures)} failures ({self.elapsed:.2f}s)"]
        for op, n in sorted(self.counts.items()):
            lines.append(f"  {op}: {n}")
        for f in self.to_json_dict()["failures"]:
            lines.append(f"  FAIL {f['instance']} {f['operation']} {f['detail']}")
        return "\n".join(lines)


def relevelings(t: levels_mod.WeightedLevelTree):
    """Equivalent level maps of ``t``: two rescalings, and every level below
    ``m`` pushed one further down."""
    cls = levels_mod.WeightedLevelTree
    m = levels_mod.level_data(t).m
    yield cls(base=t.base, level={v: 2 * x for v, x in t.level.items()})
    yield cls(base=t.base, level={v: Fraction(3, 2) * x for v, x in t.level.items()})
    yield cls(base=t.base, level={v: (x if x >= m else x - 1) for v, x in t.level.items()})


class LevelClass:
    """One level class under check: its representative ``t``, the named
    instances of its group (``t`` first), and what its checks share, each
    built once."""

    def __init__(self, t: levels_mod.WeightedLevelTree, name: str, members=()):
        self.t = t
        self.instances = ((name, t), *members)
        self.part = levels_mod.index_partition(t)

    @cached_property
    def chart(self) -> charts_mod.TwistedChart:
        return charts_mod.build_chart(self.t)

    @cached_property
    def relevelings(self) -> tuple:
        return tuple(relevelings(self.t))


@dataclass(frozen=True)
class Check:
    name: str
    scope: str
    fn: Callable[..., tuple[bool, str]]  # (class, subset, case) or (class, case)
    cases: Callable[[LevelClass], Iterable] = lambda c: (None,)


def _contract_validity(c, subset, _):
    contraction_mod.contract(c.t, subset)  # raises unless t_(I) is a valid tree
    return True, ""


def _weight_conservation(c, subset, instance):
    """Each instance of the group pushes its own weights through the
    representative's projection."""
    name, member = instance
    res = contraction_mod.contract(c.t, subset)
    total = (res.tree.base.total_weight() if member is c.t
             else sum(member.weight[v] for v in res.projection))
    ok = total == member.base.total_weight()
    return ok, "" if ok else f"{name}: total weight {total} after contraction"


def _index_identities(c, subset, _):
    rep = contraction_mod.index_identity_report(
        c.t, subset, result=contraction_mod.contract(c.t, subset))
    if not rep.all_corrected():
        return False, "corrected identity fails"
    if rep.all_strict():
        return True, ""
    if not rep.dropouts:
        return False, "literal minus-part identity fails off the dropout edges"
    return True, DROPOUT_REMARK


def _special_pairs(c):
    choices = levels_mod.special_choices(c.t)
    keys = sorted(choices)
    maps = [dict(zip(keys, combo))
            for combo in itertools.product(*(choices[i] for i in keys))]
    return [(a, b) for a in maps for b in maps]


def _special_vertex_transition(c, pair):
    ok = charts_mod.verify_special_vertex_transition(c.t, *pair)
    return ok, "" if ok else "{}->{}".format(*pair)


def _divisor_containment(c, k):
    try:
        blowup_mod.yk_pullback(c.chart, k, verify=True)
    except VerificationError as exc:
        return False, f"k={k}: {exc.witness}"
    return True, ""


def _ideal_transform(c, step):
    ok = blowup_mod.ideal_transform_check(c.t, step)
    return ok, "" if ok else f"step={step}"


def _level_reconstruction(c, _):
    slots = sorted(int(-i) for i in c.part.i_plus)
    ok = levels_mod.is_equivalent(c.t, blowup_mod.psi2_level_tree(c.t.base, slots))
    return ok, "" if ok else "wrong class"


def _if_levels(c):
    return (None,) if c.part.i_plus else ()


# Library functions are looked up on their modules at call time, so a
# wrapper installed there (the benchmark's tracer) sees every call.
SUITES = {
    "contraction": (
        Check("contract-validity", SUBSET, _contract_validity),
        Check("weight-conservation", INSTANCE, _weight_conservation,
              lambda c: c.instances),
        Check("index-identities", SUBSET, _index_identities),
        Check("equivalence-compat", SUBSET,
              lambda c, subset, t2: (
                  contraction_mod.verify_equivalence_compat(c.t, t2, subset), ""),
              lambda c: c.relevelings),
    ),
    "charts": (
        Check("round-trip", SUBSET,
              lambda c, subset, _: (charts_mod.verify_round_trip(c.chart, subset), "")),
        Check("mu-vanishing", SUBSET,
              lambda c, subset, _: (charts_mod.check_mu_vanishing(c.chart, subset), "")),
        Check("stratum-transition", SUBSET,
              lambda c, subset, _: (charts_mod.verify_stratum_transition(c.t, subset), "")),
        Check("ancestor-product-identities", CLASS,
              lambda c, _: (charts_mod.remark_identities(c.chart), ""), _if_levels),
        Check("parameter-transition", CLASS,
              lambda c, _: (charts_mod.verify_parameter_transition(c.t), "")),
        Check("special-vertex-transition", CLASS, _special_vertex_transition,
              _special_pairs),
    ),
    "blowup": (
        Check("divisor-containment", CLASS, _divisor_containment,
              lambda c: range(1, len(c.t.edges()) + 1)),
        Check("bundle-identity", CLASS,
              lambda c, _: (blowup_mod.bundle_identity(c.t), ""), _if_levels),
        Check("blowup-chart-comparison", CLASS,
              lambda c, _: (blowup_mod.psi2_chart_check(c.t), "")),
        Check("ideal-transform", CLASS, _ideal_transform,
              lambda c: range(1, len(c.part.i_plus) + 2)),
        # slots determine the classes of stable trees without dropping edges
        Check("level-reconstruction", CLASS, _level_reconstruction,
              lambda c: (None,) if c.t.base.is_stable() and not c.part.i_m else ()),
    ),
}
CHECKS = {check.name: check for suite in SUITES.values() for check in suite}


def _run(report: RunReport, check: Check, label: str, c: LevelClass, *args) -> bool:
    """Run ``check`` on each of its cases; False if one raised."""
    clean = True
    for case in check.cases(c):
        try:
            ok, detail = check.fn(c, *args, case)
        except LevelTreeError as exc:
            ok, detail, clean = False, str(exc), False
        report.check(check.name, ok, label, detail)
    return clean


def run_checks(t: levels_mod.WeightedLevelTree, checks: Iterable[Check],
               report: RunReport, name: str, members=()) -> None:
    """Run ``checks`` on the class of ``t``, named ``name``; ``members`` are
    the other instances of its group as ``(name, tree)`` pairs.

    The subsets are enumerated once, and refused up front above the label
    bound of ``IndexPartition.subsets``.  A check that raises a
    ``LevelTreeError`` fails with the error as its detail, and the later
    checks of that subset are skipped, since they would meet the same error.
    """
    c = LevelClass(t, name, members)
    per_subset = [check for check in checks if check.scope != CLASS]
    if per_subset:
        for subset in c.part.subsets():
            label = f"{name} I={sorted(map(str, subset))}"
            for check in per_subset:
                if not _run(report, check, label, c, subset):
                    break
    for check in checks:
        if check.scope == CLASS:
            _run(report, check, name, c)
