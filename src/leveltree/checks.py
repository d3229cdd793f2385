"""The verification checks, each written once, and the one executor that runs
them for ``leveltree verify`` and for the acceptance sweeps.

A ``Check`` is a named identity; its name is the operation string reports
count it under.  It runs on the tree ``t`` of one level class, on every
index subset (``SUBSET``) or once (``CLASS``), once per case its ``cases``
yields for ``t`` -- a releveling, a divisor index, a pair of special-edge
choices -- and on none where its identity is void; what the checks share is
kept in ``t``'s memo.  Its function returns ``(ok, detail)``: the
detail says why it failed or, on a pass, is a remark the report counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from . import blowup as blowup_mod
from . import charts as charts_mod
from . import contraction as contraction_mod
from . import levels as levels_mod
from .errors import DomainError, LevelTreeError, VerificationError

SUBSET, CLASS = "per (class, subset)", "per class"
DROPOUT_REMARK = "literal minus-part identity fails on dropout edges"
# The most special-edge maps whose ordered pairs ``special-vertex-transition``
# checks.  Instances of at most 4, 5 or 6 edges have at most 4, 6 or 9 maps;
# the root with 14 spokes of two leaves each has 14 x 28 = 392 maps, so
# 153,664 pairs.
MAX_SPECIAL_MAPS = 64


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


@dataclass(frozen=True)
class Check:
    name: str
    scope: str
    fn: Callable[..., tuple[bool, str]]  # (t, subset, case) or (t, case)
    cases: Callable[[levels_mod.WeightedLevelTree], Iterable] = lambda t: (None,)


def _contract_validity(t, subset, _):
    """``contract`` takes the maps it derives as they are; rebuilding them
    through the public constructors raises unless ``t_(I)`` is valid."""
    nt = contraction_mod.contract(t, subset).tree
    levels_mod.make_level_tree(nt.root, nt.tree.parent, nt.weight, nt.level)
    return True, ""


def _weight_conservation(t, subset, _):
    """The weights of ``t``, pushed through the projection, are those of
    ``t_(I)`` vertex by vertex, not only in total; the first vertex that
    differs is named."""
    res = contraction_mod.contract(t, subset)
    pushed = dict.fromkeys(res.tree.weight, 0)
    for v, w in t.weight.items():
        u = res.projection[v]
        pushed[u] = pushed.get(u, 0) + w
    for u, w in pushed.items():
        got = res.tree.weight.get(u)
        if got != w:
            return False, f"vertex {u}: weight {got} after contraction, {w} pushed onto it"
    return True, ""


def _index_identities(t, subset, _):
    rep = contraction_mod.index_identity_report(
        t, subset, result=contraction_mod.contract(t, subset))
    if not rep.all_corrected():
        return False, "corrected identity fails"
    if rep.all_strict():
        return True, ""
    if not rep.dropouts:
        return False, "literal minus-part identity fails off the dropout edges"
    return True, DROPOUT_REMARK


def _special_pairs(t):
    choices = levels_mod.special_choices(t)
    count = math.prod(map(len, choices.values()))
    if count > MAX_SPECIAL_MAPS:
        raise DomainError(f"the tree has {count} special-edge maps; their pairs are "
                          f"checked only up to {MAX_SPECIAL_MAPS} maps")
    keys = sorted(choices)
    maps = [dict(zip(keys, combo))
            for combo in itertools.product(*(choices[i] for i in keys))]
    return [(a, b) for a in maps for b in maps]


def _special_vertex_transition(t, pair):
    ok = charts_mod.verify_special_vertex_transition(t, *pair)
    return ok, "" if ok else "{}->{}".format(*pair)


def _divisor_indices(t):
    blowup_mod.sections_of(t)  # listed outside the check: a refusal exits 2, not 1
    return range(1, len(t.edges()) + 1)


def _divisor_containment(t, k):
    try:
        blowup_mod.zk_components(t, k)
    except VerificationError as exc:
        return False, f"k={k}: {exc.witness}"
    return True, ""


def _ideal_transform(t, step):
    ok = blowup_mod.ideal_transform_check(t, step)
    return ok, "" if ok else f"step={step}"


def _level_reconstruction(t, _):
    rebuilt = blowup_mod.psi2_level_tree(t.base, blowup_mod.divisor_slots(t))
    ok = levels_mod.is_equivalent(t, rebuilt)
    return ok, "" if ok else "wrong class"


def _if_levels(t):
    return (None,) if levels_mod.index_partition(t).i_plus else ()


# Library functions are looked up on their modules at call time, so a
# wrapper installed there (the benchmark's tracer) sees every call.
SUITES = {
    "contraction": (
        Check("contract-validity", SUBSET, _contract_validity),
        Check("weight-conservation", SUBSET, _weight_conservation),
        Check("index-identities", SUBSET, _index_identities),
        Check("equivalence-compat", SUBSET,
              lambda t, subset, t2: (
                  contraction_mod.verify_equivalence_compat(t, t2, subset), ""),
              relevelings),
    ),
    "charts": (
        Check("round-trip", SUBSET,
              lambda t, subset, _: (
                  charts_mod.verify_round_trip(charts_mod.build_chart(t), subset), "")),
        Check("mu-vanishing", SUBSET,
              lambda t, subset, _: (
                  charts_mod.check_mu_vanishing(charts_mod.build_chart(t), subset), "")),
        Check("stratum-transition", SUBSET,
              lambda t, subset, _: (charts_mod.verify_stratum_transition(t, subset), "")),
        Check("ancestor-product-identities", CLASS,
              lambda t, _: (charts_mod.remark_identities(charts_mod.build_chart(t)), ""),
              _if_levels),
        Check("parameter-transition", CLASS,
              lambda t, _: (charts_mod.verify_parameter_transition(t), "")),
        Check("special-vertex-transition", CLASS, _special_vertex_transition,
              _special_pairs),
    ),
    "blowup": (
        Check("divisor-containment", CLASS, _divisor_containment, _divisor_indices),
        Check("bundle-identity", CLASS,
              lambda t, _: (blowup_mod.bundle_identity(t), ""), _if_levels),
        Check("blowup-chart-comparison", CLASS,
              lambda t, _: (blowup_mod.psi2_chart_check(t), "")),
        Check("ideal-transform", CLASS, _ideal_transform,
              lambda t: range(1, len(levels_mod.index_partition(t).i_plus) + 2)),
        # slots determine the classes of stable trees without dropping edges
        Check("level-reconstruction", CLASS, _level_reconstruction,
              lambda t: ((None,) if t.base.is_stable()
                         and not levels_mod.index_partition(t).i_m else ())),
    ),
}
CHECKS = {check.name: check for suite in SUITES.values() for check in suite}


def _run(report: RunReport, check: Check, cases: Iterable, name: str,
         t: levels_mod.WeightedLevelTree, *args) -> bool:
    """Run ``check`` on each of its ``cases``; False if one raised.  A
    failure of a subset's case is named by the subset's labels too."""
    clean = True
    for case in cases:
        try:
            ok, detail = check.fn(t, *args, case)
        except LevelTreeError as exc:
            ok, detail, clean = False, str(exc), False
        label = f"{name} I={sorted(map(str, args[0]))}" if args and not ok else name
        report.check(check.name, ok, label, detail)
    return clean


def run_checks(t: levels_mod.WeightedLevelTree, checks: Iterable[Check],
               report: RunReport, name: str) -> None:
    """Run ``checks`` on the class of ``t``, named ``name``.

    The subsets are enumerated once, and refused up front above the label
    bound of ``IndexPartition.subsets``.  Every check's cases are listed
    next, once, before any check runs: the traverse sections above
    ``blowup.MAX_SECTIONS`` and the special-edge maps above
    ``MAX_SPECIAL_MAPS`` are refused up front too, and every subset is
    checked against the same relevelings.  A check that raises a
    ``LevelTreeError`` fails with the error as its detail, and the later
    checks of that subset are skipped, since they would meet the same error.
    """
    checks = list(checks)
    per_subset = any(check.scope == SUBSET for check in checks)
    subsets = levels_mod.index_partition(t).subsets() if per_subset else ()
    listed = [(check, list(check.cases(t))) for check in checks]
    for subset in subsets:
        for check, cases in listed:
            if check.scope == SUBSET and not _run(report, check, cases, name, t, subset):
                break
    for check, cases in listed:
        if check.scope == CLASS:
            _run(report, check, cases, name, t)
    # the checks shared the charts through t's memo; a sweep keeps its trees
    # to the end, and would keep every class's charts with them
    charts_mod.drop_charts(t)
