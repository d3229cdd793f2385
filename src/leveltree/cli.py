"""Command-line interface.

Subcommands: ``validate``, ``indices``, ``contract``, ``chart``, ``verify``,
``blowup-report``, ``enumerate``.  Trees are read from UTF-8 JSON files of
the form ``{"root": ..., "parents": {...}, "weights": {...}, "levels":
{...}}`` with levels given as exact rational strings.  Exit codes: 0 on
success, 1 on verification failure, 2 on usage or input errors.

``verify`` runs the suites of the check registry in ``checks``, the same
checks the acceptance sweeps run.  ``chart`` and the subset checks of
``verify`` enumerate every index subset, so they refuse index sets above
``levels.MAX_SUBSET_LABELS`` labels up front, with exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import blowup as blowup_mod
from . import charts as charts_mod
from . import contraction as contraction_mod
from . import enumerate as enum_mod
from .checks import SUITES, RunReport, run_checks
from .errors import DomainError, LevelTreeError
from .levels import (WeightedLevelTree, cross_section, default_special,
                     index_partition, level_data)
from .tree import to_dot, tree_json


def _load_level_tree(path: str) -> WeightedLevelTree:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return WeightedLevelTree.from_json_dict(data)


def _fmt_level(x: Fraction) -> str:
    return str(x)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    t = _load_level_tree(args.file)
    data = level_data(t)
    print(f"ok: {len(t.tree.vertices)} vertices, {len(t.edges())} edges, "
          f"m={_fmt_level(data.m)}")
    return 0


def cmd_indices(args) -> int:
    t = _load_level_tree(args.file)
    data = level_data(t)
    part = index_partition(t)
    sections = {i: sorted(cross_section(t, i)) for i in part.i_plus}
    if args.json:
        out = {
            "m": _fmt_level(data.m),
            "hat_edges": sorted(data.hat_edges),
            "edge_levels": {e: _fmt_level(v) for e, v in sorted(data.edge_level.items())},
            "i_plus": sorted(map(_fmt_level, part.i_plus), key=Fraction, reverse=True),
            "i_m": sorted(part.i_m),
            "i_minus": sorted(part.i_minus),
            "cross_sections": {_fmt_level(i): sections[i] for i in sorted(sections, reverse=True)},
        }
        print(json.dumps(out, sort_keys=True, indent=2))
        return 0
    print(f"m = {_fmt_level(data.m)}")
    print("hat edges:", ", ".join(sorted(data.hat_edges)) or "(none)")
    for e in sorted(data.edge_level):
        print(f"  level({e}) = {_fmt_level(data.edge_level[e])}")
    print("I_plus  =", sorted(map(_fmt_level, part.i_plus), key=Fraction, reverse=True))
    print("I_m     =", sorted(part.i_m))
    print("I_minus =", sorted(part.i_minus))
    for i in sorted(sections, reverse=True):
        print(f"section({_fmt_level(i)}) = {sections[i]}")
    return 0


def _parse_level(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"bad level {text.strip()!r}: expected an exact rational "
                          "such as -1 or -3/2") from None


def _parse_subset(t: WeightedLevelTree, levels: str | None, edges: str | None) -> frozenset:
    subset = set()
    if levels:
        for piece in levels.split(","):
            subset.add(_parse_level(piece))
    if edges:
        for piece in edges.split(","):
            subset.add(piece.strip())
    return frozenset(subset)


def cmd_contract(args) -> int:
    t = _load_level_tree(args.file)
    subset = _parse_subset(t, args.levels, args.edges)
    res = contraction_mod.contract(t, subset)
    if args.dot:
        sys.stdout.write(to_dot(res.tree.base, res.tree.level))
    else:
        sys.stdout.write(tree_json(res.tree.base, res.tree.level))
    return 0


def _parse_special(t: WeightedLevelTree, text: str | None):
    if not text:
        return default_special(t)
    special = {}
    for piece in text.split(","):
        lvl, _, edge = piece.partition("=")
        special[_parse_level(lvl)] = edge.strip()
    return special


def render_chart(chart: charts_mod.TwistedChart) -> str:
    """What ``chart`` prints: the chart-to-base map, then the readout table
    of every index subset."""
    t, theta = chart.frame.t, chart.theta.assignment
    lines = [f"theta zeta_{e} = {theta[charts_mod.zeta(e)]}" for e in sorted(t.edges())]
    lines += [f"theta sig_{j} = {theta[charts_mod.sigma(j)]}" for j in chart.frame.extra_tags]
    for subset in index_partition(t).subsets():
        table = chart.mu(subset)
        tag = "{" + ",".join(sorted(map(str, subset))) + "}"
        for (i, e) in sorted(table, key=lambda k: (-k[0], k[1])):
            lines.append(f"mu[I={tag}] level={_fmt_level(i)} edge={e}: {table[(i, e)]}")
    return "\n".join(lines) + "\n"


def cmd_chart(args) -> int:
    t = _load_level_tree(args.file)
    special = _parse_special(t, args.special)
    tags = tuple(s.strip() for s in args.tags.split(",")) if args.tags else ()
    sys.stdout.write(render_chart(charts_mod.build_chart(t, special, tags=tags)))
    return 0


def cmd_verify(args) -> int:
    t = _load_level_tree(args.file)
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for suite in names:
        report = RunReport(suite=suite)
        start = time.perf_counter()
        run_checks(t, SUITES[suite], report, os.path.basename(args.file))
        report.elapsed = time.perf_counter() - start
        reports.append(report)
    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports], sort_keys=True, indent=2))
    else:
        for r in reports:
            print(r.render())
    return 0 if all(r.ok() for r in reports) else 1


def cmd_blowup_report(args) -> int:
    t = _load_level_tree(args.file)
    chart = charts_mod.build_chart(t)
    part = index_partition(t)
    schedule = blowup_mod.blowup_schedule(t.base)
    lines = [f"weight-contracted tree edges: {sorted(schedule.gamma_bar.edges)}"]
    for k in sorted(schedule.stages):
        for s in sorted(schedule.stages[k], key=sorted):
            lines.append(f"stage {k}: section {sorted(s)}")
    lines.append(f"schedule order-compatible: {schedule.order_compatible()}")
    for k in range(1, len(t.edges()) + 1):
        mono = blowup_mod.yk_pullback(chart, k, verify=False)
        lines.append(f"divisor pullback k={k}: {mono}")
    idx = sorted(int(-i) for i in part.i_plus)
    try:
        rebuilt = blowup_mod.psi2_level_tree(t.base, idx)
        levels = {v: _fmt_level(x) for v, x in sorted(rebuilt.level.items())}
        lines.append(f"reconstruction from slots {idx}: levels {levels}")
    except LevelTreeError as exc:
        lines.append(f"reconstruction from slots {idx}: infeasible ({exc})")
    print("\n".join(lines))
    return 0


def _default_max_edges() -> int:
    raw = os.environ.get("LEVELTREE_MAX_EDGES", "4")
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"LEVELTREE_MAX_EDGES must be an integer, not {raw!r}") from None


def cmd_enumerate(args) -> int:
    spec = enum_mod.EnumSpec(max_edges=args.max_edges, max_weight=args.max_weight,
                             max_levels=args.max_levels)
    count = 0
    for t in enum_mod.gen_instances(spec, stable_only=args.stable_only):
        count += 1
        if not args.count_only:
            sys.stdout.write(json.dumps(t.to_json_dict(), sort_keys=True) + "\n")
    if args.count_only:
        print(count)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="leveltree",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a level tree file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("indices", help="print the derived index data")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_indices)

    p = sub.add_parser("contract", help="contract along an index subset")
    p.add_argument("file")
    p.add_argument("--levels", help="comma-separated levels, e.g. -1,-2")
    p.add_argument("--edges", help="comma-separated edge names")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("chart", help="print the chart-to-base map and readout tables")
    p.add_argument("file")
    p.add_argument("--special", help="level=edge pairs, e.g. -1=b,-2=a")
    p.add_argument("--tags", help="comma-separated extra tag names")
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser("verify", help="run verification suites on one tree")
    p.add_argument("file")
    p.add_argument("--suite", choices=sorted(SUITES) + ["all"], default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("blowup-report", help="sections, schedule, divisors, reconstruction")
    p.add_argument("file")
    p.set_defaults(func=cmd_blowup_report)

    p = sub.add_parser("enumerate", help="emit all small instances as JSON lines")
    p.add_argument("--max-edges", type=int, default=_default_max_edges())
    p.add_argument("--max-weight", type=int, default=2)
    p.add_argument("--max-levels", type=int, default=5)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--stable-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno} column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LevelTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
