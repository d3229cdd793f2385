"""Command-line interface.

Subcommands: ``validate``, ``indices``, ``contract``, ``chart``, ``verify``,
``blowup-report``, ``enumerate``.  Trees are read from UTF-8 JSON files of
the form ``{"root": ..., "parents": {...}, "weights": {...}, "levels":
{...}}`` with levels given as exact rational strings.  Exit codes: 0 on
success, 1 on verification failure, 2 on usage or input errors.

``verify`` runs the suites of the check registry in ``checks``, the same
checks the acceptance sweeps run.  What a command lists is bounded, and
refused up front with exit 2 above the bound: ``chart`` and the subset
checks of ``verify`` refuse more than ``levels.MAX_SUBSET_LABELS`` labels,
``blowup-report`` and the blowup suite more than ``blowup.MAX_SECTIONS``
traverse sections, the chart suite more than ``checks.MAX_SPECIAL_MAPS``
special-edge maps, and ``enumerate`` more than ``ENUM_MAX_EDGES`` edges or
weights above ``ENUM_MAX_WEIGHT``.  A tree file that repeats a key in any
JSON object is refused.

The argument parser is built once per process, on the first ``run``, and
reused by every later call; ``LEVELTREE_MAX_EDGES`` is read by ``enumerate``
alone, when it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import blowup as blowup_mod
from . import charts as charts_mod
from . import contraction as contraction_mod
from . import enumerate as enum_mod
from .checks import SUITES, RunReport, run_checks
from .errors import DomainError, LevelTreeError, StructureError
from .levels import (WeightedLevelTree, as_level, cross_section, index_partition,
                     level_data)
from .tree import to_dot, tree_json


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct; a repeated key would
    otherwise take its last value silently."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise StructureError(f"repeated key {json.dumps(key)} in a JSON object")
        out[key] = value
    return out


def _load_level_tree(path: str) -> WeightedLevelTree:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise  # reported by ``run``
        except ValueError:  # only an integer longer than Python converts
            raise StructureError("a number in a tree file is too long to read") from None
    return WeightedLevelTree.from_json_dict(data)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    t = _load_level_tree(args.file)
    data = level_data(t)
    print(f"ok: {len(t.tree.vertices)} vertices, {len(t.edges())} edges, "
          f"m={data.m}")
    return 0


def cmd_indices(args) -> int:
    t = _load_level_tree(args.file)
    data = level_data(t)
    part = index_partition(t)
    sections = {i: sorted(cross_section(t, i)) for i in part.i_plus}
    i_plus = [str(i) for i in sorted(part.i_plus, reverse=True)]
    if args.json:
        out = {
            "m": str(data.m),
            "hat_edges": sorted(data.hat_edges),
            "edge_levels": {e: str(v) for e, v in sorted(data.edge_level.items())},
            "i_plus": i_plus,
            "i_m": sorted(part.i_m),
            "i_minus": sorted(part.i_minus),
            "cross_sections": {str(i): sections[i] for i in sorted(sections, reverse=True)},
        }
        print(json.dumps(out, sort_keys=True, indent=2))
        return 0
    print(f"m = {data.m}")
    print("hat edges:", ", ".join(sorted(data.hat_edges)) or "(none)")
    for e in sorted(data.edge_level):
        print(f"  level({e}) = {data.edge_level[e]}")
    print("I_plus  =", i_plus)
    print("I_m     =", sorted(part.i_m))
    print("I_minus =", sorted(part.i_minus))
    for i in sorted(sections, reverse=True):
        print(f"section({i}) = {sections[i]}")
    return 0


def _parse_subset(levels: str | None, edges: str | None) -> frozenset:
    subset = set()
    if levels:
        for piece in levels.split(","):
            subset.add(as_level(piece))
    if edges:
        for piece in edges.split(","):
            subset.add(piece.strip())
    return frozenset(subset)


def cmd_contract(args) -> int:
    t = _load_level_tree(args.file)
    subset = _parse_subset(args.levels, args.edges)
    res = contraction_mod.contract(t, subset)
    if args.dot:
        sys.stdout.write(to_dot(res.tree.base, res.tree.level))
    else:
        sys.stdout.write(tree_json(res.tree.base, res.tree.level))
    return 0


def _parse_special(text: str | None):
    """The special map of ``--special``; ``None`` without it, so the chart
    takes the default special edges."""
    if not text:
        return None
    special = {}
    for piece in text.split(","):
        lvl, _, edge = piece.partition("=")
        level = as_level(lvl)
        if level in special:
            raise DomainError(f"level {level} is given twice in --special={text!r}")
        special[level] = edge.strip()
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
            lines.append(f"mu[I={tag}] level={i} edge={e}: {table[(i, e)]}")
    return "\n".join(lines) + "\n"


def cmd_chart(args) -> int:
    t = _load_level_tree(args.file)
    special = _parse_special(args.special)
    tags = () if args.tags is None else tuple(s.strip() for s in args.tags.split(","))
    if "" in tags:
        raise DomainError(f"empty tag name in --tags={args.tags!r}")
    try:
        sys.stdout.write(render_chart(charts_mod.build_chart(t, special, tags=tags)))
    finally:  # render_chart refuses a tree above the label bound
        charts_mod.drop_charts(t)
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
    bar = blowup_mod.weight_contracted_tree(t.base)
    sections = blowup_mod.traverse_sections(bar)
    lines = [f"weight-contracted tree edges: {sorted(bar.edges)}"]
    lines += [f"stage {len(s)}: section {sorted(s)}"
              for s in sorted(sections, key=lambda s: (len(s), sorted(s)))]
    lines.append(f"schedule order-compatible: {blowup_mod.order_compatible(bar)}")
    for k in range(1, len(t.edges()) + 1):
        lines.append(f"divisor pullback k={k}: {blowup_mod.yk_pullback(t, k)}")
    idx = blowup_mod.divisor_slots(t)
    try:
        rebuilt = blowup_mod.psi2_level_tree(t.base, idx)
        levels = {v: str(x) for v, x in sorted(rebuilt.level.items())}
        lines.append(f"reconstruction from slots {idx}: levels {levels}")
    except LevelTreeError as exc:
        lines.append(f"reconstruction from slots {idx}: infeasible ({exc})")
    print("\n".join(lines))
    return 0


# ``enumerate --max-edges 6 --count-only`` prints 223741 in 10.8 s, while
# ``--max-edges 3 --max-weight 30`` runs for minutes (2-vCPU host).
ENUM_MAX_EDGES = 6
ENUM_MAX_WEIGHT = 2


def _default_max_edges() -> int:
    """The edge bound of ``enumerate`` without ``--max-edges``, read when it
    runs, so a bad value fails only that subcommand."""
    raw = os.environ.get("LEVELTREE_MAX_EDGES", "4")
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"LEVELTREE_MAX_EDGES must be an integer, not {raw!r}") from None


def cmd_enumerate(args) -> int:
    max_edges = _default_max_edges() if args.max_edges is None else args.max_edges
    if max_edges > ENUM_MAX_EDGES or args.max_weight > ENUM_MAX_WEIGHT:
        raise DomainError(f"enumerate is bounded to {ENUM_MAX_EDGES} edges and weight "
                          f"{ENUM_MAX_WEIGHT}; asked for {max_edges} edges and "
                          f"weight {args.max_weight}")
    spec = enum_mod.EnumSpec(max_edges=max_edges, max_weight=args.max_weight,
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
    p.add_argument("--max-edges", type=int)
    p.add_argument("--max-weight", type=int, default=2)
    p.add_argument("--max-levels", type=int, default=5)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--stable-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first ``run``


def run(argv=None) -> int:
    global _parser
    try:
        if _parser is None:
            _parser = build_parser()
        args = _parser.parse_args(argv)
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno} column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 2
    except OSError as exc:  # missing, a directory, unreadable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: a tree file must be UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except LevelTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
