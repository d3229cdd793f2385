"""Traverse sections, center loci, divisor pullbacks, and the reconstruction
of a level structure from divisor data.

A traverse section of a rooted tree is an edge set meeting the path from the
root to each minimal vertex exactly once.  Sections of the weight-contracted
tree index the chart components of the center loci ``Z_k`` (sections of size
``k``) and of their unions ``Y_k``; on a twisted chart the ``Y_k`` pullback
is the principal monomial over the gap coordinates of all levels whose
cross-section has at most ``k`` edges.  Sections are listed only up to
``MAX_SECTIONS``; above it they are refused up front.

The centers are blown up in order of size.  Sections are partially ordered:
``s1 > s2`` iff they differ and each edge of ``s1`` lies at or above some
edge of ``s2``.  Blowing up by size respects that order iff no non-root
vertex of the weight-contracted tree has exactly one child: if ``s1 > s2``,
each edge of ``s1`` is replaced by a section of the subtree below it, and
that replacement is a single edge exactly at a one-child vertex.
``order_compatible`` reads this off the tree; the tests hold the order's
definition.

The reconstruction direction rebuilds a weighted level tree over a weighted
tree from prescribed level slots, placing every vertex as high as the slots,
the weight cap, and its parent allow.  A tree's own slots are the ranks of
its ``I_plus`` levels, so every level map of a class gives the same slots.

Levels are read only through the rank tables of ``levels`` (see
``WeightedLevelTree.ranks``): a divisor slot and a blowup stage are level
ranks.  Line-bundle classes are ``Monomial``s over one symbol ``L_e`` per
edge, so their bookkeeping is monomial arithmetic.

The centers and divisors read the level tree alone, the same on every chart
of its class; they are cumulative in ``k`` and in the stage, so the tables
they read are built once per class.  The cross-sections are read by rank
from ``LevelData.sections``.  The tables built once per tree are ``kept``
functions of it (see ``levels.kept``): the traverse sections of its
weight-contracted tree (``sections_of``), those touching the non-dropping
hat edges sorted by size, with the least ``k`` at which each has a witness
edge (``_zk_table``), the ranks sorted by cross-section size
(``_ranks_by_size``) and the ``t:eps`` gap symbol of each rank
(``_gap_symbols``).  The tree's memo also keeps the ``Y_k`` pullback of the
last ``k`` asked for (``"yk"``) and the scaling monomial of the last stage
asked for (``"stage_factor"``); the next ``k`` extends that ``Y_k``, and the
next stage that scaling monomial.  The two sides of the bundle identity are
running products down the tree.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

from .charts import CHECK_TAGS, ONE, TwistedChart, build_chart, eps, sigma, zeta
from .errors import DomainError, InfeasibleError, VerificationError
from .levels import (WeightedLevelTree, default_special_by_rank,
                     index_partition, kept, level_data)
from .monomial import Monomial, MonomialMap, Symbol, compose
from .tree import Edge, RootedTree, Vertex, WeightedTree

TraverseSection = frozenset
MAX_SECTIONS = 2 ** 14


def traverse_sections(tree: RootedTree) -> frozenset[TraverseSection]:
    """The complete set of traverse sections, built bottom-up: each child
    subtree is covered either by its own parent edge or by a section of the
    subtree below it.  The edgeless tree has none.  They are counted first
    (the product over the children of one plus their counts) and refused
    above ``MAX_SECTIONS``."""
    order = list(tree.preorder())[::-1]  # children before parents
    count: dict[Vertex, int] = {}
    for v in order:
        cs = tree.children(v)
        count[v] = math.prod(1 + count[c] for c in cs) if cs else 0
    if count[tree.root] > MAX_SECTIONS:
        raise DomainError(f"the tree has {count[tree.root]} traverse sections; "
                          f"they are listed only up to {MAX_SECTIONS}")
    # each vertex's options: the sections below it, then its own parent edge
    below: dict[Vertex, list[frozenset]] = {}
    for v in order:
        options = [below.pop(c) for c in tree.children(v)]
        if len(options) == 1:  # one child: its options, not copied, are v's sections
            sections = options[0]
        else:
            sections = ([frozenset().union(*pick) for pick in itertools.product(*options)]
                        if options else [])
        if v != tree.root:
            sections.append(frozenset([v]))
        below[v] = sections
    return frozenset(below[tree.root])


@kept
def sections_of(t: WeightedLevelTree) -> frozenset[TraverseSection]:
    """The traverse sections of the weight-contracted tree of ``t``, listed
    once per class."""
    return traverse_sections(weight_contracted_tree(t.base))


def weight_contracted_tree(wt: WeightedTree) -> RootedTree:
    """Contract every edge having a positively weighted vertex at or above its
    upper endpoint; what remains is the weightless upper shell."""
    tree = wt.tree
    marked: dict[Vertex, bool] = {}
    for v in tree.preorder():
        above = marked[tree.parent[v]] if v != tree.root else False
        marked[v] = above or wt.weight[v] > 0
    surviving = {v: tree.parent[v] for v in tree.parent if not marked[tree.parent[v]]}
    return RootedTree(root=tree.root, parent=surviving)


def order_compatible(bar: RootedTree) -> bool:
    """Whether blowing up the sections of the weight-contracted tree ``bar``
    by size respects their order: no section lies above another one of the
    same size, that is, no non-root vertex has exactly one child."""
    return all(len(bar.children(v)) != 1 for v in bar.edges)


@kept
def _zk_table(t: WeightedLevelTree) -> tuple[list, list, list, list]:
    """The traverse sections touching the non-dropping hat edges, sorted by
    size and then by their sorted edges, so that a failure names the same
    witness under every hash seed: their sizes, the sections, the least
    ``k`` at which each has a witness edge, and the running maximum of
    those.  An edge is a witness once each rank it crosses qualifies, so
    from the largest size among them on.  Built once per class."""
    data = level_data(t)
    keep = data.hat_edges - index_partition(t).i_m
    sizes = [len(s) for s in data.sections]
    rank = t.ranks().of_vertex
    edge_ready = {e: max(sizes[rank[t.tree.parent[e]] + 1:data.edge_rank[e] + 1])
                  for e in keep}
    rows = sorted(((len(s), min(edge_ready[e] for e in s & keep), s)
                   for s in sections_of(t) if s & keep),
                  key=lambda row: (row[0], sorted(row[2])))
    ready = [w for _, w, _ in rows]
    return ([n for n, _, _ in rows], [s for _, _, s in rows], ready,
            list(itertools.accumulate(ready, max)))


def zk_count(t: WeightedLevelTree, k: int) -> int:
    """The number of chart components of the ``k``-th cumulative center
    (``zk_components``), each checked to pull back into the ``Y_k`` divisor
    via a witness edge all of whose crossed gaps qualify.  The sections are
    sorted by size once per class, so ``k`` reads a prefix and lists none."""
    if k < 1:
        raise DomainError("divisor index must be positive")
    sizes, listed, ready, worst = _zk_table(t)
    n = bisect.bisect_right(sizes, k)
    if n and worst[n - 1] > k:
        s = next(s for s, w in zip(listed, ready) if w > k)
        raise VerificationError(
            "no witness edge places the component inside the divisor", witness=sorted(s))
    return n


def zk_components(t: WeightedLevelTree, k: int) -> frozenset[TraverseSection]:
    """Chart components of the ``k``-th cumulative center: the traverse
    sections of the weight-contracted tree of size at most ``k`` that touch
    the non-dropping hat edges, checked as ``zk_count`` checks them."""
    return frozenset(_zk_table(t)[1][:zk_count(t, k)])


@kept
def _ranks_by_size(t: WeightedLevelTree) -> tuple[list[int], list[int]]:
    """The ranks ``1..m_rank`` sorted by the size of their cross-section,
    and those sizes, built once per class."""
    sections = level_data(t).sections
    ranks = sorted(range(1, len(sections)), key=lambda r: len(sections[r]))
    return [len(sections[r]) for r in ranks], ranks


def yk_pullback(t: WeightedLevelTree, k: int) -> Monomial:
    """The divisor monomial of the ``k``-th cumulative center: the product of
    the gap coordinates ``charts.eps`` of every level whose cross-section
    has at most ``k`` edges.  The ranks are sorted by size once per class, so ``k`` reads a
    prefix, and the last ``Y_k`` asked for is kept in the tree's memo and
    extended, since the report goes through ``k`` in order; it starts again
    when fewer ranks qualify."""
    if k < 1:
        raise DomainError("divisor index must be positive")
    memo, levels = t._memo, t.ranks().levels
    sizes, ranks = _ranks_by_size(t)
    n = bisect.bisect_right(sizes, k)
    done, factor = memo.get("yk", (0, ONE))
    if done > n:
        done, factor = 0, ONE
    factor = factor * Monomial.product(Monomial.sym(eps(levels[r])) for r in ranks[done:n])
    memo["yk"] = n, factor
    return factor


# ---------------------------------------------------------------------------
# Level reconstruction from divisor slots
# ---------------------------------------------------------------------------

def divisor_slots(t: WeightedLevelTree) -> list[int]:
    """The divisor slots of ``t``: the ranks ``1..|I_plus|`` of its
    ``I_plus`` levels, the same for every level map of its class."""
    return list(range(1, level_data(t).m_rank + 1))


def psi2_level_tree(tau: WeightedTree, divisor_indices: Sequence[int]) -> WeightedLevelTree:
    """Rebuild the weighted level tree over ``tau`` whose level index is
    exactly ``{-i_k, ..., -i_1}``: every vertex goes to the highest slot
    below its parent, weighted vertices no higher than the bottom slot, and
    vertices out of slots continue downward by depth.  Raises when no level
    map realizes the requested index."""
    idx = list(divisor_indices)
    bad = [i for i in idx if isinstance(i, bool) or not isinstance(i, int)]
    if bad:
        raise DomainError(f"divisor indices must be ints, not {bad[0]!r}")
    if any(i <= 0 for i in idx) or sorted(set(idx)) != idx:
        raise DomainError("divisor indices must be strictly increasing and positive")
    if not idx and tau.weight[tau.root] == 0:
        raise InfeasibleError("an empty index needs a positively weighted root")
    # integer levels: slot -i for each index i, vertices out of slots below
    bottom = -idx[-1] if idx else 0
    tree = tau.tree
    level: dict[Vertex, int] = {tau.root: 0}
    for v in tree.preorder():
        if v == tau.root:
            continue
        par_level = level[tree.parent[v]]
        cap = bottom if tau.weight[v] > 0 else 0
        # the highest slot strictly below the parent and at or below the cap
        pos = bisect.bisect_left(idx, max(1 - par_level, -cap))
        level[v] = -idx[pos] if pos < len(idx) else min(par_level, bottom) - 1
    out = WeightedLevelTree(base=tau, level={v: Fraction(x) for v, x in level.items()})
    slots = frozenset(Fraction(-i) for i in idx)
    if index_partition(out).i_plus != slots:
        raise InfeasibleError(
            f"no level map over this tree has level index {sorted(slots)}")
    return out


# ---------------------------------------------------------------------------
# Line bundles
# ---------------------------------------------------------------------------

def _bundle(e: Edge) -> Monomial:
    """The basis line-bundle class of an edge."""
    return Monomial.sym(Symbol("L", e))


def twisted_bundles(t: WeightedLevelTree
                    ) -> tuple[tuple[Monomial, ...], dict[Edge, Monomial]]:
    """The twisted classes per level rank of ``I_plus`` (entry 0, level 0,
    is 1) and per hat edge, with the default special edges, built downward:
    each one is its basis class divided by the twisted classes of the ranks
    strictly inside its ascent gap (resp. its span gap)."""
    special_at = default_special_by_rank(t)
    ranks, data = t.ranks(), level_data(t)
    by_rank = [ONE]
    for k in range(1, data.m_rank + 1):
        se = special_at[k]
        top = ranks.of_vertex[t.tree.parent[se]]
        by_rank.append(_bundle(se) / Monomial.product(by_rank[top + 1:k]))
    by_edge = {e: _bundle(e)
               / Monomial.product(by_rank[ranks.of_vertex[t.tree.parent[e]] + 1:k])
               for e, k in data.edge_rank.items()}
    return tuple(by_rank), by_edge


def _bundle_sides(t: WeightedLevelTree) -> Iterator[tuple[Edge, Monomial, Monomial]]:
    """The two sides of the bundle identity at each hat edge, as running
    products: the edges are taken by edge rank, which puts each hat edge
    after the one above it, so an edge's ancestor products are its parent
    edge's times one factor, and the product of the twisted level classes
    above its level extends the previous edge's.  An edge's products are
    kept until its last child has read them."""
    data = level_data(t)
    by_rank, by_edge = twisted_bundles(t)
    tree = t.tree
    # what the children of a vertex read: the twists of the edges at or
    # above it, each divided by its level's, and their plain product
    above = {tree.root: (ONE, ONE)}
    unread: dict[Edge, int] = {}  # children yet to read an edge's entry
    levels_above, filled = ONE, 1  # the product of by_rank[1:filled]
    for e in sorted(data.edge_rank, key=data.edge_rank.get):
        k = data.edge_rank[e]
        levels_above = levels_above * Monomial.product(by_rank[filled:k])
        filled = k
        p = tree.parent[e]
        twists, plain = above[p]
        if p in unread:
            unread[p] -= 1
            if not unread[p]:
                del above[p], unread[p]
        plain = plain * _bundle(e)
        yield e, by_edge[e] * twists, plain / levels_above
        if k < data.m_rank and tree.children(e):  # its children are hat edges
            above[e] = twists * by_edge[e] / by_rank[k], plain
            unread[e] = len(tree.children(e))


def bundle_identity(t: WeightedLevelTree) -> bool:
    """For every hat edge, correcting its twisted class by the ancestor
    twists recovers the plain ancestor product divided by all twisted level
    classes strictly above its level, with the default special edges."""
    if not level_data(t).m_rank:
        raise DomainError("the identity needs a nonempty level index")
    return all(lhs == rhs for _, lhs, rhs in _bundle_sides(t))


# ---------------------------------------------------------------------------
# The blowup-side chart and its comparison with the twisted chart
# ---------------------------------------------------------------------------

@kept
def _gap_symbols(t: WeightedLevelTree) -> tuple[tuple, dict[Symbol, int]]:
    """The blowup chart's gap symbol ``t:eps`` of each rank ``1..m_rank``
    (entry 0 is ``None``), and the rank of each, built once per class."""
    levels = t.ranks().levels
    at = (None,) + tuple(Symbol("t:eps", levels[k])
                         for k in range(1, level_data(t).m_rank + 1))
    return at, {s: k for k, s in enumerate(at) if k}


def blowup_side_maps(t: WeightedLevelTree
                     ) -> tuple[MonomialMap, MonomialMap, TwistedChart]:
    """The blowup-chart picture of the same stratum: the projection to the
    base writes each modular parameter as a unit ``rho`` (or a vanishing
    ``zch`` for dropping edges) times its crossed gap coordinates, and the
    comparison map rewrites the twisted chart's coordinates in those terms.
    Returns ``(projection, comparison, chart)``."""
    chart = build_chart(t)
    frame = chart.frame
    data, part = frame.data, frame.part

    def rho(e: Edge) -> Monomial:
        return ONE if e in frame.special_edges() else Monomial.sym(Symbol("rho", e))

    top = range(1, data.m_rank + 1)
    teps_at = _gap_symbols(t)[0]

    source = {teps_at[k] for k in top}
    source |= {Symbol("rho", e)
               for e in data.hat_edges - part.i_m - frame.special_edges()}
    source |= {Symbol("zch", e) for e in part.i_m}
    source |= {Symbol("zt", e) for e in part.i_minus}
    source |= {Symbol("s", j) for j in CHECK_TAGS}
    source = frozenset(source)

    rank = t.ranks().of_vertex
    proj_assign: dict[Symbol, Monomial] = {}
    for e in data.hat_edges:
        span = range(rank[t.tree.parent[e]] + 1, data.edge_rank[e] + 1)
        gaps = Monomial.product(Monomial.sym(teps_at[k]) for k in span)
        head = Monomial.sym(Symbol("zch", e)) if e in part.i_m else rho(e)
        proj_assign[zeta(e)] = head * gaps
    for e in part.i_minus:
        proj_assign[zeta(e)] = Monomial.sym(Symbol("zt", e))
    for j in CHECK_TAGS:
        proj_assign[sigma(j)] = Monomial.sym(Symbol("s", j))
    projection = MonomialMap(source_coords=source,
                             target_coords=frozenset(proj_assign),
                             assignment=proj_assign)

    def rho_anc(e: Edge, strict: bool) -> Monomial:
        return Monomial.product(rho(a) for a in t.tree.root_path(e)[strict:-1])

    cmp_assign: dict[Symbol, Monomial] = {}
    for k in top:
        cmp_assign[frame.eps_at[k]] = Monomial.sym(teps_at[k])
    for e in data.hat_edges - frame.special_edges():
        anchor = rho_anc(frame.special_at[data.edge_rank[e]], strict=False)
        if e in part.i_m:
            cmp_assign[frame.usym(e)] = (Monomial.sym(Symbol("zch", e))
                                         * rho_anc(e, strict=True) / anchor)
        else:
            cmp_assign[frame.usym(e)] = rho_anc(e, strict=False) / anchor
    for e in part.i_minus:
        cmp_assign[frame.zsym(e)] = Monomial.sym(Symbol("zt", e))
    for j in CHECK_TAGS:
        cmp_assign[frame.wsym(j)] = Monomial.sym(Symbol("s", j))
    comparison = MonomialMap(source_coords=source,
                             target_coords=frame.coords(),
                             assignment=cmp_assign)
    return projection, comparison, chart


def psi2_chart_check(t: WeightedLevelTree) -> bool:
    """The twisted chart absorbs the blowup chart: chart-to-base composed
    with the comparison map equals the projection, exactly."""
    projection, comparison, chart = blowup_side_maps(t)
    return compose(chart.theta, comparison).assignment == projection.assignment


def _stage_factor(t: WeightedLevelTree, step: int) -> Monomial:
    """The scaling monomial of a stage, the product of the gap symbols of
    the ranks above it: the last one asked for is kept in ``t``'s memo and
    extended, since the checks go through the stages in order."""
    at = _gap_symbols(t)[0]
    done, factor = t._memo.get("stage_factor", (1, ONE))
    if done > step:
        done, factor = 1, ONE
    factor = factor * Monomial.product(Monomial.sym(at[j]) for j in range(done, step))
    t._memo["stage_factor"] = step, factor
    return factor


def stage_ideals(t: WeightedLevelTree, step: int
                 ) -> tuple[frozenset[Monomial], frozenset[Monomial], Monomial]:
    """Generators of the stage-center ideal and of the cumulative-center
    ideal at the given stage, plus the principal scaling monomial.  Stage
    ``step`` is the level of rank ``step``, for ``step`` in ``1..|I_plus|``.

    The stage center is cut out by one coordinate per edge of the stage's
    cross-section: a repeated-center coordinate (``zch``) when the edge
    already sat in the previous stage's section, a fresh one otherwise.  The
    cumulative center adds the union with all earlier exceptional divisors,
    whose ideal is the principal product of their gap coordinates.
    """
    if step < 1:
        raise DomainError("step must be positive")
    if step > level_data(t).m_rank:
        raise DomainError(f"this chart sees no center at stage {step}")
    sections = level_data(t).sections  # entry 0, above level 0, is empty
    previous = frozenset(sections[step - 1])
    generators = frozenset(
        Monomial.sym(Symbol("zch" if e in previous else "zt", e))
        for e in sections[step])
    factor = _stage_factor(t, step)
    cumulative = frozenset(g * factor for g in generators)
    return generators, cumulative, factor


def ideal_transform_check(t: WeightedLevelTree, step: int) -> bool:
    """The cumulative-center ideal differs from the stage-center ideal by
    exactly one principal monomial: dividing its generators by the scaling
    monomial recovers the stage generators, and the scaling monomial involves
    only earlier gap coordinates."""
    if not 1 <= step <= level_data(t).m_rank:
        return True  # this chart sees no center at the given stage
    generators, cumulative, factor = stage_ideals(t, step)
    if frozenset(g / factor for g in cumulative) != generators:
        return False
    rank = _gap_symbols(t)[1]
    return all(rank.get(s, step) < step for s in factor.symbols())
