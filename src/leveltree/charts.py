"""Twisted coordinate charts over a weighted level tree.

A chart frame fixes, for each level of ``I_plus``, a special edge ending
there, plus a finite tag set for inert extra coordinates.  Its coordinates
are

* ``eps(i)`` for each level ``i`` of ``I_plus`` (one per level gap),
* ``u_e`` for each hat edge that is not special (``u`` of a special edge
  is the constant 1),
* ``z_e`` for each non-hat edge, and ``w_j`` for each tag.

The chart's products run along ascent sequences: from a level, jump to the
level of its special edge's parent, until level 0.  The frame keeps that
step as one jump table by rank, and every product along an ascent -- the
climbing chains of ``u``, and those the transitions build from another
chart's ``u`` or from readouts -- is one recurrence over it
(``ChartFrame.climb``), linear in the levels.

``build_theta`` expresses the base modular parameters ``zeta_e`` through
these coordinates; ``build_mu`` produces, for every index subset ``I``, the
normalized cross-section coefficients used by the stratum maps; and
``build_inverse`` solves the chart coordinates back out of the stratum data
by downward induction over the levels.  The ``verify_*`` functions check the
resulting identities exactly, as integer-exponent monomial equations.

``build_chart`` keeps one chart per (special edges by rank, tags) in the
tree's memo, so every check of a class, in the chart suite and in the blowup
suite, reads the one chart of ``t`` with the default special edges and the
tags ``CHECK_TAGS``.  The stratum transition's chart of a contracted tree,
whose special edges are its parent chart's, is built outside that memo: it
refers back to its tree, and goes with its last reference.

Each public function reads its index subset once, through the frame's
partition (``levels.IndexPartition.read``), and hands the ``IndexSubset`` on;
from there the chart goes by its masks and by level ranks, never by a level
label.  A chart keeps one ``mu`` table per level part of the subset (all
``build_mu`` reads), keyed by its rank mask; a table is keyed by
``(level, edge)`` for its callers and holds the same entries by rank
(``Readouts.rows``), which the checks and transitions read.  The frame keeps
the record of the last subset, keyed by its mask (``StratumTarget``): its
contraction, the contraction's special edges and ``I_m``, its stratum and its
stratum-map target, which the checks of that subset share.  The
contraction's levels are levels of ``t``, so its readouts and the union
subsets of the stratum transition are read off ``t``'s ranks
(``ContractionResult.rank_of``).

Every chart names its coordinates ``eps``, ``u``, ``z``, ``w`` and ``mu``: a
transition's map ``g`` rewrites all symbols at once, so two charts may share.
The symbols of the base (``zeta``, ``sigma``), of the readouts (``musym``)
and the frame's ``usym``, ``zsym`` and ``wsym`` are symbol families
(``monomial.SymbolFamily``): a symbol read before costs one dict lookup, and
it is the interned ``Symbol`` of its kind and key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence

from .contraction import ContractionResult, contract
from .errors import DomainError, MonomialError, VerificationError
from .levels import (IndexPartition, IndexSubset, Level, LevelData, SpecialMap,
                     WeightedLevelTree, default_special_by_rank,
                     index_partition, level_data, special_by_rank)
from .monomial import (EVERYWHERE, Monomial, MonomialMap, Stratum, Symbol,
                       SymbolFamily, compose, equal_on_stratum)
from .tree import Edge

ONE = Monomial.one()
ZERO = Monomial.zero()
# the extra tags of the checks' charts, so every identity also checks that
# extra parameters pass through
CHECK_TAGS = ("j1", "j2")


def eps(i: Level) -> Symbol:
    """The gap coordinate of level ``i``, on every chart and divisor."""
    return Symbol("eps", i)


@dataclass(frozen=True)
class ChartFrame:
    """A weighted level tree with chosen special edges and extra tags.

    ``special_at`` is the special map read by rank, ``(None, e_1, ..., e_m)``
    with ``e_k`` the special edge of the level of rank ``k`` (see
    ``levels.special_by_rank``); ``special`` is the same map by level, built
    on first read (the engine reads ``special_at``).

    The frame tabulates, per level rank ``k`` of ``I_plus`` (see
    ``WeightedLevelTree.ranks``; entry 0 stands for level 0): the ascent's
    step ``jump[k]``, the rank of the parent of ``special_at[k]`` (0 at rank
    0, and for a special edge hanging from the root); the climbing chain
    ``chains[k]``, the ``u`` of the parent edge of each special edge along
    the ascent from ``k`` (see ``climb``); and the gap coordinate
    ``eps_at[k]``.
    """

    t: WeightedLevelTree
    special_at: tuple
    extra_tags: tuple[Hashable, ...] = ()
    part: IndexPartition = field(init=False, compare=False, repr=False)
    data: LevelData = field(init=False, compare=False, repr=False)
    jump: tuple = field(init=False, compare=False, repr=False)
    chains: tuple = field(init=False, compare=False, repr=False)
    eps_at: tuple = field(init=False, compare=False, repr=False)
    _specials: frozenset = field(init=False, compare=False, repr=False)
    _coords: frozenset = field(init=False, compare=False, repr=False)
    # built on first use: the identity map, the record of the last index
    # subset asked for (see ``stratum_target``) and the gap products
    _memo: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        t = self.t
        if len(set(self.extra_tags)) != len(self.extra_tags):
            raise DomainError(f"repeated extra tag in {list(self.extra_tags)}")
        put = partial(object.__setattr__, self)
        put("_memo", {})
        put("part", index_partition(t))
        put("data", level_data(t))
        ranks = t.ranks()
        top = range(1, self.data.m_rank + 1)
        put("_specials", frozenset(self.special_at[1:]))
        put("jump", (0,) + tuple(ranks.of_vertex[t.tree.parent[self.special_at[k]]]
                                 for k in top))
        put("eps_at", (None,) + tuple(eps(ranks.levels[k]) for k in top))
        put("chains", tuple(self.climb(self.u_mon, parents=True)))
        coords = {self.eps_at[k] for k in top}
        coords |= {self.usym(e) for e in self.data.hat_edges - self._specials}
        coords |= {self.zsym(e) for e in self.part.i_minus}
        coords |= {self.wsym(j) for j in self.extra_tags}
        put("_coords", frozenset(coords))

    @cached_property
    def special(self) -> Mapping[Level, Edge]:
        levels = self.t.ranks().levels
        return {levels[k]: self.special_at[k] for k in range(1, self.data.m_rank + 1)}

    # symbol families ------------------------------------------------------

    # ``usym(e)``, ``zsym(e)`` and ``wsym(j)``, each one dict lookup
    usym = SymbolFamily("u").__getitem__
    zsym = SymbolFamily("z").__getitem__
    wsym = SymbolFamily("w").__getitem__

    def special_edges(self) -> frozenset[Edge]:
        return self._specials

    def u_mon(self, e: Edge) -> Monomial:
        """The ``u`` coordinate of a hat edge, with the special-edge convention."""
        if e not in self.data.hat_edges:
            raise DomainError(f"{e!r} carries no u coordinate (not a hat edge)")
        if e in self.special_edges():
            return ONE
        return Monomial.sym(self.usym(e))

    def coords(self) -> frozenset[Symbol]:
        return self._coords

    def identity(self) -> MonomialMap:
        """The identity map on the chart's coordinates."""
        memo = self._memo
        if "identity" not in memo:
            memo["identity"] = MonomialMap.identity(self.coords())
        return memo["identity"]

    # products along ascents ------------------------------------------------

    def climb(self, value: Callable[[Edge], Monomial], parents: bool = False
              ) -> list[Monomial]:
        """The product of ``value`` along the ascent from each rank, by one
        recurrence: entry ``k`` is ``value(special_at[k])`` times entry
        ``jump[k]``, and entry 0 is 1.  With ``parents``, ``value`` is read
        at the special edge's parent edge instead, and is 1 for a special
        edge hanging from the root."""
        parent, out = self.t.tree.parent, [ONE]
        for k in range(1, len(self.jump)):
            j = self.jump[k]
            if not parents:
                step = value(self.special_at[k])
            else:
                step = value(parent[self.special_at[k]]) if j else ONE
            out.append(step * out[j])
        return out

    def gaps(self, lo: int, hi: int) -> Monomial:
        """The product of the gap coordinates of the ranks in ``[lo, hi)``,
        kept in the frame's memo: a frame has at most O(m^2) ranges."""
        memo, key = self._memo, (lo, hi)
        if key not in memo:
            memo[key] = Monomial.product(Monomial.sym(self.eps_at[k]) for k in range(lo, hi))
        return memo[key]


# the base's modular parameters ``zeta(e)`` and extra parameters
# ``sigma(j)``, and the readout coordinates ``musym(e)``
zeta = SymbolFamily("zeta").__getitem__
sigma = SymbolFamily("sig").__getitem__
musym = SymbolFamily("mu").__getitem__


def build_theta(frame: ChartFrame) -> MonomialMap:
    """The chart-to-base map: each hat edge's modular parameter is the edge's
    chain ratio times the product of the level gaps it crosses; non-hat edges
    and extra parameters pass through."""
    t = frame.t
    rank, chains = t.ranks().of_vertex, frame.chains
    assignment: dict[Symbol, Monomial] = {}
    for e, k in frame.data.edge_rank.items():
        v_plus = t.tree.parent[e]
        top = rank[v_plus]
        gaps = frame.gaps(top + 1, k + 1)  # the span of e
        # the climbing chain of e's upper endpoint (1 at the root)
        dn = frame.u_mon(v_plus) * chains[top] if top else ONE
        assignment[zeta(e)] = frame.u_mon(e) * chains[k] / dn * gaps
    for e in frame.part.i_minus:
        assignment[zeta(e)] = Monomial.sym(frame.zsym(e))
    for j in frame.extra_tags:
        assignment[sigma(j)] = Monomial.sym(frame.wsym(j))
    return MonomialMap(source_coords=frame.coords(),
                       target_coords=frozenset(assignment),
                       assignment=assignment)


class Readouts(Mapping):
    """A readout table: ``(level, edge) -> coefficient``, as
    ``TwistedChart.mu`` returns it.  ``rows[k]`` holds the entries of the
    level of rank ``k`` by edge (empty for level 0 and for collapsed
    levels).  The engine reads the rows; the mapping by label is built on
    first read, so the engine never hashes a level."""

    __slots__ = ("rows", "_levels", "_by_label")

    def __init__(self, levels: Sequence[Level], rows: Sequence[Mapping[Edge, Monomial]]):
        self.rows = tuple(rows)
        self._levels = levels
        self._by_label = None

    def _table(self) -> dict:
        if self._by_label is None:
            self._by_label = {(self._levels[k], e): mon for k, row in enumerate(self.rows)
                              for e, mon in row.items()}
        return self._by_label

    def __getitem__(self, key):
        return self._table()[key]

    def __iter__(self):
        return iter(self._table())

    def __len__(self) -> int:
        return sum(map(len, self.rows))

    def __repr__(self) -> str:
        return f"Readouts({self._table()!r})"


@dataclass
class TwistedChart:
    frame: ChartFrame
    theta: MonomialMap
    # keyed by the rank mask of the subset's level part, all ``build_mu`` reads
    _mu_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def mu(self, subset: Iterable) -> Readouts:
        """The readout table of an index subset, built on first use."""
        subset = self.frame.part.read(subset)
        mask = subset.plus_mask
        if mask not in self._mu_cache:
            self._mu_cache[mask] = build_mu(self, subset)
        return self._mu_cache[mask]

    def theta_of(self, e: Edge) -> Monomial:
        """The edge's modular parameter pulled back to the chart."""
        return self.theta.assignment[zeta(e)]


def build_chart(t: WeightedLevelTree, special: SpecialMap | None = None,
                tags: Sequence[Hashable] = CHECK_TAGS) -> TwistedChart:
    """The chart of ``t`` with the given special edges (by default the
    smallest vertex at each level) and extra tags.  A special map is checked
    and read by rank.  The charts are kept in ``t``'s memo, keyed by the
    special edges by rank and the tags, so equal arguments on one tree
    object return one chart, and every check on the tree shares its ``mu``
    tables."""
    at = default_special_by_rank(t) if special is None else special_by_rank(t, special)
    key = at, tuple(tags)
    charts = t._memo.setdefault("charts", {})
    if key not in charts:
        charts[key] = _new_chart(t, *key)
    return charts[key]


def _new_chart(t: WeightedLevelTree, special_at: tuple, tags: tuple) -> TwistedChart:
    """A chart of ``t`` with the special edges by rank taken as they are."""
    frame = ChartFrame(t=t, special_at=special_at, extra_tags=tags)
    return TwistedChart(frame=frame, theta=build_theta(frame))


def drop_charts(t: WeightedLevelTree) -> None:
    """Forget the charts ``build_chart`` kept in ``t``'s memo, with their
    ``mu`` tables.  A kept chart refers back to its tree, so without this
    the tree is freed only by the cyclic garbage collector."""
    t._memo.pop("charts", None)


def _collapsed_product(frame: ChartFrame, plus_mask: int, above_of: Edge | None,
                       value: Callable[[Edge], Monomial]) -> Monomial:
    """Product of ``value`` over all fully collapsed edges strictly above the
    given edge (empty product for ``None``); the collapsed levels are given
    as a rank bitmask."""
    if above_of is None:
        return ONE
    span = frame.data.span
    return Monomial.product(value(a) for a in frame.t.tree.root_path(above_of)[1:-1]
                            if not span[a] & ~plus_mask)


def build_mu(chart: TwistedChart, subset: Iterable) -> Readouts:
    """For each surviving level ``i`` and each edge of its cross-section, the
    coefficient normalizing that edge against the special one: a chain ratio,
    a ratio of collapsed modular parameters, and the gap product up to ``i``."""
    frame = chart.frame
    mask = frame.part.read(subset).plus_mask
    rows: list[dict[Edge, Monomial]] = [{}]
    for k in range(1, frame.data.m_rank + 1):  # levels top down
        row: dict[Edge, Monomial] = {}
        rows.append(row)
        if mask >> k & 1:
            continue
        num_ratio = _collapsed_product(frame, mask, frame.special_at[k], chart.theta_of)
        for e in frame.data.sections[k]:
            le = frame.data.edge_rank[e]
            val = frame.u_mon(e) * frame.chains[le] / frame.chains[k]
            val = val * num_ratio / _collapsed_product(frame, mask, e, chart.theta_of)
            row[e] = val * frame.gaps(k + 1, le + 1)
    return Readouts(frame.t.ranks().levels, rows)


def check_mu_vanishing(chart: TwistedChart, subset: Iterable) -> bool:
    """On the stratum of ``I``, each coefficient must vanish exactly when the
    contraction drops the edge's lower endpoint below the level, and be a
    unit exactly when it lands on the level."""
    frame = chart.frame
    subset = frame.part.read(subset)
    target = stratum_target(frame, subset)
    strat, res = target.stratum, target.result
    for k, row in enumerate(chart.mu(subset).rows):
        for e, mon in row.items():
            if e in res.contracted:
                return False  # cross-section edges must survive contraction
            lands = res.rank_of(e)
            if lands == k:
                if not strat.is_unit(mon):
                    return False
            elif lands > k:
                if not strat.reduce(mon).is_zero:
                    return False
            else:
                return False  # a cross-section edge can never land above its level
    return True


# ---------------------------------------------------------------------------
# The stratum map and its inverse
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StratumTarget:
    """What the checks of one index subset share on a frame, each derived
    once: the contraction along it (``result``); its special edges
    (``special``), the frame's special edges of the surviving levels, each
    still at its level; its dropping edges (``i_m``); the chart stratum,
    where surviving labels pin their coordinates to zero and collapsed
    labels make them units (``u`` over hat-but-not-dropping edges is a unit
    everywhere); and the coordinates of the product chart the stratum maps
    onto -- the collapsed modular parameters (units there), the extra
    parameters, and one readout coordinate per non-special surviving
    cross-section edge (``free_mu``)."""

    result: ContractionResult
    special: frozenset[Edge]
    i_m: frozenset[Edge]
    stratum: Stratum
    free_mu: frozenset[Edge]
    coords: frozenset[Symbol]
    identity: MonomialMap


def stratum_target(frame: ChartFrame, subset: Iterable) -> StratumTarget:
    """The record of ``subset`` on ``frame``.  The frame keeps the last one
    (one entry, so memory stays bounded), so the forward map, the inverse,
    the round trip and the ``mu``-vanishing check of a subset share one
    record and one contraction; a build that raises is not kept, so the
    consistency check of ``_build_target`` runs again on the next call.  The
    record is keyed by the subset's mask."""
    subset = frame.part.read(subset)
    last = frame._memo.get("target")
    if last is None or last[0] != subset.mask:
        last = frame._memo["target"] = (subset.mask, _build_target(frame, subset))
    return last[1]


def _build_target(frame: ChartFrame, subset: IndexSubset) -> StratumTarget:
    part = frame.part
    plus_mask, i_m, i_minus = subset.plus_mask, subset.i_m, subset.i_minus
    top = range(1, frame.data.m_rank + 1)
    zeros = {frame.eps_at[k] for k in top if not plus_mask >> k & 1}
    zeros |= {frame.usym(e) for e in part.i_m - i_m}
    zeros |= {frame.zsym(e) for e in part.i_minus - i_minus}
    units = {frame.eps_at[k] for k in top if plus_mask >> k & 1}
    units |= {frame.usym(e) for e in i_m}
    units |= {frame.zsym(e) for e in i_minus}
    units |= {frame.usym(e)
              for e in frame.data.hat_edges - part.i_m - frame.special_edges()}

    res = contract(frame.t, subset)
    tpr = res.tree
    new_data = level_data(tpr)
    special = frozenset(frame.special_at[k] for k in res.used[1:new_data.m_rank + 1])
    free_mu = frozenset(e for e, j in tpr.ranks().of_vertex.items()
                        if 0 < j <= new_data.m_rank and e not in special)
    i_m = index_partition(tpr).i_m
    # the two descriptions of the readout coordinates must agree
    if free_mu != new_data.hat_edges - special - i_m:
        raise VerificationError("readout coordinates disagree with the contraction's "
                                "hat edges", witness=(frame.t, subset))
    coords = frozenset([*map(zeta, res.contracted), *map(sigma, frame.extra_tags),
                        *map(musym, free_mu)])
    stratum = Stratum(zeros=frozenset(zeros), units=frozenset(units))
    return StratumTarget(result=res, special=special, i_m=i_m, stratum=stratum,
                         free_mu=free_mu, coords=coords,
                         identity=MonomialMap.identity(coords))


def forward_map(chart: TwistedChart, subset: Iterable) -> MonomialMap:
    """The stratum map in coordinates: collapsed modular parameters through
    the chart-to-base map, extra parameters through, and the cross-section
    readout through the ``mu`` table."""
    frame = chart.frame
    subset = frame.part.read(subset)
    target = stratum_target(frame, subset)
    res = target.result
    rows = chart.mu(subset).rows
    assignment: dict[Symbol, Monomial] = {}
    for e in res.contracted:
        assignment[zeta(e)] = chart.theta.assignment[zeta(e)]
    for j in frame.extra_tags:
        assignment[sigma(j)] = Monomial.sym(frame.wsym(j))
    for e in target.free_mu:
        assignment[musym(e)] = rows[res.rank_of(e)][e]
    return MonomialMap(source_coords=frame.coords(),
                       target_coords=target.coords, assignment=assignment)


def build_inverse(chart: TwistedChart, subset: Iterable) -> MonomialMap:
    """Solve the chart coordinates out of the stratum data by downward
    induction over the levels.  Each hat edge ``e`` at rank ``k`` gives one
    relation: its readout at the lowest level ``lo`` it crosses that
    survives, or, when every level it crosses collapsed, its modular
    parameter, is ``u_e`` times the gaps of the ranks ``lo+1..k``.  A level's
    special edge (``u`` is 1) solves that level's gap coordinate, which is 0
    where the level survives; every other hat edge solves its ``u``."""
    frame = chart.frame
    t = frame.t
    subset = frame.part.read(subset)
    mask, i_m = subset.plus_mask, subset.i_m
    rank = t.ranks().of_vertex
    target = stratum_target(frame, subset)
    res = target.result

    def zeta_val(e: Edge) -> Monomial:
        return Monomial.sym(zeta(e)) if e in res.contracted else ZERO

    def mu_val(e: Edge) -> Monomial:
        if e in target.free_mu:
            return Monomial.sym(musym(e))
        if e in target.i_m:
            return ZERO
        if e in target.special:
            return ONE
        raise MonomialError(f"no readout coordinate for edge {e!r}")

    others: list[list[Edge]] = [[] for _ in range(frame.data.m_rank + 1)]
    for e in sorted(frame.data.hat_edges - frame.special_edges()):
        others[frame.data.edge_rank[e]].append(e)
    built: dict[Symbol, Monomial] = {}
    u = dict.fromkeys(frame.special_edges(), ONE)  # the built u by hat edge
    chain = [ONE]  # the built climbing products by rank
    for k in range(1, frame.data.m_rank + 1):  # levels top down
        se = frame.special_at[k]
        for e in (se, *others[k]):
            v_plus = t.tree.parent[e]
            dn = ONE if v_plus == t.root else u[v_plus] * chain[rank[v_plus]]
            if e == se:
                chain.append(dn)
                if not mask >> k & 1:
                    built[frame.eps_at[k]] = ZERO
                    continue
            open_e = frame.data.span[e] & ~mask
            if open_e:
                lo = open_e.bit_length() - 1
                val = mu_val(e) * chain[lo] / chain[k]
                val = val * (_collapsed_product(frame, mask, e, zeta_val)
                             / _collapsed_product(frame, mask, frame.special_at[lo], zeta_val))
            else:
                lo = rank[v_plus]
                val = zeta_val(e) * dn / chain[k]
            # the special edge's unknown is the gap at k itself
            hi = k if e == se else k + 1
            val = val / Monomial.product(built[frame.eps_at[h]] for h in range(lo + 1, hi))
            if e == se:
                built[frame.eps_at[k]] = val
            else:
                u[e] = built[frame.usym(e)] = val

    for e in frame.part.i_minus:
        built[frame.zsym(e)] = zeta_val(e)
    for j in frame.extra_tags:
        built[frame.wsym(j)] = Monomial.sym(sigma(j))

    # the vanishing pattern promised by the induction
    for k in range(1, frame.data.m_rank + 1):
        if built[frame.eps_at[k]].is_zero != (not mask >> k & 1):
            raise VerificationError("a gap coordinate of the inverse vanishes off "
                                    "the collapsed levels",
                                    witness=(frame.t, subset, frame.eps_at[k]))
    for e in frame.data.hat_edges - frame.special_edges():
        if built[frame.usym(e)].is_zero != (e in frame.part.i_m - i_m):
            raise VerificationError("a u coordinate of the inverse vanishes off "
                                    "the surviving dropping edges",
                                    witness=(frame.t, subset, frame.usym(e)))

    return MonomialMap(source_coords=target.coords,
                       target_coords=frame.coords(), assignment=built)


def verify_round_trip(chart: TwistedChart, subset: Iterable) -> bool:
    """Both compositions of the stratum map with its inverse are identities:
    exactly on the target chart, and modulo the stratum's zeros on the source."""
    frame = chart.frame
    subset = frame.part.read(subset)
    fwd = forward_map(chart, subset)
    inv = build_inverse(chart, subset)
    target = stratum_target(frame, subset)
    back = compose(inv, fwd)  # chart -> target -> chart
    if not equal_on_stratum(back, frame.identity(), target.stratum):
        return False
    out = compose(fwd, inv)  # target -> chart -> target
    return equal_on_stratum(out, target.identity, EVERYWHERE)


# ---------------------------------------------------------------------------
# Transition identities
# ---------------------------------------------------------------------------

def _pulls_back(other: TwistedChart, g: MonomialMap, theta: Mapping[Symbol, Monomial],
                expected_mu: Callable[[IndexSubset], list]) -> bool:
    """``g`` carries the chart ``other`` onto the expected one: ``other``'s
    base map after ``g`` is ``theta``, and for every level part of its index
    set (all that a readout table reads of a subset) its whole readout table,
    pulled back through ``g``, is ``expected_mu`` of that part: its rows by
    ``other``'s ranks (``Readouts.rows``), keys included."""
    if compose(other.theta, g).assignment != theta:
        return False
    for levels in other.frame.part.level_parts():
        pulled = [{e: mon.substitute(g.assignment) for e, mon in row.items()}
                  for row in other.mu(levels).rows]
        if pulled != expected_mu(levels):
            return False
    return True


def verify_special_vertex_transition(t: WeightedLevelTree, special_a: SpecialMap,
                                     special_b: SpecialMap) -> bool:
    """Two choices of special edges give charts differing by an explicit
    monomial change of coordinates ``g``: the base maps agree through ``g``,
    and each readout family is the old one renormalized by its value on the
    new special edge."""
    chart = build_chart(t, special_a)
    other = build_chart(t, special_b)
    fa, fb = chart.frame, other.frame
    # a's u along b's ascents: at b's special edges and at their parent edges
    lift, drop = fb.climb(fa.u_mon), fb.climb(fa.u_mon, parents=True)
    assignment = {s: Monomial.sym(s) for s in fb.coords() if s.kind in ("z", "w")}
    for k in range(1, fa.data.m_rank + 1):
        up = k - 1  # the rank of the level's successor
        val = Monomial.sym(fa.eps_at[k]) * fa.chains[k] / fa.chains[up]
        val = val * lift[k] / lift[up] * drop[up] / drop[k]
        assignment[fb.eps_at[k]] = val
    for e, k in fa.data.edge_rank.items():
        if e not in fb.special_edges():
            assignment[fb.usym(e)] = fa.u_mon(e) / fa.u_mon(fb.special_at[k])
    g = MonomialMap(source_coords=fa.coords(), target_coords=fb.coords(),
                    assignment=assignment)

    def renormalized(levels: IndexSubset) -> list:
        out = []
        for k, row in enumerate(chart.mu(levels).rows):
            unit = row[fb.special_at[k]] if row else ONE
            out.append({e: mon / unit for e, mon in row.items()})
        return out

    return _pulls_back(other, g, chart.theta.assignment, renormalized)


def verify_parameter_transition(t: WeightedLevelTree) -> bool:
    """Rescaling every modular parameter by a unit ``f_e`` changes the chart
    by an explicit monomial map ``g``: the base maps agree up to the same
    units, and the readout families agree after normalizing each side by its
    own ``f`` content."""
    chart = build_chart(t)
    frame = chart.frame

    def f(e: Edge) -> Monomial:
        return Monomial.sym(Symbol("f", e))

    def f_open(e: Edge, mask: int = 0) -> Monomial:
        """The ``f`` of ``e`` and its ancestors that cross a level outside ``mask``."""
        return Monomial.product(f(a) for a in t.tree.root_path(e)[:-1]
                                if frame.data.span[a] & ~mask)

    fchain = frame.climb(f)
    assignment = {s: Monomial.sym(s) for s in frame.coords() if s.kind in ("z", "w")}
    for k in range(1, frame.data.m_rank + 1):
        assignment[frame.eps_at[k]] = Monomial.sym(frame.eps_at[k]) * fchain[k] / fchain[k - 1]
    for e, k in frame.data.edge_rank.items():
        if e not in frame.special_edges():
            assignment[frame.usym(e)] = frame.u_mon(e) * f_open(e) / f_open(frame.special_at[k])
    f_syms = frozenset(Symbol("f", e) for e in t.tree.edges)
    g = MonomialMap(source_coords=frame.coords() | f_syms,
                    target_coords=frame.coords(), assignment=assignment)

    theta = dict(chart.theta.assignment)
    for e in frame.data.hat_edges:
        theta[zeta(e)] = theta[zeta(e)] * f(e)

    def rescaled(levels: IndexSubset) -> list:
        mask = levels.plus_mask
        return [{e: mon * f_open(e, mask) / f_open(frame.special_at[k], mask)
                 for e, mon in row.items()}
                for k, row in enumerate(chart.mu(levels).rows)]

    return _pulls_back(chart, g, theta, rescaled)


def _recentering(t: WeightedLevelTree, subset: Iterable
                 ) -> tuple[TwistedChart, ContractionResult, TwistedChart, MonomialMap]:
    """The chart of ``t``, the contraction along ``subset``, the chart of the
    contracted tree and the explicit recentering map ``g`` between them."""
    chart = build_chart(t)
    frame = chart.frame
    subset = frame.part.read(subset)
    mask = subset.plus_mask
    res = contract(t, subset)
    tpr = res.tree
    new_part = index_partition(tpr)
    # the contraction keeps the surviving levels of t: its rank j is rank
    # tops[j] of t
    tops = [k for k in range(frame.data.m_rank + 1) if not mask >> k & 1]
    levels = t.ranks().levels
    if res.used[:level_data(tpr).m_rank + 1] != tuple(tops):
        raise VerificationError("the contraction's levels in [m, 0) are not the "
                                "surviving ones", witness=(subset, level_data(tpr).m))
    new_tags = CHECK_TAGS + tuple(("ctr", e) for e in sorted(res.contracted))
    prime = _new_chart(tpr, tuple(frame.special_at[k] for k in tops), new_tags)
    fp = prime.frame
    rows = chart.mu(subset).rows
    theta = chart.theta.assignment

    for j in range(1, len(tops)):  # the cross-sections must be preserved
        if frame.data.sections[tops[j]] != fp.data.sections[j]:
            raise VerificationError("cross-section changed under contraction",
                                    witness=(subset, levels[tops[j]]))

    # the readouts of the parent edges along the contraction's ascents
    mu_chain = fp.climb(lambda p: rows[res.rank_of(p)][p], parents=True)
    assignment: dict[Symbol, Monomial] = {}
    for j in range(1, len(tops)):
        kup, k = tops[j - 1], tops[j]
        val = Monomial.sym(frame.eps_at[k]) * frame.gaps(kup + 1, k)
        val = val * (_collapsed_product(frame, mask, frame.special_at[kup], chart.theta_of)
                     / _collapsed_product(frame, mask, frame.special_at[k], chart.theta_of))
        val = val * frame.chains[k] / frame.chains[kup]
        val = val * mu_chain[j - 1] / mu_chain[j]
        assignment[fp.eps_at[j]] = val
    for e in fp.data.hat_edges - fp.special_edges():
        assignment[fp.usym(e)] = rows[tops[fp.data.edge_rank[e]]][e]
    for e in new_part.i_minus:
        if e in frame.part.i_minus:
            assignment[fp.zsym(e)] = Monomial.sym(frame.zsym(e))
        else:
            # a dropout edge: its modular parameter is already the readout
            assignment[fp.zsym(e)] = theta[zeta(e)]
    for j in CHECK_TAGS:
        assignment[fp.wsym(j)] = Monomial.sym(frame.wsym(j))
    for e in res.contracted:
        assignment[fp.wsym(("ctr", e))] = theta[zeta(e)]
    g = MonomialMap(source_coords=frame.coords(), target_coords=fp.coords(),
                    assignment=assignment)
    return chart, res, prime, g


def verify_stratum_transition(t: WeightedLevelTree, subset: Iterable) -> bool:
    """Recentering a chart on a stratum agrees with the chart of the
    contracted tree: the base maps match through the explicit ``g``, and the
    recentered readout families are the original ones at the union subset."""
    subset = index_partition(t).read(subset)
    chart, res, prime, g = _recentering(t, subset)
    theta = chart.theta.assignment
    expected = {zeta(e): theta[zeta(e)] for e in res.tree.edges()}
    expected.update((sigma(j), theta[sigma(j)]) for j in CHECK_TAGS)
    expected.update((sigma(("ctr", e)), theta[zeta(e)]) for e in res.contracted)
    # the ranks of t that the contraction keeps at or above its m
    tops = res.used[:prime.frame.data.m_rank + 1]

    def recentered(levels: IndexSubset) -> list:
        rows = chart.mu(subset.joined(levels, res.used)).rows
        return [rows[k] for k in tops]

    return _pulls_back(prime, g, expected, recentered)


def remark_identities(chart: TwistedChart) -> bool:
    """The pullback of the full ancestor product of a bottom cross-section
    edge is its ``u`` times the pullback for the bottom special edge, which
    in turn is the bottom climbing chain times all gap coordinates."""
    frame = chart.frame
    t = frame.t
    if not frame.part.i_plus:
        raise DomainError("identities need a nonempty level index")
    m_rank = frame.data.m_rank
    base = frame.chains[m_rank] * frame.gaps(1, m_rank + 1)

    def anc_product(e: Edge) -> Monomial:
        return Monomial.product(chart.theta.assignment[zeta(a)]
                                for a in t.tree.root_path(e)[:-1])

    if anc_product(frame.special_at[m_rank]) != base:
        return False
    for e in frame.data.sections[m_rank]:
        if anc_product(e) != frame.u_mon(e) * base:
            return False
    return True
