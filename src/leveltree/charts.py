"""Twisted coordinate charts over a weighted level tree.

A chart frame fixes, for each level of ``I_plus``, a special edge ending
there, plus a finite tag set for inert extra coordinates.  Its coordinates
are

* ``eps(i)`` for each level ``i`` of ``I_plus`` (one per level gap),
* ``u_e`` for each hat edge that is not special (``u`` of a special edge
  is the constant 1),
* ``z_e`` for each non-hat edge, and ``w_j`` for each tag.

``build_theta`` expresses the base modular parameters ``zeta_e`` through
these coordinates; ``build_mu`` produces, for every index subset ``I``, the
normalized cross-section coefficients used by the stratum maps; and
``build_inverse`` solves the chart coordinates back out of the stratum data
by downward induction over the levels.  The ``verify_*`` functions check the
resulting identities exactly, as integer-exponent monomial equations.

``build_chart`` is the only way to a chart.  It keeps one chart per
(special edges by rank, tags) in the tree's memo, so every check of a class,
in the chart suite and in the blowup suite, reads the one chart of ``t`` with
the default special edges and the tags ``CHECK_TAGS``.

Each public function reads its index subset once, through the frame's
partition (``levels.IndexPartition.read``), and hands the ``IndexSubset`` on;
from there the chart goes by its masks and by level ranks, never by a level
label.  A chart keeps one ``mu`` table per level part of the subset (all
``build_mu`` reads), keyed by its rank mask; a table is keyed by
``(level, edge)`` for its callers and holds the same entries by rank
(``Readouts.rows``), which the checks and transitions read.  The frame keeps
the record of the last subset, keyed by its mask -- its contraction, its
stratum and its stratum-map target -- which the checks of that subset
share.  The contraction's levels are levels of ``t`` (its rank ``j`` is
rank ``ContractionResult.used[j]`` of ``t``), so its special edges, its
readouts and the union subsets of the stratum transition are read off
``t``'s ranks.

Every chart names its coordinates ``eps``, ``u``, ``z``, ``w`` and ``mu``: a
transition's map ``g`` rewrites all symbols at once, so two charts may share.
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
                       compose, equal_on_stratum)
from .tree import Edge

ONE = Monomial.one()
ZERO = Monomial.zero()
# the extra tags of the checks' charts, so every identity also checks that
# extra parameters pass through
CHECK_TAGS = ("j1", "j2")


@dataclass(frozen=True)
class ChartFrame:
    """A weighted level tree with chosen special edges and extra tags.

    ``special_at`` is the special map read by rank, ``(None, e_1, ..., e_m)``
    with ``e_k`` the special edge of the level of rank ``k`` (see
    ``levels.special_by_rank``); ``special`` is the same map by level, built
    on first read (the engine reads ``special_at``).

    The frame tabulates, per level rank ``k`` of ``I_plus`` (see
    ``WeightedLevelTree.ranks``; entry 0 stands for level 0): the special
    edges met by the ascent from ``k`` (``ascent[k]``), the edges of its
    climbing product (``chain_edges[k]``) and that product
    (``up_chain(k)``), and the gap coordinate ``eps_at[k]``.
    """

    t: WeightedLevelTree
    special_at: tuple
    extra_tags: tuple[Hashable, ...] = ()
    part: IndexPartition = field(init=False, compare=False, repr=False)
    data: LevelData = field(init=False, compare=False, repr=False)
    ascent: tuple = field(init=False, compare=False, repr=False)
    chain_edges: tuple = field(init=False, compare=False, repr=False)
    eps_at: tuple = field(init=False, compare=False, repr=False)
    _specials: frozenset = field(init=False, compare=False, repr=False)
    _chains: tuple = field(init=False, compare=False, repr=False)
    _coords: frozenset = field(init=False, compare=False, repr=False)
    # built on first use: the identity map, and the record of the last index
    # subset asked for (see ``stratum_target``)
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
        ascent: list[tuple[Edge, ...]] = [()]
        for k in top:
            se = self.special_at[k]
            ascent.append((se,) + ascent[ranks.of_vertex[t.tree.parent[se]]])
        put("ascent", tuple(ascent))
        # the last special edge of an ascent hangs from the root
        put("chain_edges", tuple(tuple(t.tree.parent[e] for e in a[:-1]) for a in ascent))
        put("eps_at", (None,) + tuple(self.eps(ranks.levels[k]) for k in top))
        put("_chains", tuple(Monomial.product(self.u_mon(e) for e in edges)
                             for edges in self.chain_edges))
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

    def eps(self, i: Level) -> Symbol:
        return Symbol("eps", i)

    def usym(self, e: Edge) -> Symbol:
        return Symbol("u", e)

    def zsym(self, e: Edge) -> Symbol:
        return Symbol("z", e)

    def wsym(self, j: Hashable) -> Symbol:
        return Symbol("w", j)

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

    # chains ----------------------------------------------------------------

    def up_chain(self, k: int) -> Monomial:
        """The climbing product at level rank ``k``: the ``u`` of the parent
        edge of each special vertex's parent along the ascent (1 at rank 0)."""
        return self._chains[k]

    def dn_chain(self, e: Edge) -> Monomial:
        """Denominator chain of a hat edge: the parent edge of ``v_e^+``
        (absent at the root) times the climbing product at its level."""
        t = self.t
        v_plus = t.tree.parent[e]
        if v_plus == t.root:
            return ONE
        return self.u_mon(v_plus) * self.up_chain(t.ranks().of_vertex[v_plus])

    def gaps(self, lo: int, hi: int) -> Monomial:
        """The product of the gap coordinates of the ranks in ``[lo, hi)``."""
        return Monomial.product(Monomial.sym(self.eps_at[k]) for k in range(lo, hi))


def zeta(e: Edge) -> Symbol:
    return Symbol("zeta", e)


def sigma(j: Hashable) -> Symbol:
    return Symbol("sig", j)


def musym(e: Edge) -> Symbol:
    return Symbol("mu", e)


def build_theta(frame: ChartFrame) -> MonomialMap:
    """The chart-to-base map: each hat edge's modular parameter is the edge's
    chain ratio times the product of the level gaps it crosses; non-hat edges
    and extra parameters pass through."""
    t = frame.t
    rank = t.ranks().of_vertex
    assignment: dict[Symbol, Monomial] = {}
    for e, k in frame.data.edge_rank.items():
        gaps = frame.gaps(rank[t.tree.parent[e]] + 1, k + 1)  # the span of e
        num = frame.u_mon(e) * frame.up_chain(k)
        assignment[zeta(e)] = num / frame.dn_chain(e) * gaps
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
                tags: Sequence[Hashable] = CHECK_TAGS, *,
                special_at: tuple | None = None) -> TwistedChart:
    """The chart of ``t`` with the given special edges (by default the
    smallest vertex at each level) and extra tags.  A special map is checked
    and read by rank; ``special_at`` gives the special edges by rank
    instead, as ``ChartFrame.special_at`` holds them, taken as they are: the
    engine hands a contraction the special edges of its parent's chart so.
    The charts are kept in ``t``'s memo, keyed by the special edges by rank
    and the tags, so equal arguments on one tree object return one chart,
    and every check on the tree shares its ``mu`` tables."""
    at = special_at
    if at is None:
        at = default_special_by_rank(t) if special is None else special_by_rank(t, special)
    key = at, tuple(tags)
    charts = t._memo.setdefault("charts", {})
    if key not in charts:
        frame = ChartFrame(t=t, special_at=at, extra_tags=key[1])
        charts[key] = TwistedChart(frame=frame, theta=build_theta(frame))
    return charts[key]


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
    out = ONE
    for anc in frame.t.tree.ancestors_gt(above_of):
        if not span[anc] & ~plus_mask:
            out = out * value(anc)
    return out


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
            val = frame.u_mon(e) * frame.up_chain(le) / frame.up_chain(k)
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
    # the contraction keeps levels of t: its rank j is rank used[j] of t
    new_rank = res.tree.ranks().of_vertex
    for k, row in enumerate(chart.mu(subset).rows):
        for e, mon in row.items():
            if e in res.contracted:
                return False  # cross-section edges must survive contraction
            lands = res.used[new_rank[e]]
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
    """What the checks of one index subset share on a frame: the contraction
    along it; the chart stratum, where surviving labels pin their
    coordinates to zero and collapsed labels make them units (``u`` over
    hat-but-not-dropping edges is a unit everywhere); and the coordinates of
    the product chart the stratum maps onto -- the collapsed modular
    parameters (units there), the extra parameters, and one readout
    coordinate per non-special surviving cross-section edge."""

    result: ContractionResult
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


def _special_new(frame: ChartFrame, res: ContractionResult) -> tuple:
    """The frame's special edges by rank of the contraction: the special edge
    of a surviving level survives, at that level."""
    return tuple(frame.special_at[k] for k in res.used[:level_data(res.tree).m_rank + 1])


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
    new_part = index_partition(tpr)
    special_new = _special_new(frame, res)
    free_mu = set()
    for e, j in tpr.ranks().of_vertex.items():
        if 0 < j < len(special_new) and e != special_new[j]:
            free_mu.add(e)
    # the two descriptions of the readout coordinates must agree
    hat_new = level_data(tpr).hat_edges
    if frozenset(free_mu) != hat_new - set(special_new[1:]) - new_part.i_m:
        raise VerificationError("readout coordinates disagree with the contraction's "
                                "hat edges", witness=(frame.t, subset))
    coords = frozenset([*map(zeta, res.contracted), *map(sigma, frame.extra_tags),
                        *map(musym, free_mu)])
    stratum = Stratum(zeros=frozenset(zeros), units=frozenset(units))
    return StratumTarget(result=res, stratum=stratum, free_mu=frozenset(free_mu),
                         coords=coords, identity=MonomialMap.identity(coords))


def forward_map(chart: TwistedChart, subset: Iterable) -> MonomialMap:
    """The stratum map in coordinates: collapsed modular parameters through
    the chart-to-base map, extra parameters through, and the cross-section
    readout through the ``mu`` table."""
    frame = chart.frame
    subset = frame.part.read(subset)
    target = stratum_target(frame, subset)
    res = target.result
    new_rank = res.tree.ranks().of_vertex
    rows = chart.mu(subset).rows
    assignment: dict[Symbol, Monomial] = {}
    for e in res.contracted:
        assignment[zeta(e)] = chart.theta.assignment[zeta(e)]
    for j in frame.extra_tags:
        assignment[sigma(j)] = Monomial.sym(frame.wsym(j))
    for e in target.free_mu:
        assignment[musym(e)] = rows[res.used[new_rank[e]]][e]
    return MonomialMap(source_coords=frame.coords(),
                       target_coords=target.coords, assignment=assignment)


def build_inverse(chart: TwistedChart, subset: Iterable) -> MonomialMap:
    """Solve the chart coordinates out of the stratum data by downward
    induction over the levels: closed gaps stay 0; open gaps are read off a
    collapsed special parameter or a readout coordinate; ``u`` coordinates
    divide out the chains and gap products accumulated so far."""
    frame = chart.frame
    t = frame.t
    subset = frame.part.read(subset)
    mask, i_m = subset.plus_mask, subset.i_m
    rank = t.ranks().of_vertex
    target = stratum_target(frame, subset)
    res = target.result
    new_i_m = index_partition(res.tree).i_m
    new_rank = res.tree.ranks().of_vertex
    special_new = _special_new(frame, res)

    def zeta_val(e: Edge) -> Monomial:
        return Monomial.sym(zeta(e)) if e in res.contracted else ZERO

    def mu_val(e: Edge) -> Monomial:
        if e in target.free_mu:
            return Monomial.sym(musym(e))
        if e in new_i_m:
            return ZERO
        j = new_rank[e]
        if 0 < j < len(special_new) and e == special_new[j]:
            return ONE
        raise MonomialError(f"no readout coordinate for edge {e!r}")

    built: dict[Symbol, Monomial] = {}

    def u_val(e: Edge) -> Monomial:
        if e in frame.special_edges():
            return ONE
        return built[frame.usym(e)]

    def chain_val(k: int) -> Monomial:
        return Monomial.product(u_val(e) for e in frame.chain_edges[k])

    def eps_prod(lo: int, hi: int) -> Monomial:
        """The built gap coordinates of the ranks in ``[lo, hi)``."""
        return Monomial.product(built[frame.eps_at[h]] for h in range(lo, hi))

    for k in range(1, frame.data.m_rank + 1):  # levels top down
        se = frame.special_at[k]
        k1 = rank[t.tree.parent[se]]
        open_gaps = ((2 << k) - (2 << k1)) & ~mask  # ranks k1+1..k left standing
        if not mask >> k & 1:
            built[frame.eps_at[k]] = ZERO
        elif not open_gaps:
            # the special edge collapsed: read its parameter, strip the gaps above
            built[frame.eps_at[k]] = zeta_val(se) / eps_prod(k1 + 1, k)
        else:
            khat = open_gaps.bit_length() - 1  # the lowest level left standing
            val = mu_val(se) * chain_val(khat) / chain_val(k)
            val = val * (_collapsed_product(frame, mask, se, zeta_val)
                         / _collapsed_product(frame, mask, frame.special_at[khat], zeta_val))
            built[frame.eps_at[k]] = val / eps_prod(khat + 1, k)
        for e in sorted(frame.data.hat_edges):
            if frame.data.edge_rank[e] != k or e == se:
                continue
            top = rank[t.tree.parent[e]]
            open_e = frame.data.span[e] & ~mask
            if open_e:
                kappa = open_e.bit_length() - 1
                val = mu_val(e) * chain_val(kappa) / chain_val(k)
                val = val * (_collapsed_product(frame, mask, e, zeta_val)
                             / _collapsed_product(frame, mask, frame.special_at[kappa], zeta_val))
                val = val / eps_prod(kappa + 1, k + 1)
            else:
                v_plus = t.tree.parent[e]
                den = ONE if v_plus == t.root else u_val(v_plus) * chain_val(top)
                val = zeta_val(e) * den / chain_val(k)
                val = val / eps_prod(top + 1, k + 1)
            built[frame.usym(e)] = val

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

    def chain(edges: Iterable[Edge]) -> Monomial:
        return Monomial.product(fa.u_mon(e) for e in edges)

    assignment = {s: Monomial.sym(s) for s in fb.coords() if s.kind in ("z", "w")}
    for k in range(1, fa.data.m_rank + 1):
        up = k - 1  # the rank of the level's successor
        val = Monomial.sym(fa.eps_at[k])
        val = val * fa.up_chain(k) / fa.up_chain(up)
        val = val * chain(fb.ascent[k]) / chain(fb.ascent[up])
        val = val * chain(fb.chain_edges[up]) / chain(fb.chain_edges[k])
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
        return Monomial.product(f(a) for a in t.tree.descendants_geq(e)
                                if frame.data.span[a] & ~mask)

    def fchain(k: int) -> Monomial:
        return Monomial.product(f(e) for e in frame.ascent[k])

    assignment = {s: Monomial.sym(s) for s in frame.coords() if s.kind in ("z", "w")}
    for k in range(1, frame.data.m_rank + 1):
        assignment[frame.eps_at[k]] = Monomial.sym(frame.eps_at[k]) * fchain(k) / fchain(k - 1)
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
    prime = build_chart(tpr, tags=new_tags, special_at=_special_new(frame, res))
    # the chart refers back to tpr, which t's contract memo keeps, so it
    # leaves tpr's memo here and goes with the last reference to it
    drop_charts(tpr)
    fp = prime.frame
    rows = chart.mu(subset).rows
    theta = chart.theta.assignment

    for j in range(1, len(tops)):  # the cross-sections must be preserved
        if frame.data.sections[tops[j]] != fp.data.sections[j]:
            raise VerificationError("cross-section changed under contraction",
                                    witness=(subset, levels[tops[j]]))

    new_rank = tpr.ranks().of_vertex

    def mu_chain(j: int) -> Monomial:
        return Monomial.product(rows[tops[new_rank[p]]][p] for p in fp.chain_edges[j])

    assignment: dict[Symbol, Monomial] = {}
    for j in range(1, len(tops)):
        kup, k = tops[j - 1], tops[j]
        val = Monomial.sym(frame.eps_at[k]) * frame.gaps(kup + 1, k)
        val = val * (_collapsed_product(frame, mask, frame.special_at[kup], chart.theta_of)
                     / _collapsed_product(frame, mask, frame.special_at[k], chart.theta_of))
        val = val * frame.up_chain(k) / frame.up_chain(kup)
        val = val * mu_chain(j - 1) / mu_chain(j)
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
    base = frame.up_chain(m_rank) * frame.gaps(1, m_rank + 1)

    def anc_product(e: Edge) -> Monomial:
        return Monomial.product(chart.theta.assignment[zeta(a)]
                                for a in t.tree.descendants_geq(e))

    if anc_product(frame.special_at[m_rank]) != base:
        return False
    for e in frame.data.sections[m_rank]:
        if anc_product(e) != frame.u_mon(e) * base:
            return False
    return True
