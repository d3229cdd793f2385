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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .contraction import ContractionResult, contract
from .errors import DomainError, MonomialError, VerificationError
from .levels import (IndexPartition, Level, LevelData, SpecialMap,
                     WeightedLevelTree, cross_section, default_special,
                     index_partition, level_data, level_mask,
                     level_successor, validate_special)
from .monomial import (EVERYWHERE, Monomial, MonomialMap, Stratum, Symbol,
                       compose, equal_on_stratum)
from .tree import Edge

ONE = Monomial.one()
ZERO = Monomial.zero()


def _prod(factors: Iterable[Monomial]) -> Monomial:
    return Monomial.product(factors)


@dataclass(frozen=True)
class ChartFrame:
    """A weighted level tree with chosen special edges and extra tags.

    ``flavor`` prefixes every coordinate symbol, so distinct charts over the
    same tree can coexist inside one identity.

    The frame tabulates, per level rank ``k`` of ``I_plus`` (see
    ``WeightedLevelTree.ranks``; entry 0 stands for level 0): the special
    edge ``special_at[k]``, the special edges met by the ascent from ``k``
    (``ascent[k]``), the edges of its climbing product (``chain_edges[k]``)
    and that product (``up_chain(k)``), and the gap coordinate
    ``eps_at[k]``.
    """

    t: WeightedLevelTree
    special: Mapping[Level, Edge]
    extra_tags: tuple[Hashable, ...] = ()
    flavor: str = ""
    part: IndexPartition = field(init=False, compare=False, repr=False)
    data: LevelData = field(init=False, compare=False, repr=False)
    special_at: tuple = field(init=False, compare=False, repr=False)
    ascent: tuple = field(init=False, compare=False, repr=False)
    chain_edges: tuple = field(init=False, compare=False, repr=False)
    eps_at: tuple = field(init=False, compare=False, repr=False)
    _specials: frozenset = field(init=False, compare=False, repr=False)
    _chains: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        t = self.t
        validate_special(t, self.special)
        put = partial(object.__setattr__, self)
        put("special", dict(self.special))
        put("part", index_partition(t))
        put("data", level_data(t))
        put("_specials", frozenset(self.special.values()))
        ranks = t.ranks()
        top = range(1, self.data.m_rank + 1)
        put("special_at", (None,) + tuple(self.special[ranks.levels[k]] for k in top))
        ascent: list[tuple[Edge, ...]] = [()]
        for k in top:
            se = self.special_at[k]
            ascent.append((se,) + ascent[ranks.of_vertex[t.tree.parent[se]]])
        put("ascent", tuple(ascent))
        # the last special edge of an ascent hangs from the root
        put("chain_edges", tuple(tuple(t.tree.parent[e] for e in a[:-1]) for a in ascent))
        put("eps_at", (None,) + tuple(self.eps(ranks.levels[k]) for k in top))
        put("_chains", tuple(_prod(self.u_mon(e) for e in edges)
                             for edges in self.chain_edges))

    def _kind(self, bare: str) -> str:
        return self.flavor + bare

    # symbol families ------------------------------------------------------

    def eps(self, i: Level) -> Symbol:
        return Symbol(self._kind("eps"), i)

    def usym(self, e: Edge) -> Symbol:
        return Symbol(self._kind("u"), e)

    def zsym(self, e: Edge) -> Symbol:
        return Symbol(self._kind("z"), e)

    def wsym(self, j: Hashable) -> Symbol:
        return Symbol(self._kind("w"), j)

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
        out = {self.eps(i) for i in self.part.i_plus}
        out |= {self.usym(e) for e in self.data.hat_edges - self.special_edges()}
        out |= {self.zsym(e) for e in self.part.i_minus}
        out |= {self.wsym(j) for j in self.extra_tags}
        return frozenset(out)

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
        return _prod(Monomial.sym(self.eps_at[k]) for k in range(lo, hi))


# zeta/sigma name the base modular and extra parameters; they are shared by
# every chart lying over the same base, so they carry no flavor.
def zeta(e: Edge) -> Symbol:
    return Symbol("zeta", e)


def sigma(j: Hashable) -> Symbol:
    return Symbol("sig", j)


def musym(frame: ChartFrame, e: Edge) -> Symbol:
    return Symbol(frame._kind("mu"), e)


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


@dataclass
class TwistedChart:
    frame: ChartFrame
    theta: MonomialMap
    _mu_cache: dict = field(default_factory=dict, repr=False)

    def mu(self, subset: Iterable) -> Mapping[tuple[Level, Edge], Monomial]:
        key = frozenset(subset)
        if key not in self._mu_cache:
            self._mu_cache[key] = build_mu(self, key)
        return self._mu_cache[key]

    def theta_of(self, e: Edge) -> Monomial:
        """The edge's modular parameter pulled back to the chart."""
        return self.theta.assignment[zeta(e)]


def build_chart(t: WeightedLevelTree, special: SpecialMap | None = None,
                tags: Sequence[Hashable] = ("j1", "j2"), flavor: str = "") -> TwistedChart:
    frame = ChartFrame(t=t, special=special if special is not None else default_special(t),
                       extra_tags=tuple(tags), flavor=flavor)
    return TwistedChart(frame=frame, theta=build_theta(frame))


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


def build_mu(chart: TwistedChart, subset: Iterable) -> dict[tuple[Level, Edge], Monomial]:
    """For each surviving level ``i`` and each edge of its cross-section, the
    coefficient normalizing that edge against the special one: a chain ratio,
    a ratio of collapsed modular parameters, and the gap product up to ``i``."""
    frame = chart.frame
    t = frame.t
    i_plus, _, _ = frame.part.split(subset)
    mask = level_mask(t, i_plus)
    levels = t.ranks().levels
    table: dict[tuple[Level, Edge], Monomial] = {}
    for k in range(1, frame.data.m_rank + 1):  # surviving levels, top down
        if mask >> k & 1:
            continue
        i = levels[k]
        num_ratio = _collapsed_product(frame, mask, frame.special_at[k], chart.theta_of)
        for e in cross_section(t, i):
            le = frame.data.edge_rank[e]
            val = frame.u_mon(e) * frame.up_chain(le) / frame.up_chain(k)
            val = val * num_ratio / _collapsed_product(frame, mask, e, chart.theta_of)
            table[(i, e)] = val * frame.gaps(k + 1, le + 1)
    return table


def stratum_of(frame: ChartFrame, subset: Iterable) -> Stratum:
    """The chart stratum attached to an index subset: surviving labels pin
    their coordinates to zero, collapsed labels make them units; ``u`` over
    hat-but-not-dropping edges is a unit everywhere."""
    part = frame.part
    i_plus, i_m, i_minus = part.split(subset)
    zeros = {frame.eps(i) for i in part.i_plus - i_plus}
    zeros |= {frame.usym(e) for e in part.i_m - i_m}
    zeros |= {frame.zsym(e) for e in part.i_minus - i_minus}
    units = {frame.eps(i) for i in i_plus}
    units |= {frame.usym(e) for e in i_m}
    units |= {frame.zsym(e) for e in i_minus}
    units |= {frame.usym(e)
              for e in frame.data.hat_edges - part.i_m - frame.special_edges()}
    return Stratum(zeros=frozenset(zeros), units=frozenset(units))


def check_mu_vanishing(chart: TwistedChart, subset: Iterable) -> bool:
    """On the stratum of ``I``, each coefficient must vanish exactly when the
    contraction drops the edge's lower endpoint below the level, and be a
    unit exactly when it lands on the level."""
    frame = chart.frame
    strat = stratum_of(frame, subset)
    res = contract(frame.t, subset)
    # the contraction keeps the levels of t, so one rank table serves both
    rank = frame.t.ranks().of_level
    for (i, e), mon in chart.mu(subset).items():
        if e in res.contracted:
            return False  # cross-section edges must survive contraction
        new_rank, k = rank[res.tree.level[e]], rank[i]
        if new_rank == k:
            if not strat.is_unit(mon):
                return False
        elif new_rank > k:
            if not strat.reduce(mon).is_zero:
                return False
        else:
            return False  # a cross-section edge can never land above its level
    return True


@dataclass(frozen=True)
class BasePoint:
    """A normalized twisted-field readout: one scalar per hat edge, equal to 1
    on special edges, nonzero off the dropping edges, zero on them."""

    frame: ChartFrame
    lambdas: Mapping[Edge, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "lambdas",
                           {e: Fraction(v) for e, v in self.lambdas.items()})
        frame = self.frame
        if set(self.lambdas) != set(frame.data.hat_edges):
            raise DomainError("one lambda per hat edge is required")
        for e, v in self.lambdas.items():
            if e in frame.special_edges():
                if v != 1:
                    raise DomainError(f"lambda of special edge {e!r} must be 1")
            elif e in frame.part.i_m:
                if v != 0:
                    raise DomainError(f"lambda of dropping edge {e!r} must be 0")
            elif v == 0:
                raise DomainError(f"lambda of {e!r} must be nonzero")

    def values(self) -> dict[Symbol, Fraction]:
        """Coordinate values of the chart's center: all gaps closed, ``u``
        coordinates at their lambdas, everything else 0."""
        frame = self.frame
        vals: dict[Symbol, Fraction] = {frame.eps(i): Fraction(0) for i in frame.part.i_plus}
        for e in frame.data.hat_edges - frame.special_edges():
            vals[frame.usym(e)] = self.lambdas[e]
        for e in frame.part.i_minus:
            vals[frame.zsym(e)] = Fraction(0)
        for j in frame.extra_tags:
            vals[frame.wsym(j)] = Fraction(0)
        return vals


def evaluate(mon: Monomial, values: Mapping[Symbol, Fraction]) -> Fraction:
    """Numeric evaluation; a negative power of a zero value is ill-defined."""
    if mon.is_zero:
        return Fraction(0)
    out = Fraction(1)
    for s, e in mon.exps:
        v = values[s]
        if v == 0:
            if e < 0:
                raise MonomialError(f"negative power of vanishing {s}")
            return Fraction(0)
        out *= v ** e
    return out


# ---------------------------------------------------------------------------
# The stratum map and its inverse
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StratumTarget:
    """Coordinates of the product chart a stratum maps onto: the collapsed
    modular parameters (units there), the extra parameters, and one readout
    coordinate per non-special surviving cross-section edge."""

    frame: ChartFrame
    result: ContractionResult
    free_mu: frozenset[Edge]

    def coords(self) -> frozenset[Symbol]:
        frame = self.frame
        out = {zeta(e) for e in self.result.contracted}
        out |= {sigma(j) for j in frame.extra_tags}
        out |= {musym(frame, e) for e in self.free_mu}
        return frozenset(out)


def stratum_target(frame: ChartFrame, subset: Iterable) -> StratumTarget:
    res = contract(frame.t, subset)
    tpr = res.tree
    new_part = index_partition(tpr)
    free_mu = set()
    for e in tpr.edges():
        lvl = tpr.level[e]
        if lvl in new_part.i_plus and e != frame.special[lvl]:
            free_mu.add(e)
    # the two descriptions of the readout coordinates must agree
    hat_new = level_data(tpr).hat_edges
    specials_new = {frame.special[i] for i in new_part.i_plus}
    if frozenset(free_mu) != hat_new - specials_new - new_part.i_m:
        raise VerificationError("readout coordinates disagree with the contraction's "
                                "hat edges", witness=(frame.t, frozenset(subset)))
    return StratumTarget(frame=frame, result=res, free_mu=frozenset(free_mu))


def forward_map(chart: TwistedChart, subset: Iterable) -> MonomialMap:
    """The stratum map in coordinates: collapsed modular parameters through
    the chart-to-base map, extra parameters through, and the cross-section
    readout through the ``mu`` table."""
    frame = chart.frame
    target = stratum_target(frame, frozenset(subset))
    tpr = target.result.tree
    mu_table = chart.mu(subset)
    assignment: dict[Symbol, Monomial] = {}
    for e in target.result.contracted:
        assignment[zeta(e)] = chart.theta.assignment[zeta(e)]
    for j in frame.extra_tags:
        assignment[sigma(j)] = Monomial.sym(frame.wsym(j))
    for e in target.free_mu:
        assignment[musym(frame, e)] = mu_table[(tpr.level[e], e)]
    return MonomialMap(source_coords=frame.coords(),
                       target_coords=target.coords(), assignment=assignment)


def build_inverse(chart: TwistedChart, subset: Iterable) -> MonomialMap:
    """Solve the chart coordinates out of the stratum data by downward
    induction over the levels: closed gaps stay 0; open gaps are read off a
    collapsed special parameter or a readout coordinate; ``u`` coordinates
    divide out the chains and gap products accumulated so far."""
    frame = chart.frame
    t = frame.t
    subset = frozenset(subset)
    i_plus, i_m, i_minus = frame.part.split(subset)
    mask = level_mask(t, i_plus)
    rank = t.ranks().of_vertex
    target = stratum_target(frame, subset)
    res = target.result
    tpr = res.tree
    new_part = index_partition(tpr)

    def zeta_val(e: Edge) -> Monomial:
        return Monomial.sym(zeta(e)) if e in res.contracted else ZERO

    def mu_val(e: Edge) -> Monomial:
        if e in target.free_mu:
            return Monomial.sym(musym(frame, e))
        if e in new_part.i_m:
            return ZERO
        lvl = tpr.level[e]
        if lvl in new_part.i_plus and e == frame.special[lvl]:
            return ONE
        raise MonomialError(f"no readout coordinate for edge {e!r}")

    built: dict[Symbol, Monomial] = {}

    def u_val(e: Edge) -> Monomial:
        if e in frame.special_edges():
            return ONE
        return built[frame.usym(e)]

    def chain_val(k: int) -> Monomial:
        return _prod(u_val(e) for e in frame.chain_edges[k])

    def eps_prod(lo: int, hi: int) -> Monomial:
        """The built gap coordinates of the ranks in ``[lo, hi)``."""
        return _prod(built[frame.eps_at[h]] for h in range(lo, hi))

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

    return MonomialMap(source_coords=target.coords(),
                       target_coords=frame.coords(), assignment=built)


def verify_round_trip(chart: TwistedChart, subset: Iterable) -> bool:
    """Both compositions of the stratum map with its inverse are identities:
    exactly on the target chart, and modulo the stratum's zeros on the source."""
    frame = chart.frame
    subset = frozenset(subset)
    fwd = forward_map(chart, subset)
    inv = build_inverse(chart, subset)
    strat = stratum_of(frame, subset)
    back = compose(inv, fwd)  # chart -> target -> chart
    if not equal_on_stratum(back, MonomialMap.identity(frame.coords()), strat):
        return False
    out = compose(fwd, inv)  # target -> chart -> target
    return equal_on_stratum(out, MonomialMap.identity(fwd.target_coords), EVERYWHERE)


# ---------------------------------------------------------------------------
# Transition identities
# ---------------------------------------------------------------------------

def verify_special_vertex_transition(t: WeightedLevelTree, special_a: SpecialMap,
                                     special_b: SpecialMap,
                                     tags: Sequence[Hashable] = ("j1",)) -> bool:
    """Two choices of special edges give charts differing by an explicit
    monomial change of coordinates ``g``: the base maps agree through ``g``,
    and each readout family is the old one renormalized by its value on the
    new special edge."""
    chart = build_chart(t, special_a, tags=tags)
    other = build_chart(t, special_b, tags=tags, flavor="a:")
    fa, fb = chart.frame, other.frame

    def chain(edges: Iterable[Edge]) -> Monomial:
        return _prod(fa.u_mon(e) for e in edges)

    assignment: dict[Symbol, Monomial] = {}
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
    for e in fa.part.i_minus:
        assignment[fb.zsym(e)] = Monomial.sym(fa.zsym(e))
    for j in tags:
        assignment[fb.wsym(j)] = Monomial.sym(fa.wsym(j))
    g = MonomialMap(source_coords=fa.coords(), target_coords=fb.coords(),
                    assignment=assignment)

    if compose(other.theta, g).assignment != chart.theta.assignment:
        return False
    for subset in fa.part.subsets():
        mu_a = chart.mu(subset)
        mu_b = other.mu(subset)
        for (i, e), mon in mu_b.items():
            lhs = mon.substitute(g.assignment)
            rhs = mu_a[(i, e)] / mu_a[(i, special_b[i])]
            if lhs != rhs:
                return False
    return True


def _f_product(t: WeightedLevelTree, e: Edge) -> Monomial:
    return _prod(Monomial.sym(Symbol("f", a)) for a in t.tree.descendants_geq(e))


def verify_parameter_transition(t: WeightedLevelTree, special: SpecialMap | None = None,
                                tags: Sequence[Hashable] = ("j1",)) -> bool:
    """Rescaling every modular parameter by a unit ``f_e`` changes the chart
    by an explicit monomial map ``g``: the base maps agree up to the same
    units, and the readout families agree after normalizing each side by its
    own ``f`` content."""
    if special is None:
        special = default_special(t)
    chart = build_chart(t, special, tags=tags)
    hat_chart = build_chart(t, special, tags=tags, flavor="hat:")
    fa, fh = chart.frame, hat_chart.frame

    def fchain(k: int) -> Monomial:
        return _prod(Monomial.sym(Symbol("f", e)) for e in fa.ascent[k])

    assignment: dict[Symbol, Monomial] = {}
    for k in range(1, fa.data.m_rank + 1):
        assignment[fh.eps_at[k]] = Monomial.sym(fa.eps_at[k]) * fchain(k) / fchain(k - 1)
    for e, k in fa.data.edge_rank.items():
        if e not in fa.special_edges():
            assignment[fh.usym(e)] = (fa.u_mon(e) * _f_product(t, e)
                                      / _f_product(t, fa.special_at[k]))
    for e in fa.part.i_minus:
        assignment[fh.zsym(e)] = Monomial.sym(fa.zsym(e))
    for j in tags:
        assignment[fh.wsym(j)] = Monomial.sym(fa.wsym(j))
    f_syms = frozenset(Symbol("f", e) for e in t.tree.edges)
    g = MonomialMap(source_coords=fa.coords() | f_syms,
                    target_coords=fh.coords(), assignment=assignment)

    for e in t.tree.edges:
        actual = hat_chart.theta.assignment[zeta(e)].substitute(g.assignment)
        expected = chart.theta.assignment[zeta(e)]
        if e in fa.data.hat_edges:
            expected = expected * Monomial.sym(Symbol("f", e))
        if actual != expected:
            return False
    for j in tags:
        if hat_chart.theta.assignment[sigma(j)].substitute(g.assignment) \
                != chart.theta.assignment[sigma(j)]:
            return False

    for subset in fa.part.subsets():
        i_plus, _, _ = fa.part.split(subset)
        mask = level_mask(t, i_plus)

        def f_not_collapsed(e: Edge) -> Monomial:
            return _prod(Monomial.sym(Symbol("f", a))
                         for a in t.tree.descendants_geq(e)
                         if fa.data.span[a] & ~mask)

        mu_plain = chart.mu(subset)
        for (i, e), mon in hat_chart.mu(subset).items():
            lhs = mon.substitute(g.assignment) * f_not_collapsed(special[i])
            rhs = mu_plain[(i, e)] * f_not_collapsed(e)
            if lhs != rhs:
                return False
    return True


def verify_stratum_transition(t: WeightedLevelTree, subset: Iterable,
                              special: SpecialMap | None = None,
                              tags: Sequence[Hashable] = ("j1",)) -> bool:
    """Recentering a chart on a stratum agrees with the chart of the
    contracted tree: the base maps match through the explicit ``g``, and the
    recentered readout families are the original ones at the union subset."""
    if special is None:
        special = default_special(t)
    subset = frozenset(subset)
    chart = build_chart(t, special, tags=tags)
    frame = chart.frame
    i_plus, _, _ = frame.part.split(subset)
    res = contract(t, subset)
    tpr = res.tree
    new_part = index_partition(tpr)
    special_new = {i: special[i] for i in new_part.i_plus}
    new_tags = tuple(tags) + tuple(("ctr", e) for e in sorted(res.contracted))
    prime = build_chart(tpr, special_new, tags=new_tags, flavor="p:")
    fp = prime.frame
    mu_I = chart.mu(subset)
    theta = chart.theta.assignment
    mask = level_mask(t, i_plus)

    for i in new_part.i_plus:  # the cross-sections must be preserved
        if cross_section(t, i) != cross_section(tpr, i):
            raise VerificationError("cross-section changed under contraction",
                                    witness=(subset, i))

    def mu_chain(j: Level) -> Monomial:
        return _prod(mu_I[(tpr.level[p], p)] for p in fp.chain_edges[tpr.level_rank(j)])

    assignment: dict[Symbol, Monomial] = {}
    for i in new_part.i_plus:
        iup = level_successor(tpr, i)
        k, kup = t.level_rank(i), t.level_rank(iup)
        val = Monomial.sym(frame.eps_at[k]) * frame.gaps(kup + 1, k)
        up_special = special_new.get(iup)  # None when the next level is the root's
        val = val * (_collapsed_product(frame, mask, up_special, chart.theta_of)
                     / _collapsed_product(frame, mask, special[i], chart.theta_of))
        val = val * frame.up_chain(k) / frame.up_chain(kup)
        val = val * mu_chain(iup) / mu_chain(i)
        assignment[fp.eps(i)] = val
    data_new = level_data(tpr)
    for e in data_new.hat_edges - fp.special_edges():
        assignment[fp.usym(e)] = mu_I[(data_new.edge_level[e], e)]
    for e in new_part.i_minus:
        if e in frame.part.i_minus:
            assignment[fp.zsym(e)] = Monomial.sym(frame.zsym(e))
        else:
            # a dropout edge: its modular parameter is already the readout
            assignment[fp.zsym(e)] = theta[zeta(e)]
    for j in tags:
        assignment[fp.wsym(j)] = Monomial.sym(frame.wsym(j))
    for e in res.contracted:
        assignment[fp.wsym(("ctr", e))] = theta[zeta(e)]
    g = MonomialMap(source_coords=frame.coords(), target_coords=fp.coords(),
                    assignment=assignment)

    # base maps agree through g
    for e in tpr.edges():
        if prime.theta.assignment[zeta(e)].substitute(g.assignment) != theta[zeta(e)]:
            return False
    for j in tags:
        if prime.theta.assignment[sigma(j)].substitute(g.assignment) \
                != Monomial.sym(frame.wsym(j)):
            return False
    for e in res.contracted:
        if prime.theta.assignment[sigma(("ctr", e))].substitute(g.assignment) \
                != theta[zeta(e)]:
            return False

    # recentered readout families come from the union subset
    for subset2 in new_part.subsets():
        mu_union = chart.mu(subset | subset2)
        for (i, e), mon in prime.mu(subset2).items():
            if mon.substitute(g.assignment) != mu_union[(i, e)]:
                return False
    return True


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
        return _prod(chart.theta.assignment[zeta(a)]
                     for a in t.tree.descendants_geq(e))

    if anc_product(frame.special_at[m_rank]) != base:
        return False
    for e in cross_section(t, frame.data.m):
        if anc_product(e) != frame.u_mon(e) * base:
            return False
    return True
