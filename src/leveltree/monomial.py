"""Exact Laurent monomials over named symbols, and monomial coordinate maps.

Every coordinate expression in the chart machinery is a single product of
symbol powers (or the constant 0), never a sum, so the whole calculus runs on
integer exponent vectors.  Multiplication adds exponents, composition of maps
is substitution, and identities are decided exactly.  A product of many
factors, and a substitution, merge all their exponents in one pass and sort
once, so their cost grows with the total number of factors, not its square.

A ``Stratum`` constrains some symbols to 0 and some to be units (nonzero).
On a stratum a monomial containing a positive power of a zero symbol *is* 0;
a negative power of a zero symbol is ill-defined and raises, which is kept
distinct from mere inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping

from .errors import MonomialError

# Symbols are interned so monomial internals can sort by a cheap integer id.
_INTERN: dict[tuple, "Symbol"] = {}


class Symbol:
    """An atomic coordinate name: a kind plus a key (level, edge, or tag).

    ``(kind, key)`` uniquely identifies a symbol; instances are interned so
    identity comparison is valid.  A kind may carry a prefix, as the blowup
    chart's gap symbols ``"t:eps"`` do.
    Its rendering and ``sort_key``, the order of its factor in a rendered
    monomial, are computed once, at interning.
    """

    __slots__ = ("kind", "key", "sid", "_render", "sort_key")

    def __new__(cls, kind: str, key: Hashable):
        cached = _INTERN.get((kind, key))
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.kind = kind
        self.key = key
        self.sid = len(_INTERN)
        self.sort_key = kind, _key_str(key)
        self._render = _render_symbol(kind, key)
        _INTERN[(kind, key)] = self
        return self

    def __repr__(self) -> str:
        return self._render

    def __str__(self) -> str:
        return self._render

    def __reduce__(self):
        # unpickling goes through the constructor, which re-interns
        return (Symbol, (self.kind, self.key))

    # interning makes default object identity/hash correct and fast


def _key_str(key) -> str:
    if isinstance(key, tuple):
        return ":".join(_key_str(k) for k in key)
    return str(key)


# kinds whose key is a level and renders in parentheses
_PAREN_KINDS = {"eps", "delta"}


def _render_symbol(kind: str, key) -> str:
    head, _, bare = kind.rpartition(":")
    prefix = head + ":" if head else ""
    if bare in _PAREN_KINDS or isinstance(key, tuple):
        return f"{prefix}{bare}({_key_str(key)})"
    return f"{prefix}{bare}_{_key_str(key)}"


def parse_symbol(text: str) -> Symbol:
    head, _, bare = text.rpartition(":")
    if "(" in bare:
        name, _, rest = bare.partition("(")
        if not rest.endswith(")"):
            raise MonomialError(f"unbalanced symbol {text!r}")
        inner = rest[:-1]
        key: Hashable
        if name in _PAREN_KINDS:
            key = Fraction(inner)
        elif ":" in inner:
            key = tuple(inner.split(":"))
        else:
            key = inner
    elif "_" in bare:
        name, _, key = bare.partition("_")
    else:
        raise MonomialError(f"cannot parse symbol {text!r}")
    kind = (head + ":" + name) if head else name
    return Symbol(kind, key)


class Monomial:
    """Zero, or a finite product of symbol powers with integer exponents."""

    __slots__ = ("exps",)

    def __init__(self, exps: tuple | None):
        # exps is None for the zero monomial, else a tuple of (Symbol, int)
        # sorted by symbol id with no zero exponents.
        self.exps = exps

    def __reduce__(self):
        # symbol ids depend on the order of interning, which differs between
        # processes, so the factors are sorted again on unpickling
        return (_from_exps, (self.exps,))

    # -- constructors -----------------------------------------------------

    _ONE: "Monomial"
    _ZERO: "Monomial"

    @staticmethod
    def one() -> "Monomial":
        return Monomial._ONE

    @staticmethod
    def zero() -> "Monomial":
        return Monomial._ZERO

    @staticmethod
    def sym(s: Symbol, exp: int = 1) -> "Monomial":
        if exp == 0:
            return Monomial._ONE
        return Monomial(((s, exp),))

    @staticmethod
    def product(factors: Iterable["Monomial"]) -> "Monomial":
        return _merge(factors)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.exps is None

    def symbols(self) -> tuple[Symbol, ...]:
        if self.exps is None:
            return ()
        return tuple(s for s, _ in self.exps)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.exps is None or other.exps is None:
            return Monomial._ZERO
        if not self.exps:
            return other
        if not other.exps:
            return self
        return _merge((self, other))

    def __pow__(self, n: int) -> "Monomial":
        if self.exps is None:
            if n <= 0:
                raise MonomialError("zero cannot be raised to a nonpositive power")
            return Monomial._ZERO
        if n == 0:
            return Monomial._ONE
        if n == 1:  # a monomial never changes, so it is its own first power
            return self
        return Monomial(tuple((s, e * n) for s, e in self.exps))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        if other.exps is None:
            raise MonomialError("division by the zero monomial")
        return self * (other ** -1)

    def substitute(self, assignment: Mapping[Symbol, "Monomial"]) -> "Monomial":
        """Rewrite every symbol through ``assignment`` (all symbols must be
        assigned).  A positive power of a zero value kills the product; a
        negative power of a zero value is ill-defined."""
        if self.exps is None:
            return Monomial._ZERO
        powers = []
        for s, e in self.exps:
            try:
                val = assignment[s]
            except KeyError:
                raise MonomialError(f"no assignment for symbol {s}") from None
            if val.is_zero:
                if e < 0:
                    raise MonomialError(f"negative power of vanishing {s}")
                return Monomial._ZERO
            powers.append(val ** e)
        return _merge(powers)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        if self.exps is None:
            return "0"
        if not self.exps:
            return "1"
        parts = []
        for s, e in sorted(self.exps, key=lambda it: it[0].sort_key):
            parts.append(str(s) if e == 1 else f"{s}^{e}")
        return " * ".join(parts)

    __str__ = render

    def __repr__(self) -> str:
        return f"<Monomial {self.render()}>"


Monomial._ONE = Monomial(())
Monomial._ZERO = Monomial(None)


def _sid(item: tuple) -> int:
    return item[0].sid


def _merge(factors: Iterable[Monomial]) -> Monomial:
    """The product of ``factors`` in one pass: zero absorbs, the exponents of
    a repeated symbol add, zero exponents drop, and the result is sorted by
    symbol id once.  Up to the second factor that is not 1, nothing is
    built: the product of no factors is 1, and of one factor that factor."""
    first = Monomial._ONE
    merged = None
    for f in factors:
        if f.exps is None:
            return Monomial._ZERO
        if merged is None:
            if not first.exps:
                first = f
                continue
            merged = dict(first.exps)
        for s, e in f.exps:
            # a stored exponent is never 0, so a sum of 0 cancels a stored one
            cur = merged.get(s, 0) + e
            if cur:
                merged[s] = cur
            else:
                del merged[s]
    if merged is None:
        return first
    return Monomial(tuple(sorted(merged.items(), key=_sid)))


def _from_exps(exps: tuple | None) -> Monomial:
    if exps is None:
        return Monomial._ZERO
    return Monomial(tuple(sorted(exps, key=_sid)))


def parse_monomial(text: str) -> Monomial:
    text = text.strip()
    if text == "0":
        return Monomial.zero()
    if text == "1":
        return Monomial.one()
    factors = []
    for factor in text.split("*"):
        factor = factor.strip()
        if "^" in factor:
            sym_text, _, exp_text = factor.rpartition("^")
            exp = int(exp_text)
        else:
            sym_text, exp = factor, 1
        factors.append(Monomial.sym(parse_symbol(sym_text.strip()), exp))
    return Monomial.product(factors)


@dataclass(frozen=True)
class Stratum:
    """Coordinates pinned to zero and coordinates constrained to be units."""

    zeros: frozenset
    units: frozenset

    def __post_init__(self):
        if self.zeros & self.units:
            raise MonomialError("a symbol cannot be both zero and a unit")

    def reduce(self, m: Monomial) -> Monomial:
        if m.exps is None:
            return m
        for s, e in m.exps:
            if s in self.zeros:
                if e < 0:
                    raise MonomialError(f"negative power of vanishing {s}")
                return Monomial.zero()
        return m

    def is_unit(self, m: Monomial) -> bool:
        m = self.reduce(m)
        return not m.is_zero and all(s in self.units for s in m.symbols())

    def equal(self, a: Monomial, b: Monomial) -> bool:
        return self.reduce(a) == self.reduce(b)


EVERYWHERE = Stratum(zeros=frozenset(), units=frozenset())


@dataclass(frozen=True)
class MonomialMap:
    """A coordinate map between two symbol sets.

    The map goes from the source space to the target space; ``assignment``
    gives the pullback of every target coordinate as a monomial in the source
    coordinates.
    """

    source_coords: frozenset
    target_coords: frozenset
    assignment: Mapping[Symbol, Monomial]

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))
        if set(self.assignment) != set(self.target_coords):
            raise MonomialError("assignment must cover exactly the target coordinates")
        for tgt, mon in self.assignment.items():
            for s in mon.symbols():
                if s not in self.source_coords:
                    raise MonomialError(f"{tgt} is assigned a foreign symbol {s}")

    @staticmethod
    def identity(coords: Iterable[Symbol]) -> "MonomialMap":
        cs = frozenset(coords)
        return MonomialMap(source_coords=cs, target_coords=cs,
                           assignment={c: Monomial.sym(c) for c in cs})


def compose(f: MonomialMap, g: MonomialMap) -> MonomialMap:
    """The map ``f after g``; requires ``g.target_coords == f.source_coords``.

    The result is built without the constructor's checks, which hold by
    construction: its keys are ``f``'s targets, and each of its symbols comes
    from a value of ``g``'s checked assignment, so lies in ``g``'s sources."""
    if g.target_coords != f.source_coords:
        raise MonomialError("cannot compose: coordinate sets do not match")
    out = object.__new__(MonomialMap)
    object.__setattr__(out, "source_coords", g.source_coords)
    object.__setattr__(out, "target_coords", f.target_coords)
    object.__setattr__(out, "assignment",
                       {t: mon.substitute(g.assignment) for t, mon in f.assignment.items()})
    return out


def equal_on_stratum(f: MonomialMap, g: MonomialMap, s: Stratum) -> bool:
    """Componentwise equality after imposing the stratum; an ill-defined
    component (negative power of a pinned zero) raises rather than compares."""
    if f.source_coords != g.source_coords or f.target_coords != g.target_coords:
        raise MonomialError("maps with different coordinate sets are incomparable")
    return all(s.equal(f.assignment[t], g.assignment[t]) for t in f.target_coords)
