import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leveltree.errors import MonomialError
from leveltree.monomial import (EVERYWHERE, Monomial, MonomialMap, Stratum,
                                Symbol, compose, equal_on_stratum,
                                parse_monomial, parse_symbol)

E1 = Symbol("eps", Fraction(-1))
E2 = Symbol("eps", Fraction(-2))
UB = Symbol("u", "b")
UC = Symbol("u", "c")
ZA = Symbol("z", "a")


def m(*pairs):
    out = Monomial.one()
    for s, e in pairs:
        out = out * Monomial.sym(s, e)
    return out


def test_symbols_are_interned():
    assert Symbol("eps", Fraction(-1)) is E1
    assert Symbol("u", "b") is not Symbol("a:u", "b")


def test_multiplication_adds_exponents():
    assert m((E1, 1)) * m((E2, 1)) == m((E1, 1), (E2, 1))
    assert m((UC, 1), (UB, -1)) * m((UB, 1)) == m((UC, 1))
    x = m((E1, 2), (UC, -1))
    assert x * Monomial.one() == x


def test_zero_absorbs():
    assert m((E1, 1)) * Monomial.zero() == Monomial.zero()
    assert Monomial.zero() * Monomial.zero() == Monomial.zero()
    with pytest.raises(MonomialError):
        m((E1, 1)) / Monomial.zero()


def test_division_is_exact():
    assert m((E1, 1), (UC, 2)) / m((UC, 2)) == m((E1, 1))
    assert m((E1, 1)) / m((E1, 1)) == Monomial.one()


def test_render_matches_documented_format():
    assert m((UC, 1), (E2, 1), (UB, -1)).render() == "eps(-2) * u_b^-1 * u_c"
    assert Monomial.one().render() == "1"
    assert Monomial.zero().render() == "0"


def test_parse_round_trip():
    for mon in (m((UC, 1), (E2, 1), (UB, -1)), Monomial.one(), Monomial.zero(),
                m((ZA, -3), (E1, 2))):
        assert parse_monomial(mon.render()) == mon
    assert parse_symbol("eps(-3/2)") == Symbol("eps", Fraction(-3, 2))
    assert parse_symbol("a:u_b") == Symbol("a:u", "b")


def test_substitute_zero_awareness():
    assignment = {E1: Monomial.zero(), UC: m((UB, 1))}
    assert m((E1, 1), (UC, 1)).substitute(assignment) == Monomial.zero()
    with pytest.raises(MonomialError):
        m((E1, -1)).substitute(assignment)
    with pytest.raises(MonomialError):
        m((ZA, 1)).substitute(assignment)  # unassigned symbol


def test_compose_identity_and_mismatch():
    coords = frozenset({E1, UC})
    ident = MonomialMap.identity(coords)
    f = MonomialMap(source_coords=coords, target_coords=frozenset({ZA}),
                    assignment={ZA: m((E1, 1), (UC, -1))})
    assert compose(f, ident).assignment == f.assignment
    with pytest.raises(MonomialError):
        compose(ident, f)


def test_compose_is_matrix_product_on_exponents():
    a, b, c = Symbol("w", "a"), Symbol("w", "b"), Symbol("w", "c")
    g = MonomialMap(source_coords=frozenset({a}), target_coords=frozenset({b}),
                    assignment={b: m((a, 2))})
    f = MonomialMap(source_coords=frozenset({b}), target_coords=frozenset({c}),
                    assignment={c: m((b, 3))})
    assert compose(f, g).assignment[c] == m((a, 6))


def test_monomial_map_checks_its_targets_and_sources():
    source = frozenset({E1, UC})
    good = {ZA: m((E1, 1), (UC, -1))}
    f = MonomialMap(source_coords=source, target_coords=frozenset({ZA}), assignment=good)
    good[ZA] = Monomial.one()  # the map keeps its own copy
    assert f.assignment[ZA] == m((E1, 1), (UC, -1))
    with pytest.raises(MonomialError, match="exactly the target coordinates"):
        MonomialMap(source_coords=source, target_coords=frozenset({ZA, UB}),
                    assignment={ZA: m((E1, 1))})  # UB is missing
    with pytest.raises(MonomialError, match="exactly the target coordinates"):
        MonomialMap(source_coords=source, target_coords=frozenset({ZA}),
                    assignment={ZA: m((E1, 1)), UB: m((UC, 1))})  # UB is extra
    with pytest.raises(MonomialError, match="assigned a foreign symbol eps"):
        MonomialMap(source_coords=source, target_coords=frozenset({ZA}),
                    assignment={ZA: m((UC, 2), (E2, -1))})
    zero = MonomialMap(source_coords=source, target_coords=frozenset({ZA}),
                       assignment={ZA: Monomial.zero()})
    assert zero.assignment[ZA].is_zero


def test_equal_on_stratum():
    s = Stratum(zeros=frozenset({E2}), units=frozenset({E1, UC}))
    f = MonomialMap(source_coords=frozenset({E1, E2, UC}),
                    target_coords=frozenset({ZA}),
                    assignment={ZA: m((E2, 1), (UC, 1))})
    g = MonomialMap(source_coords=frozenset({E1, E2, UC}),
                    target_coords=frozenset({ZA}),
                    assignment={ZA: Monomial.zero()})
    assert equal_on_stratum(f, g, s)
    assert not equal_on_stratum(f, g, EVERYWHERE)
    h = MonomialMap(source_coords=frozenset({E1, E2, UC}),
                    target_coords=frozenset({ZA}),
                    assignment={ZA: m((E2, -1))})
    with pytest.raises(MonomialError):
        equal_on_stratum(h, g, s)


def test_unequal_units_stay_unequal_on_strata():
    s = Stratum(zeros=frozenset(), units=frozenset({E1, E2}))
    assert not s.equal(m((E1, 1)), m((E2, 1)))


symbols = st.sampled_from([E1, E2, UB, UC, ZA])
exponents = st.integers(min_value=-3, max_value=3)
monomials = st.lists(st.tuples(symbols, exponents), max_size=4).map(lambda ps: m(*ps))


@given(monomials, monomials, monomials)
def test_multiplication_is_associative_and_commutative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(monomials, monomials)
def test_division_inverts_multiplication(a, b):
    assert (a * b) / b == a


@given(monomials)
def test_substitution_through_identity_is_identity(a):
    ident = {s: Monomial.sym(s) for s in (E1, E2, UB, UC, ZA)}
    assert a.substitute(ident) == a


# The merge properties: factors are drawn as raw (symbol, exponent) lists, or
# None for the zero monomial, and checked against exponent sums kept here.
MERGE_SYMBOLS = [E1, E2, UB, UC, ZA, Symbol("w", "j1"), Symbol("a:u", "b"),
                 Symbol("zeta", "c"), Symbol("t:eps", Fraction(-1))]
raw_factors = st.tuples(
    st.integers(min_value=0, max_value=29),
    st.lists(st.tuples(st.sampled_from(MERGE_SYMBOLS), exponents), min_size=1, max_size=4),
).map(lambda drawn: None if drawn[0] == 0 else drawn[1])


def built(raw) -> Monomial:
    return Monomial.zero() if raw is None else m(*raw)


def exponent_sum(raws):
    """The product as a symbol -> exponent dict, or None for zero."""
    total = {}
    for raw in raws:
        if raw is None:
            return None
        for s, e in raw:
            total[s] = total.get(s, 0) + e
    return {s: e for s, e in total.items() if e}


def normal_form(mon: Monomial):
    """The exponents as a dict, after checking the stored form: sorted by
    symbol id, each symbol once, no zero exponent."""
    if mon.is_zero:
        return None
    ids = [s.sid for s, _ in mon.exps]
    assert ids == sorted(set(ids)) and all(e for _, e in mon.exps)
    return dict(mon.exps)


@settings(derandomize=True, max_examples=300)
@given(st.integers(min_value=0, max_value=30).flatmap(
    lambda n: st.lists(raw_factors, min_size=n, max_size=n)))
def test_product_is_the_fold_and_the_exponent_sum(raws):
    factors = [built(raw) for raw in raws]
    fold = Monomial.one()
    for f in factors:
        fold = fold * f
    product = Monomial.product(factors)
    assert product == fold
    assert normal_form(product) == normal_form(fold) == exponent_sum(raws)


# two operands, each zero about half the time
operands = st.one_of(st.none(), st.lists(st.tuples(st.sampled_from(MERGE_SYMBOLS), exponents),
                                         min_size=1, max_size=4))


@settings(derandomize=True, max_examples=300)
@given(operands, operands)
def test_product_and_quotient_of_two_are_the_exponent_sums(raw_a, raw_b):
    a, b = built(raw_a), built(raw_b)
    assert normal_form(a * b) == exponent_sum([raw_a, raw_b])
    if raw_b is None:
        with pytest.raises(MonomialError, match="division by the zero monomial"):
            a / b
    else:
        inverse = [(s, -e) for s, e in raw_b]
        assert normal_form(a / b) == exponent_sum([raw_a, inverse])


def substitute_reference(exps, values):
    """Substitution as a product of powers, raising where it must: the
    symbols are visited by id, a missing value or a negative power of a zero
    value raises, and a positive power of a zero value gives zero."""
    if exps is None:
        return None
    total = {}
    for s, e in sorted(exps.items(), key=lambda it: it[0].sid):
        if s not in values:
            return ("raises", f"no assignment for symbol {s}")
        if values[s] is None:
            if e < 0:
                return ("raises", f"negative power of vanishing {s}")
            return None
        for t, f in exponent_sum([values[s]]).items():
            total[t] = total.get(t, 0) + e * f
    return {t: f for t, f in total.items() if f}


@settings(derandomize=True, max_examples=300)
@given(raw_factors, st.lists(raw_factors, min_size=len(MERGE_SYMBOLS),
                             max_size=len(MERGE_SYMBOLS)),
       st.sets(st.sampled_from(MERGE_SYMBOLS), max_size=2))
def test_substitute_is_the_product_of_powers(raw, raw_values, unassigned):
    values = {s: v for s, v in zip(MERGE_SYMBOLS, raw_values) if s not in unassigned}
    assignment = {s: built(v) for s, v in values.items()}
    try:
        got = normal_form(built(raw).substitute(assignment))
    except MonomialError as exc:
        got = ("raises", str(exc))
    assert got == substitute_reference(exponent_sum([raw]), values)


def test_symbols_and_monomials_survive_pickling():
    s = Symbol("eps", 1)
    assert pickle.loads(pickle.dumps(s)) is s
    for text in ("0", "1", "eps(-1) * u_c^-2 * a:z_d"):
        mon = parse_monomial(text)
        back = pickle.loads(pickle.dumps(mon))
        assert back == mon and str(back) == str(mon)


def test_unpickled_monomials_are_normalized_by_symbol_id():
    a, b = Symbol("u", "pickle-a"), Symbol("u", "pickle-b")
    mon = Monomial.sym(a) * Monomial.sym(b)
    # factors stored out of id order, as a foreign process may have them
    data = pickle.dumps(Monomial(tuple(reversed(mon.exps))))
    assert pickle.loads(data) == mon
