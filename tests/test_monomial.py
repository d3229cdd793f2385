import pickle
from fractions import Fraction

import pytest
from hypothesis import given
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
    assert (m((E1, 1)) / m((E1, 1))).is_one


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
