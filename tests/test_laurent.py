"""Laurent polynomials, modular reduction, and factorization over Z."""

import random

import pytest
from hypothesis import given, strategies as st

from cycover import _intfactor
from cycover.laurent import (
    INFINITE,
    LaurentPoly,
    NotPrime,
    ZeroPolynomial,
    exact_div,
    factor_over_Z,
)
from oracles import NotSymmetric, multiply_back, symmetric_form


def L(coeffs, low=0):
    return LaurentPoly.from_coeffs(coeffs, low=low)


# -- construction and basic queries ------------------------------------


def test_zero_and_constant():
    z = LaurentPoly.zero()
    assert not z
    assert z.degree_span() is INFINITE
    assert LaurentPoly.constant(5).coeff(0) == 5


def test_low_high_span():
    f = L([1, 0, -3], low=-1)  # t^-1 - 3t
    assert f.low() == -1
    assert f.high() == 1
    assert f.degree_span() == 2
    with pytest.raises(ZeroPolynomial):
        LaurentPoly.zero().low()


def test_dense():
    f = L([2, 0, 1], low=3)
    assert f.dense() == [2, 0, 1]
    assert LaurentPoly.zero().dense() == []


def test_eq_accepts_int():
    assert LaurentPoly.constant(7) == 7
    assert LaurentPoly.zero() == 0
    assert L([1], low=1) != 1


# -- ring operations ----------------------------------------------------


def test_arithmetic_example():
    f = L([1, 1])  # 1 + t
    g = L([-1, 1])  # -1 + t
    assert f * g == L([-1, 0, 1])
    assert f + g == L([0, 2])
    assert f - f == 0
    assert (-f) + f == 0
    assert f**3 == L([1, 3, 3, 1])
    assert 2 * f == L([2, 2])


def test_pow_negative_rejected():
    with pytest.raises(ValueError):
        L([1, 1]) ** -1


SMALLS = st.integers(-5, 5)


@st.composite
def polys(draw):
    coeffs = draw(st.lists(SMALLS, min_size=0, max_size=5))
    low = draw(st.integers(-3, 3))
    return LaurentPoly.from_coeffs(coeffs, low=low)


@given(polys(), polys(), polys())
def test_distributive(f, g, h):
    assert (f + g) * h == f * h + g * h


@given(polys(), polys())
def test_mul_commutes(f, g):
    assert f * g == g * f


@given(polys())
def test_normalize_properties(f):
    n = f.normalize()
    if f:
        assert n.low() == 0
        assert n.dense()[-1] > 0
        assert n.degree_span() == f.degree_span()
        assert n.normalize() == n
    else:
        assert n == 0


@given(polys(), polys())
def test_degree_span_of_product(f, g):
    if f and g:
        assert (f * g).degree_span() == f.degree_span() + g.degree_span()


def test_shifted_to_zero_keeps_signs():
    f = L([-2, 1], low=-5)
    s = f.shifted_to_zero()
    assert s.low() == 0 and s.dense() == [-2, 1]


# -- content, symmetric form, monic ends --------------------------------


def test_content_and_primitive():
    f = L([4, -6], low=-1)
    assert f.content() == 2
    assert LaurentPoly.zero().content() == 0


def test_is_monic_both_ends():
    assert L([1, -1, 1]).is_monic_both_ends()
    assert L([-1, 3, 1]).is_monic_both_ends()
    assert not L([2, -5, 2]).is_monic_both_ends()
    assert not LaurentPoly.zero().is_monic_both_ends()
    assert LaurentPoly.constant(1).is_monic_both_ends()


def test_symmetric_form():
    f = L([1, -1, 1], low=-1)  # t^-1 - 1 + t
    assert symmetric_form(f) == (-1, 1)
    g = L([2, -5, 2])  # recentered to 2t^-1 - 5 + 2t
    assert symmetric_form(g) == (-5, 2)
    h = L([1, -3, 1], low=-1)
    assert symmetric_form(h) == (-3, 1)


def test_symmetric_form_rejects():
    with pytest.raises(ZeroPolynomial):
        symmetric_form(LaurentPoly.zero())
    with pytest.raises(NotSymmetric):
        symmetric_form(L([1, 1, -1]))  # not palindromic
    with pytest.raises(NotSymmetric):
        symmetric_form(L([-1, 0, 1]))  # antisymmetric counts as not symmetric
    with pytest.raises(NotSymmetric):
        symmetric_form(L([1, 1, 1, 1]))  # odd span


# -- modular reduction --------------------------------------------------


def test_reduce_mod():
    f = L([1, -1, 1])
    m2 = f.reduce_mod(2)
    assert m2.degree_span() == 2
    assert len(m2.coeffs) == 3
    m3 = L([1, -4, 1]).reduce_mod(2)
    assert m3.degree_span() == 2
    # t - 2 mod 2 collapses to the single term t
    u = L([-2, 1]).reduce_mod(2)
    assert u.coeffs == {1: 1}
    z = L([3, -3]).reduce_mod(3)
    assert not z.coeffs and z.degree_span() is INFINITE


def test_reduce_mod_requires_prime():
    f = L([1, 1])
    for bad in (1, 4, 6, 0, -3):
        with pytest.raises(NotPrime):
            f.reduce_mod(bad)


def test_reduce_mod_examples_spanning():
    # t^2 - t + 1 mod 3 = t^2 + 2t + 1 = (t+1)^2, still span 2
    f = L([1, -1, 1]).reduce_mod(3)
    assert f.degree_span() == 2


# -- printing ----------------------------------------------------------


def test_str_forms():
    assert str(L([2, -5, 2])) == "2t^2 - 5t + 2"
    assert str(L([2, -5, 2], low=-1)) == "2t - 5 + 2t^-1"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.constant(-3)) == "-3"
    assert str(L([1], low=1)) == "t"


# -- factorization ------------------------------------------------------


def test_factor_quadratic():
    fac = factor_over_Z(L([2, -5, 2]))
    assert [(str(g), m) for g, m in fac.factors] == [("t - 2", 1), ("2t - 1", 1)]
    assert fac.sign == 1 and fac.content == 1 and fac.unit_exp == 0
    assert multiply_back(fac) == L([2, -5, 2])


def test_factor_quartic():
    f = L([2, -7, 9, -7, 2])
    fac = factor_over_Z(f)
    assert [(str(g), m) for g, m in fac.factors] == [
        ("t - 2", 1),
        ("2t - 1", 1),
        ("t^2 - t + 1", 1),
    ]
    assert multiply_back(fac) == f


def test_factor_laurent_unit_and_content():
    f = L([-6, 15, -6], low=-4)
    fac = factor_over_Z(f)
    assert fac.unit_exp == -4
    assert fac.content == 3
    assert fac.sign == -1
    assert multiply_back(fac) == f


def test_factor_irreducible_and_multiplicity():
    fac = factor_over_Z(L([1, -1, 1]))
    assert [(str(g), m) for g, m in fac.factors] == [("t^2 - t + 1", 1)]
    f = L([1, 1]) ** 2 * L([-1, 1])
    fac2 = factor_over_Z(f)
    assert [(str(g), m) for g, m in fac2.factors] == [("t - 1", 1), ("t + 1", 2)]


def test_factor_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        factor_over_Z(LaurentPoly.zero())


def test_factor_cyclotomic_like():
    # t^4 + t^3 + t^2 + t + 1 is irreducible
    fac = factor_over_Z(L([1, 1, 1, 1, 1]))
    assert len(fac.factors) == 1 and fac.factors[0][1] == 1


def test_factor_high_multiplicity():
    f = L([1, 1]) ** 3
    fac = factor_over_Z(f)
    assert [(str(g), m) for g, m in fac.factors] == [("t + 1", 3)]


def _sympy_factor_multiset(dense_low0):
    from sympy import Poly, symbols

    t = symbols("t")
    _, parts = Poly(list(reversed(dense_low0)), t).factor_list()
    out = []
    for poly, mult in parts:
        coeffs = [int(c) for c in reversed(poly.all_coeffs())]
        if coeffs[-1] < 0:
            coeffs = [-c for c in coeffs]
        out.append((tuple(coeffs), int(mult)))
    return sorted(out)


def test_factor_matches_sympy_on_random_polys():
    rng = random.Random(777)
    checked = 0
    while checked < 40:
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-8, 8) for _ in range(deg)] + [rng.randint(1, 8)]
        if coeffs[0] == 0:
            continue
        f = L(coeffs)
        fac = factor_over_Z(f)
        assert multiply_back(fac) == f
        mine = sorted(
            (tuple(g.normalize().dense()), m) for g, m in fac.factors
        )
        assert mine == _sympy_factor_multiset(coeffs), coeffs
        checked += 1


# -- gcd and division ---------------------------------------------------


def test_gcd_coprime():
    assert _intfactor.int_poly_gcd([1, 1], [-1, 1]) == [1]


def _sympy_gcd(a, b):
    from sympy import Poly, gcd, symbols

    t = symbols("t")
    g = gcd(Poly(list(reversed(a)), t), Poly(list(reversed(b)), t)).primitive()[1]
    coeffs = [int(c) for c in reversed(g.all_coeffs())]
    return coeffs


def test_gcd_matches_sympy_on_random_pairs():
    rng = random.Random(424242)
    for _ in range(30):
        a = [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 5)]
        b = [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 5)]
        if a[0] == 0 or b[0] == 0:
            continue
        assert _intfactor.int_poly_gcd(a, b) == _sympy_gcd(a, b)


def test_exact_div():
    f = L([2, -7, 9, -7, 2])
    g = L([1, -1, 1])
    q = exact_div(f, g)
    assert q == L([2, -5, 2])
    assert q * g == f
    assert exact_div(f, L([1, 1])) is None


def test_exact_div_with_laurent_shift():
    f = L([1, -1], low=-2)
    g = L([1, -1], low=3)
    q = exact_div(f, g)
    assert q == L([1], low=-5)


@given(polys(), polys())
def test_exact_div_roundtrip(f, g):
    if f and g:
        q = exact_div(f * g, g)
        assert q == f
