"""Fox derivatives, presentation matrices, and the polynomial pipeline."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    BAUMSLAG_B,
    BS23,
    DYADIC,
    NOCOVER,
    TORUS23,
    knotlike_corpus,
    trefoil,
    two_bridge_pairs,
    weight_zero_form,
)
from cycover import laurent
from cycover.alexander import (
    NoUnitWeightGenerator,
    NotDeficiencyOne,
    _det,
    alexander_matrix,
    alexander_polynomial,
    fox_derivative_abelianized,
    mod_p_table,
)
from cycover.laurent import INFINITE, LaurentPoly
from cycover.twobridge import TwoBridgeParams, family_presentation, presentation
from cycover.words import FreeWord, Presentation, parse_presentation
from oracles import leibniz_det

L = LaurentPoly.from_coeffs


def W(*syllables):
    return FreeWord.make(list(syllables))


# -- Fox derivative -----------------------------------------------------


def test_fox_single_positive_syllable():
    chi = {"t": 1, "a": 0}
    # d(t^3)/dt = 1 + t + t^2
    assert fox_derivative_abelianized(W(("t", 3)), "t", chi) == L([1, 1, 1])


def test_fox_single_negative_syllable():
    chi = {"t": 1, "a": 0}
    # d(t^-2)/dt = -t^-1 - t^-2
    got = fox_derivative_abelianized(W(("t", -2)), "t", chi)
    assert got == LaurentPoly({-1: -1, -2: -1})


def test_fox_zero_weight_generator():
    chi = {"t": 1, "a": 0}
    # a-syllables sit at the height of their prefix
    w = W(("t", 1), ("a", 2), ("t", -1), ("a", -1))
    assert fox_derivative_abelianized(w, "a", chi) == L([-1, 2])
    # the t and t^-1 contributions cancel: 1 + t*(-t^-1) = 0
    assert fox_derivative_abelianized(w, "t", chi).is_zero()


def test_fox_of_identity_is_zero():
    assert fox_derivative_abelianized(FreeWord.identity(), "t", {"t": 1}).is_zero()


def _phi_weight(w, chi):
    return sum(e * chi[g] for g, e in w.syllables)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fox_product_rule(data):
    chi = {"t": 1, "a": 0}
    syls = st.lists(
        st.tuples(st.sampled_from(["t", "a"]), st.integers(-3, 3).filter(bool)),
        max_size=6,
    )
    u = FreeWord.make(data.draw(syls))
    v = FreeWord.make(data.draw(syls))
    for g in ("t", "a"):
        lhs = fox_derivative_abelianized(u * v, g, chi)
        rhs = fox_derivative_abelianized(u, g, chi) + LaurentPoly.t_power(
            _phi_weight(u, chi)
        ) * fox_derivative_abelianized(v, g, chi)
        assert lhs == rhs


def test_fox_fundamental_identity_on_corpus():
    for name, pres, chi in knotlike_corpus():
        for r in pres.relators:
            total = LaurentPoly.zero()
            for g in pres.generators:
                step = LaurentPoly.t_power(chi[g]) - LaurentPoly.constant(1)
                total = total + fox_derivative_abelianized(r, g, chi) * step
            assert total.is_zero(), name


# -- presentation matrix ------------------------------------------------


def test_matrix_shape_and_entries():
    m = alexander_matrix(DYADIC, {"t": 1, "a": 0})
    assert m.entry(0, m.column_index("t")).is_zero()
    assert m.entry(0, m.column_index("a")) == L([-2, 1])


def test_matrix_without_column():
    m = alexander_matrix(DYADIC, {"t": 1, "a": 0})
    rows = m.without_column("t")
    assert len(rows) == 1 and len(rows[0]) == 1
    assert rows[0][0] == L([-2, 1])


# -- determinant --------------------------------------------------------


def _dicts(rows):
    return [[e.coeffs for e in row] for row in rows]


def _random_entry(rng, size):
    if rng.random() < 0.3:
        return LaurentPoly.zero()
    return LaurentPoly({rng.randint(-4, 4): rng.randint(-size, size) for _ in range(rng.randint(1, 3))})


def _random_matrix(rng, k, size=6):
    return [[_random_entry(rng, size) for _ in range(k)] for _ in range(k)]


def _random_matrices(rng, k):
    """Random k x k Laurent matrices, plain and with the shapes Bareiss must survive."""
    yield _random_matrix(rng, k)
    yield _random_matrix(rng, k, size=2**200)
    if k == 0:
        return
    zero_row = _random_matrix(rng, k)
    zero_row[rng.randrange(k)] = [LaurentPoly.zero()] * k
    yield zero_row
    zero_col = _random_matrix(rng, k)
    for row in zero_col:
        row[k - 1] = LaurentPoly.zero()
    yield zero_col
    if k < 2:
        return
    # the last row a combination of the first two (the first, for k = 2)
    singular = _random_matrix(rng, k)
    f, g = L([rng.randint(-3, 3), 1], low=-1), L([rng.randint(1, 3)])
    singular[-1] = [f * x + (g * y if k > 2 else LaurentPoly.zero()) for x, y in zip(singular[0], singular[1])]
    yield singular
    # a zero first pivot, and for k > 2 a zero leading 2 x 2 minor: Bareiss
    # swaps rows at the first pivot, and again at the second
    swaps = _random_matrix(rng, k)
    swaps[0][0] = LaurentPoly.zero()
    swaps[1][0] = L([1, 2], low=-2)
    if k > 2:
        swaps[0][1] = swaps[2][0] = LaurentPoly.zero()
        swaps[2][1] = L([2, 0, -5], low=1)
    yield swaps


@pytest.mark.parametrize("k", range(8))
def test_det_matches_leibniz_on_random_matrices(k):
    rng = random.Random(1000 + k)
    for rows in _random_matrices(rng, k):
        assert _det(rows).coeffs == leibniz_det(_dicts(rows)), rows


def test_random_shapes_are_singular_or_swap_pivots():
    # the shapes _random_matrices builds do what its comments say
    plain, wide, zero_row, zero_col, singular, swaps = _random_matrices(random.Random(7), 4)
    for rows in (zero_row, zero_col, singular):
        assert not leibniz_det(_dicts(rows))
    assert leibniz_det(_dicts(swaps)) and not swaps[0][0]
    assert not leibniz_det([row[:2] for row in _dicts(swaps[:2])])


def test_det_matches_leibniz_on_every_corpus_fox_minor():
    triples = knotlike_corpus()
    triples += [(f"weight_zero{p}_{q}", *weight_zero_form(p, q)) for p, q in two_bridge_pairs(15)]
    triples += [
        (f"twobridge{p}_{q}", presentation(TwoBridgeParams(p, q)), {"u": 1, "v": 1})
        for p, q in two_bridge_pairs(15)
    ]
    for name, pres, chi in triples:
        mat = alexander_matrix(pres, chi)
        for g in pres.generators:
            rows = mat.without_column(g)
            assert _det(rows).coeffs == leibniz_det(_dicts(rows)), (name, g)


def test_det_matches_leibniz_on_multi_relator_fox_minors():
    rng = random.Random(11)
    for n in range(3, 7):
        gens = "abcdef"[:n]
        for _ in range(3):
            relators = [
                " ".join(f"{rng.choice(gens)}^{rng.choice([-2, -1, 1, 2])}" for _ in range(8))
                for _ in range(n - 1)
            ]
            pres = parse_presentation(f"<{', '.join(gens)} | {', '.join(relators)}>")
            chi = {g: rng.randint(-2, 2) for g in gens}
            mat = alexander_matrix(pres, chi)
            for g in gens:
                rows = mat.without_column(g)
                assert _det(rows).coeffs == leibniz_det(_dicts(rows)), (pres.to_text(), g)


@pytest.mark.parametrize(
    "coeffs",
    [
        [127, 1],
        [-128, 1],
        [128, -1],
        [-(7 * 73), 7 * 127 * 337, 92737 * 649657],  # product -(2^63 - 1)
        [2**40, -(2**23)],  # product -2^63
        [3**100, -(5**60), 2**200 + 1, -1, 7],
    ],
)
def test_det_coefficient_equal_to_the_bound(coeffs):
    # diagonal single terms: the one coefficient of the determinant is the
    # product of the row 1-norms up to sign, the largest the bound allows
    rows = [
        [LaurentPoly({i - 2: c}) if i == j else LaurentPoly.zero() for j in range(len(coeffs))]
        for i, c in enumerate(coeffs)
    ]
    det = _det(rows)
    assert det.coeffs == leibniz_det(_dicts(rows))
    assert abs(det.coeff(det.low())) == math.prod(abs(c) for c in coeffs)


def test_det_makes_no_laurent_products(monkeypatch):
    rows = _random_matrix(random.Random(5), 6)
    expected = leibniz_det(_dicts(rows))
    assert expected

    def refuse(*args):
        raise AssertionError("_det multiplied or divided Laurent polynomials")

    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    monkeypatch.setattr(LaurentPoly, "__rmul__", refuse)
    monkeypatch.setattr(laurent, "exact_div", refuse)
    assert _det(rows).coeffs == expected


# -- the polynomial -----------------------------------------------------


def test_dyadic_delta_and_table():
    res = alexander_polynomial(DYADIC, {"t": 1, "a": 0})
    assert res.delta == L([-2, 1])
    assert res.deleted_column == "t"
    mp, d = res.mod_p_table[2]
    assert d == 0  # t - 2 drops to the unit t mod 2
    assert res.mod_p_table[3][1] == 1
    assert res.mod_p_table[5][1] == 1
    assert res.mod_p_table[7][1] == 1


def test_bs23_delta():
    res = alexander_polynomial(BS23, {"x": 1, "y": 0})
    assert res.delta == L([-3, 2])


def test_trefoil_delta_both_columns():
    chi = {"u": 1, "v": 1}
    a = alexander_polynomial(trefoil(), chi, delete_column="u")
    b = alexander_polynomial(trefoil(), chi, delete_column="v")
    assert a.delta == b.delta == L([1, -1, 1])


def test_figure_eight_delta():
    pres = presentation(TwoBridgeParams(5, 3))
    res = alexander_polynomial(pres, {"u": 1, "v": 1})
    assert res.delta == L([1, -3, 1])


def test_eleven_nine_delta():
    pres = presentation(TwoBridgeParams(11, 9))
    res = alexander_polynomial(pres, {"u": 1, "v": 1})
    assert res.delta == L([3, -5, 3])


def test_family_delta_formula():
    for n in range(1, 7):
        res = alexander_polynomial(family_presentation(n), {"u": 1, "a": 0})
        assert res.delta == L([n, -(2 * n - 1), n]), n


def test_nocover_delta_is_one():
    res = alexander_polynomial(NOCOVER, {"t": 1, "a": 0})
    assert res.delta == LaurentPoly.constant(1)
    for p in (2, 3, 5, 7):
        assert res.mod_p_table[p][1] == 0


def test_baumslag_b_delta_is_one():
    res = alexander_polynomial(BAUMSLAG_B, {"x": 1, "y": 0})
    assert res.delta == LaurentPoly.constant(1)


def test_no_unit_weight_generator():
    with pytest.raises(NoUnitWeightGenerator):
        alexander_polynomial(TORUS23, {"x": 3, "y": 2})


def test_too_many_relators():
    pres = parse_presentation("<x, y | x y x^-1 y^-1, x^2 y^-2>")
    with pytest.raises(NotDeficiencyOne):
        alexander_polynomial(pres, {"x": 1, "y": 0})


def test_fewer_relators_gives_zero():
    pres = Presentation.make(("x", "y"), [])
    res = alexander_polynomial(pres, {"x": 1, "y": 0})
    assert res.delta.is_zero()
    assert all(d is INFINITE for _, d in res.mod_p_table.values())


def test_mod_p_table_standalone():
    table = mod_p_table(L([-2, 1]), primes=(2, 5))
    assert set(table) == {2, 5}
    assert table[2][1] == 0 and table[5][1] == 1


def test_custom_primes_threaded_through():
    res = alexander_polynomial(DYADIC, {"t": 1, "a": 0}, primes=(11, 13))
    assert set(res.mod_p_table) == {11, 13}


# -- symmetry and normalization on the two-bridge corpus ----------------


def test_two_bridge_delta_symmetric_and_unit_at_one():
    # the alternating-word construction is a knot presentation for odd q
    # only; even q still gives a weighted group with delta(1) = +-1
    for p, q in two_bridge_pairs(15):
        pres = presentation(TwoBridgeParams(p, q))
        delta = alexander_polynomial(pres, {"u": 1, "v": 1}).delta
        assert delta.evaluate(1) in (1, -1), (p, q)
        if q % 2 == 1:
            assert delta.reciprocal().normalize() == delta, (p, q)


def test_weight_zero_form_matches_raw_delta():
    # the Tietze rewrite must not move the polynomial
    for p, q in [(3, 1), (5, 3), (7, 3), (11, 9), (13, 5)]:
        raw = alexander_polynomial(
            presentation(TwoBridgeParams(p, q)), {"u": 1, "v": 1}
        ).delta
        pres, chi = weight_zero_form(p, q)
        assert alexander_polynomial(pres, chi).delta == raw, (p, q)
