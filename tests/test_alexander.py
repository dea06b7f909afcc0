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
    artin_presentation,
    knotlike_corpus,
    trefoil,
    two_bridge_pairs,
    weight_zero_form,
    wirtinger_torus_text,
)
from cycover import alexander as alexander_mod, laurent
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
from oracles import (
    alexander_matrix_by_columns,
    burau_alexander,
    fox_derivative_by_column,
    leibniz_det,
)
from test_words import _deadline

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
    assert not fox_derivative_abelianized(w, "t", chi)


def test_fox_weight_zero_syllable_is_one_term():
    # a^e with chi(a) = 0 adds e at a single exponent, in one step
    chi = {"t": 1, "a": 0}
    w = W(("t", 1), ("a", 10**9), ("t", -1), ("a", -(10**9 + 1)))
    assert fox_derivative_abelianized(w, "a", chi) == L([-(10**9 + 1), 10**9])


def test_fox_of_identity_is_zero():
    assert not fox_derivative_abelianized(FreeWord(), "t", {"t": 1})


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
        rhs = fox_derivative_abelianized(u, g, chi) + LaurentPoly(
            {_phi_weight(u, chi): 1}
        ) * fox_derivative_abelianized(v, g, chi)
        assert lhs == rhs


def test_fox_fundamental_identity_on_corpus():
    for name, pres, chi in knotlike_corpus():
        for r in pres.relators:
            total = LaurentPoly.zero()
            for g in pres.generators:
                step = LaurentPoly({chi[g]: 1}) - LaurentPoly.constant(1)
                total = total + fox_derivative_abelianized(r, g, chi) * step
            assert not total, name


# -- presentation matrix ------------------------------------------------


def test_matrix_shape_and_entries():
    # one row per relator, one column per generator in declared order
    rows = alexander_matrix(DYADIC, {"t": 1, "a": 0})
    assert DYADIC.generators == ("t", "a")
    assert len(rows) == 1 and len(rows[0]) == 2
    assert not rows[0][0]
    assert rows[0][1] == L([-2, 1])


def test_matrix_without_column():
    # only the a column is left
    rows = alexander_matrix(DYADIC, {"t": 1, "a": 0}, "t")
    assert len(rows) == 1 and len(rows[0]) == 1
    assert rows[0][0] == L([-2, 1])


def _random_fox_cases(rng, count):
    """Presentations with weights 0, +-1 and +-3; a weight-0 syllable may
    carry an exponent up to 10^9, which is one Fox term."""
    for _ in range(count):
        gens = ["t", "a", "b", "c"][: rng.randint(1, 4)]
        chi = {g: rng.choice((0, 1, -1, 3, -3)) for g in gens}
        rels = []
        for _ in range(rng.randrange(4)):
            syllables = []
            for _ in range(rng.randrange(12)):
                g = rng.choice(gens)
                huge = chi[g] == 0 and rng.random() < 0.3
                e = rng.randint(-(10**9), 10**9) if huge else rng.choice((-3, -2, -1, 1, 2, 3))
                syllables.append((g, e))
            rels.append(FreeWord.make(syllables))
        yield Presentation.make(gens, rels), chi


def test_fox_rows_match_one_walk_per_column():
    cases = [(pres, chi) for _, pres, chi in knotlike_corpus()]
    cases += [weight_zero_form(p, q) for p, q in two_bridge_pairs(13)]
    cases += _random_fox_cases(random.Random(23), 600)
    for pres, chi in cases:
        for deleted in (None, *pres.generators):
            got = alexander_matrix(pres, chi, deleted)
            assert got == alexander_matrix_by_columns(pres, chi, deleted), (pres, chi, deleted)
        for r in pres.relators:
            for g in pres.generators:
                assert fox_derivative_abelianized(r, g, chi) == fox_derivative_by_column(r, g, chi)


def test_fox_matrix_of_a_large_wirtinger_presentation_takes_one_walk_per_relator():
    # T(2, 801) less one relator: 800 relators of four letters each, over 801
    # generators.  A walk per relator and column took 1.9 s.
    pres = parse_presentation(wirtinger_torus_text(801, 800))
    chi = dict.fromkeys(pres.generators, 1)
    with _deadline(5, "the Fox matrix of Wirtinger T(2, 801)"):
        rows = alexander_matrix(pres, chi, "x0")
    assert len(rows) == 800 and {len(row) for row in rows} == {800}
    assert rows[1][:2] == (L([-1, 1]), L([1]))  # x2 x1 x0^-1 x1^-1
    assert all(sum(map(bool, row)) <= 3 for row in rows)


def test_deleted_column_is_not_computed(monkeypatch):
    # The t column of t^N a t^-N a^-2 has 2N terms; the a column has three.
    # Each row's walk fills only the columns it is given, so the t syllables
    # are never expanded.
    pres = parse_presentation("<t, a | t^10000000 a t^-10000000 a^-2>")
    filled = []
    real = alexander_mod._fox_row
    monkeypatch.setattr(
        alexander_mod,
        "_fox_row",
        lambda w, chi, columns: filled.append(real(w, chi, columns)) or filled[-1],
    )
    res = alexander_polynomial(pres, {"t": 1, "a": 0})
    assert filled == [{"a": {10**7: 1, 0: -2}}]
    assert res.delta.coeffs == {10**7: 1, 0: -2}


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
        for g in pres.generators:
            rows = alexander_matrix(pres, chi, g)
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
            for g in gens:
                rows = alexander_matrix(pres, chi, g)
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
    table = mod_p_table(res.delta)
    assert list(table) == [2, 3, 5, 7]
    assert table[2] == (L([0, 1]), 0)  # t - 2 drops to the unit t mod 2
    assert table[3][1] == 1
    assert table[5][1] == 1
    assert table[7][1] == 1


def test_bs23_delta():
    res = alexander_polynomial(BS23, {"x": 1, "y": 0})
    assert res.delta == L([-3, 2])


def test_trefoil_delta_both_columns():
    chi = {"u": 1, "v": 1}
    pres = trefoil()
    a = _det(alexander_matrix(pres, chi, "u")).normalize()
    b = _det(alexander_matrix(pres, chi, "v")).normalize()
    assert a == b == alexander_polynomial(pres, chi).delta == L([1, -1, 1])


def test_figure_eight_delta():
    pres = presentation(TwoBridgeParams(5, 3))
    res = alexander_polynomial(pres, {"u": 1, "v": 1})
    assert res.delta == L([1, -3, 1])


def test_wirtinger_delta_takes_little_time_whichever_relator_is_dropped():
    # Any one Wirtinger relator follows from the others.  With relator 0
    # dropped, the echelon met pivots other than +-1 and rescaled every row
    # below them at each step: more than 110 s at T(2, 201), against 0.04 s
    # with the last relator dropped.
    expected = LaurentPoly({i: (-1) ** i for i in range(201)})
    for drop in (0, 100, 200):
        pres = parse_presentation(wirtinger_torus_text(201, drop=drop))
        chi = dict.fromkeys(pres.generators, 1)
        with _deadline(5, f"Delta of Wirtinger T(2, 201) less relator {drop}"):
            delta = alexander_polynomial(pres, chi).delta
        assert delta == expected, drop


def _less(pres, drop):
    return Presentation(pres.generators, pres.relators[:drop] + pres.relators[drop + 1 :])


def _torus_identity(delta, p, q):
    """Delta (t^p - 1)(t^q - 1) = (t^pq - 1)(t - 1) up to a unit."""
    def one_less(k):
        return LaurentPoly({k: 1, 0: -1})

    lhs = delta * one_less(p) * one_less(q)
    return lhs.normalize() == (one_less(p * q) * one_less(1)).normalize()


# (strands, braid word, (p, q) for the torus knot T(p, q) or None)
BRAIDS = {
    "T(2,3)": (2, [1] * 3, (2, 3)),
    "T(3,4)": (3, [1, 2] * 4, (3, 4)),
    "T(3,5)": (3, [1, 2] * 5, (3, 5)),
    "T(4,5)": (4, [1, 2, 3] * 5, (4, 5)),
    "figure-eight": (3, [1, -2] * 2, None),
    "T(3,61)": (3, [1, 2] * 61, (3, 61)),
}


@pytest.mark.parametrize("name", BRAIDS)
def test_closed_braid_delta_equals_its_burau_delta(name):
    n, word, torus = BRAIDS[name]
    pres = artin_presentation(n, word)
    chi = dict.fromkeys(pres.generators, 1)
    expected = burau_alexander(n, word)
    for drop in range(n):
        assert alexander_polynomial(_less(pres, drop), chi).delta == expected, (name, drop)
    if torus:
        assert _torus_identity(expected, *torus), name
    else:
        assert expected == L([1, -3, 1])


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
    table = mod_p_table(res.delta)
    for p in (2, 3, 5, 7):
        assert table[p][1] == 0


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
    assert not res.delta
    assert all(d is INFINITE for _, d in mod_p_table(res.delta).values())


def test_mod_p_table_standalone():
    table = mod_p_table(L([-2, 1]), primes=(2, 5))
    assert set(table) == {2, 5}
    assert table[2][1] == 0 and table[5][1] == 1


# -- symmetry and normalization on the two-bridge corpus ----------------


def test_two_bridge_delta_symmetric_and_unit_at_one():
    # the alternating-word construction is a knot presentation for odd q
    # only; even q still gives a weighted group with delta(1) = +-1
    for p, q in two_bridge_pairs(15):
        pres = presentation(TwoBridgeParams(p, q))
        delta = alexander_polynomial(pres, {"u": 1, "v": 1}).delta
        assert sum(delta.coeffs.values()) in (1, -1), (p, q)
        if q % 2 == 1:
            flipped = LaurentPoly({-e: c for e, c in delta.coeffs.items()})
            assert flipped.normalize() == delta, (p, q)


def test_weight_zero_form_matches_raw_delta():
    # the Tietze rewrite must not move the polynomial
    for p, q in [(3, 1), (5, 3), (7, 3), (11, 9), (13, 5)]:
        raw = alexander_polynomial(
            presentation(TwoBridgeParams(p, q)), {"u": 1, "v": 1}
        ).delta
        pres, chi = weight_zero_form(p, q)
        assert alexander_polynomial(pres, chi).delta == raw, (p, q)
