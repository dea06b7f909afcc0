"""Kernel structure criteria driven by the canonical polynomial."""

import random
import time

import pytest

from corpus import (
    BAUMSLAG_B,
    BS23,
    DYADIC,
    NOCOVER,
    TORUS23,
    figure_eight,
    knotlike_corpus,
    prime_product_exponents,
    prime_product_text,
    trefoil,
    two_bridge_pairs,
)
from oracles import (
    NotAKnotPolynomial,
    NotSymmetric,
    brown_by_letters,
    index2_criterion,
    letters,
)
from cycover import _intfactor
from cycover.alexander import alexander_polynomial
from cycover.criteria import (
    FG,
    INAPPLICABLE,
    NOT_FG,
    ONE_SIDED,
    NotOneRelator,
    analyze,
    brown_finite_generation,
    classify_prime,
    count_prime_index,
    kervaire_check,
    surjects_to_Z,
)
from cycover.laurent import (
    INFINITE,
    LaurentPoly,
    NotPrime,
    exact_div,
    factor_over_Z,
)
from cycover.twobridge import TwoBridgeParams, presentation
from cycover.words import FreeWord, Presentation, parse_presentation

L = LaurentPoly.from_coeffs
TREFOIL_DELTA = L([1, -1, 1])
FIG8_DELTA = L([1, -3, 1])
DOUBLING_DELTA = L([-2, 1])
UV = {"u": 1, "v": 1}


# -- counting prime-index subgroups -------------------------------------


def test_count_doubling():
    assert count_prime_index(DOUBLING_DELTA, 2) == (1, 0)
    assert count_prime_index(DOUBLING_DELTA, 3) == (3, 1)
    assert count_prime_index(DOUBLING_DELTA, 5) == (5, 1)


def test_count_trefoil():
    assert count_prime_index(TREFOIL_DELTA, 2) == (4, 3)
    assert count_prime_index(TREFOIL_DELTA, 3) == (9, 4)
    assert count_prime_index(TREFOIL_DELTA, 5) == (25, 6)


def test_count_drops_when_reduction_collapses():
    # 3t^2 - 5t + 3 becomes the unit t mod 3
    assert count_prime_index(L([3, -5, 3]), 3) == (1, 0)
    assert count_prime_index(L([3, -5, 3]), 2) == (4, 3)


def test_count_infinite_on_vanishing_reduction():
    assert count_prime_index(LaurentPoly.zero(), 2) is INFINITE
    assert count_prime_index(L([-2, 2]), 2) is INFINITE
    assert count_prime_index(L([-2, 2]), 3) == (3, 1)


def test_count_rejects_composite_modulus():
    for bad in (1, 4, 6):
        with pytest.raises(NotPrime):
            count_prime_index(DOUBLING_DELTA, bad)


def test_classify():
    assert classify_prime(L([1]), 2).kind == "none"
    assert classify_prime(L([1]), 5).kind == "none"
    assert classify_prime(DOUBLING_DELTA, 2).kind == "none"
    assert classify_prime(DOUBLING_DELTA, 3) .count == 1
    assert classify_prime(TREFOIL_DELTA, 2).count == 3
    assert classify_prime(TREFOIL_DELTA, 3).count == 4
    assert classify_prime(LaurentPoly.zero(), 2).kind == "infinite"
    assert classify_prime(L([-2, 2]), 2).kind == "infinite"


# -- index-2 detection --------------------------------------------------

SYM_FALSE = [
    LaurentPoly({0: 1}),
    LaurentPoly({1: 2, -1: 2, 0: -3}),
    LaurentPoly({1: 4, -1: 4, 0: -7}),
]
SYM_TRUE = [
    LaurentPoly({1: 1, -1: 1, 0: -1}),
    LaurentPoly({2: 1, -2: 1, 1: -1, -1: -1, 0: 1}),
]


def test_index2_answers():
    for f in SYM_FALSE:
        assert index2_criterion(f) is False, str(f)
    for f in SYM_TRUE:
        assert index2_criterion(f) is True, str(f)


def test_index2_matches_mod2_span():
    for f in SYM_FALSE + SYM_TRUE:
        r, n = count_prime_index(f, 2)
        assert index2_criterion(f) == (n > 0), str(f)


def test_index2_accepts_normalized_representatives():
    assert index2_criterion(TREFOIL_DELTA) is True
    assert index2_criterion(FIG8_DELTA) is True


def test_index2_requires_unit_at_one():
    with pytest.raises(NotAKnotPolynomial):
        index2_criterion(L([1, 1]))  # evaluates to 2


def test_index2_requires_symmetry():
    with pytest.raises(NotSymmetric):
        index2_criterion(DOUBLING_DELTA)
    with pytest.raises(NotSymmetric):
        index2_criterion(L([-1, -1, 1]))


# -- surjections onto Z -------------------------------------------------


def test_surjection_blocked():
    v = surjects_to_Z(DOUBLING_DELTA)
    assert v.answer is False and v.witness is None and v.free_rank is False
    assert surjects_to_Z(L([-3, 2])).answer is False


def test_surjection_via_own_polynomial():
    for f in (TREFOIL_DELTA, FIG8_DELTA):
        v = surjects_to_Z(f)
        assert v.answer is True
        assert v.witness == f


def test_surjection_witness_buried_in_product():
    f = L([2, -7, 9, -7, 2])  # (2t - 1)(t - 2)(t^2 - t + 1)
    v = surjects_to_Z(f)
    assert v.answer is True
    assert v.witness == TREFOIL_DELTA


def test_surjection_zero_polynomial():
    v = surjects_to_Z(LaurentPoly.zero())
    assert v.answer is True and v.free_rank is True and v.witness is None


def test_surjection_witness_properties():
    for f in (TREFOIL_DELTA, L([2, -7, 9, -7, 2]), L([-1, 0, 0, 1])):
        v = surjects_to_Z(f)
        assert v.witness.is_monic_both_ends()
        assert v.witness.degree_span() >= 1
        assert exact_div(f, v.witness) is not None


def test_surjection_invariant_under_units_and_flip():
    for f in (DOUBLING_DELTA, TREFOIL_DELTA, L([-3, 2]), L([2, -7, 9, -7, 2])):
        base = surjects_to_Z(f).answer
        assert surjects_to_Z(-f).answer == base
        assert surjects_to_Z(f * LaurentPoly({3: 1})).answer == base
        assert surjects_to_Z(LaurentPoly({-e: c for e, c in f.coeffs.items()})).answer == base


def test_surjection_respects_products():
    yes, no1, no2 = TREFOIL_DELTA, DOUBLING_DELTA, L([-3, 2])
    assert surjects_to_Z(yes * no1).answer is True
    assert surjects_to_Z(no1 * no2).answer is False


# -- largeness ----------------------------------------------------------


# delta = 2t - 2, which vanishes mod 2 but not mod 3 or 5
COMMUTING_SQUARES = parse_presentation("<t, a | t a^2 t^-1 a^-2>")


def test_largeness():
    chi = {"t": 1, "a": 0}
    # a zero delta is large whatever the primes, even with none listed
    free = analyze(Presentation.make(("t", "a"), []), chi, primes=())
    assert not free.delta and free.large_flag is True
    assert analyze(DYADIC, chi, primes=()).large_flag is False
    assert analyze(DYADIC, chi, primes=(2,)).large_flag is False
    assert analyze(COMMUTING_SQUARES, chi).delta == L([-2, 2])
    assert analyze(COMMUTING_SQUARES, chi).large_flag is True
    # only the listed primes count
    assert analyze(COMMUTING_SQUARES, chi, primes=(3, 5)).large_flag is False
    # delta = 3t - 3 vanishes mod 3 only
    cubes = parse_presentation("<t, a | t a^3 t^-1 a^-3>")
    assert analyze(cubes, chi, primes=(3,)).large_flag is True
    assert analyze(cubes, chi, primes=(2,)).large_flag is False


# -- finite generation of the kernel ------------------------------------


def test_brown_not_fg_on_ascending_hnn():
    assert brown_finite_generation(DYADIC, {"t": 1, "a": 0}) == NOT_FG
    assert brown_finite_generation(BS23, {"x": 1, "y": 0}) == NOT_FG


def test_brown_fg_on_fibered_examples():
    assert brown_finite_generation(trefoil(), UV) == FG
    assert brown_finite_generation(figure_eight(), UV) == FG


def test_brown_one_sided():
    assert brown_finite_generation(presentation(TwoBridgeParams(5, 2)), UV) == ONE_SIDED


def test_brown_not_fg_on_flat_extremes():
    assert brown_finite_generation(NOCOVER, {"t": 1, "a": 0}) == NOT_FG
    assert brown_finite_generation(BAUMSLAG_B, {"x": 1, "y": 0}) == NOT_FG


def test_brown_requires_one_relator():
    pres = parse_presentation("<x, y | x y x^-1 y^-1, x^2>")
    with pytest.raises(NotOneRelator):
        brown_finite_generation(pres, {"x": 1, "y": 0})


def test_brown_inapplicable():
    pres = parse_presentation("<x, y, z | x y z x^-1 z^-1>")
    assert brown_finite_generation(pres, {"x": 1, "y": 0, "z": 0}) == INAPPLICABLE
    empty = Presentation.make(("x", "y"), [FreeWord()])
    assert brown_finite_generation(empty, {"x": 1, "y": 0}) == INAPPLICABLE


def test_brown_syllable_walk_matches_letter_walk():
    cases = [(pres, chi) for _, pres, chi in knotlike_corpus()]
    rng = random.Random(11)
    for _ in range(200):
        # weights up to 3 in size, flat and sloped syllables, long exponents
        wx, wy = rng.choice([(1, 0), (0, 1), (2, 1), (3, -2), (1, 1)])
        syl = [(rng.choice("xy"), rng.choice((1, -1)) * rng.randint(1, 12)) for _ in range(rng.randint(1, 6))]
        text = " ".join(f"{g}^{e}" for g, e in syl)
        cases.append((parse_presentation(f"<x, y | {text}>"), {"x": wx, "y": wy}))
    for pres, chi in cases:
        if len(pres.relators) != 1 or len(pres.generators) != 2:
            continue
        want = brown_by_letters(letters(pres.relators[0]), chi)
        assert brown_finite_generation(pres, chi) == want, pres.to_text()


def test_brown_cost_does_not_grow_with_exponents():
    huge = parse_presentation("<t, a | t a^10000000 t^-1 a^-10000001>")
    small = parse_presentation("<t, a | t a^10 t^-1 a^-11>")
    chi = {"t": 1, "a": 0}
    assert brown_by_letters(letters(small.relators[0]), chi) == NOT_FG
    t0 = time.perf_counter()
    assert brown_finite_generation(huge, chi) == NOT_FG
    # one long sloped syllable: heights 0, 1, ..., 10^7 - 1, then 10^7
    sloped = parse_presentation("<x, y | x^10000000 y^-1>")
    assert brown_finite_generation(sloped, {"x": 1, "y": 10**7}) == FG
    assert time.perf_counter() - t0 < 0.1


def test_fg_kernel_forces_unit_end_coefficients():
    fg_seen = 0
    for p, q in two_bridge_pairs():
        pres = presentation(TwoBridgeParams(p, q))
        delta = alexander_polynomial(pres, UV).delta
        if brown_finite_generation(pres, UV) == FG:
            fg_seen += 1
            assert delta.is_monic_both_ends(), (p, q)
    assert fg_seen >= 2  # at least the torus and figure-eight forms


# -- knot-group necessary conditions ------------------------------------


def test_kervaire_positive_cases():
    for pres, wit in [(NOCOVER, "t"), (DYADIC, "t"), (BAUMSLAG_B, "x"), (BS23, "x")]:
        rep = kervaire_check(pres)
        assert rep.h1_is_Z and rep.deficiency_one and rep.h2_zero_inferred
        assert rep.weight_one_witness == wit


def test_kervaire_trefoil():
    rep = kervaire_check(trefoil())
    assert rep.h1_is_Z and rep.deficiency_one
    assert rep.weight_one_witness == "u"


def test_kervaire_h1_too_big():
    rep = kervaire_check(parse_presentation("<x, y | x y x^-1 y^-1>"))
    assert not rep.h1_is_Z
    assert rep.deficiency_one
    assert rep.weight_one_witness is None
    assert not rep.h2_zero_inferred


def test_kervaire_no_witness_without_unit_sum():
    rep = kervaire_check(TORUS23)
    assert rep.h1_is_Z
    assert rep.weight_one_witness is None


def test_kervaire_free_group():
    rep = kervaire_check(Presentation.make(("x", "y"), []))
    assert not rep.h1_is_Z
    assert not rep.deficiency_one
    assert rep.weight_one_witness is None


# -- the combined report ------------------------------------------------


def test_analyze_doubling_kernel():
    rep = analyze(DYADIC, {"t": 1, "a": 0})
    assert rep.delta == DOUBLING_DELTA
    assert rep.beta1_Q == 1
    by_p = {r.p: r for r in rep.primes}
    assert set(by_p) == {2, 3, 5, 7}
    assert (by_p[2].r, by_p[2].n) == (1, 0)
    assert by_p[2].classification.kind == "none"
    assert (by_p[3].r, by_p[3].n) == (3, 1)
    assert by_p[3].classification.count == 1
    assert (by_p[5].r, by_p[5].n) == (5, 1)
    assert rep.index2 is False
    assert rep.surjects.answer is False
    assert rep.large_flag is False
    assert rep.kernel_fg == NOT_FG
    assert rep.kervaire.weight_one_witness == "t"


def test_analyze_no_proper_covers():
    rep = analyze(NOCOVER, {"t": 1, "a": 0})
    assert rep.delta == L([1])
    assert rep.beta1_Q == 0
    for r in rep.primes:
        assert r.classification.kind == "none"
        assert (r.r, r.n) == (1, 0)
    assert rep.index2 is False
    assert rep.surjects.answer is False
    assert rep.kernel_fg == NOT_FG
    k = rep.kervaire
    assert k.h1_is_Z and k.deficiency_one and k.h2_zero_inferred
    assert k.weight_one_witness == "t"


def test_analyze_trefoil():
    rep = analyze(trefoil(), UV)
    assert rep.delta == TREFOIL_DELTA
    by_p = {r.p: r for r in rep.primes}
    assert (by_p[2].r, by_p[2].n) == (4, 3)
    assert (by_p[3].r, by_p[3].n) == (9, 4)
    assert rep.index2 is True
    assert rep.surjects.answer is True
    assert rep.kernel_fg == FG


def test_analyze_free_rank():
    rep = analyze(Presentation.make(("t", "a"), []), {"t": 1, "a": 0})
    assert not rep.delta
    assert rep.beta1_Q is INFINITE
    assert rep.large_flag is True
    assert rep.surjects.answer is True and rep.surjects.free_rank is True
    assert rep.index2 is True
    for r in rep.primes:
        assert r.d is INFINITE and r.r is None and r.n is None
        assert r.classification.kind == "infinite"


def test_analyze_finds_a_good_prime_past_every_small_one(monkeypatch):
    # delta = (A t - C)(B t - D), and every prime below 20,000 divides A B C D.
    a, b, c, d = prime_product_exponents()
    chosen = []
    real_choose = _intfactor._choose_prime

    def spy(f, *rest):
        out = real_choose(f, *rest)
        chosen.append(out[0])
        return out

    monkeypatch.setattr(_intfactor, "_choose_prime", spy)
    rep = analyze(parse_presentation(prime_product_text()), {"t": 1, "a": 0, "b": 0})
    assert rep.delta == L([c * d, -(a * d + b * c), a * b])
    assert rep.surjects.answer is False  # neither factor is monic at both ends
    fac = factor_over_Z(rep.delta)
    assert [(g.dense(), m) for g, m in fac.factors] == sorted([([-c, a], 1), ([-d, b], 1)])
    assert chosen and all(p > 20000 for p in chosen)


def test_analyze_reduces_delta_once_per_prime(monkeypatch):
    calls = []
    reduce_mod = LaurentPoly.reduce_mod

    def counting_reduce_mod(self, p):
        calls.append(p)
        return reduce_mod(self, p)

    monkeypatch.setattr(LaurentPoly, "reduce_mod", counting_reduce_mod)
    chi = {"t": 1, "a": 0}
    for primes, expected in (((2, 3, 5, 7), [2, 3, 5, 7]), ((3,), [3, 2]), ((3, 3), [3, 2])):
        calls.clear()
        analyze(DYADIC, chi, primes=primes)
        # one reduction per distinct listed prime, and one at 2 for index2
        assert calls == expected, primes


def test_analyze_custom_primes():
    rep = analyze(DYADIC, {"t": 1, "a": 0}, primes=(7,))
    assert [r.p for r in rep.primes] == [7]
    assert (rep.primes[0].r, rep.primes[0].n) == (7, 1)


def test_analyze_index2_equals_positive_n2():
    from corpus import knotlike_corpus

    for name, pres, chi in knotlike_corpus():
        if len(pres.relators) > len(pres.generators) - 1:
            continue
        if not any(abs(chi[g]) == 1 for g in pres.generators):
            continue
        rep = analyze(pres, chi)
        rec2 = next(r for r in rep.primes if r.p == 2)
        if rec2.n is not None:
            assert rep.index2 == (rec2.n > 0), name


def test_knotlike_deltas_never_classify_infinite():
    # a knot polynomial has unit value at 1, so no prime kills it
    for p, q in two_bridge_pairs(11):
        delta = alexander_polynomial(presentation(TwoBridgeParams(p, q)), UV).delta
        for prime in (2, 3, 5, 7):
            assert classify_prime(delta, prime).kind != "infinite", (p, q)
