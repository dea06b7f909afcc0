"""Acceptance gate: the contracted behaviors, at their stated tolerances.

Each test pins one end-to-end guarantee.  Oracle-backed criteria compare
the library against the independent implementations in oracles.py.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

import sympy
from sympy.abc import x as _x

from corpus import DYADIC, NOCOVER, two_bridge_pairs, weight_zero_form
from cycover.alexander import alexander_polynomial
from cycover.criteria import (
    FG,
    NOT_FG,
    brown_finite_generation,
    classify_prime,
    count_prime_index,
    kervaire_check,
    surjects_to_Z,
)
from cycover.laurent import LaurentPoly, factor_over_Z
from cycover.recurrence import AuxPolynomial, has_integer_biinfinite, witness_sequence
from cycover.repshift import STATE_CAP, FiniteGroup, build_sft, census, enumerate_periodic
from cycover.rscover import abelianized_recurrence, reidemeister_schreier
from cycover.twobridge import (
    TwoBridgeParams,
    epsilon_sequence,
    family_presentation,
    presentation,
)
from oracles import (
    index2_criterion,
    perron_entropy,
    propagation_box_verdict,
    state_digits,
    window_rank_count,
)

L = LaurentPoly.from_coeffs
UV = {"u": 1, "v": 1}
UA = {"u": 1, "a": 0}
TA = {"t": 1, "a": 0}


def test_criterion_01_doubling_kernel_report():
    delta = alexander_polynomial(DYADIC, TA).delta
    assert delta == L([-2, 1])
    assert count_prime_index(delta, 2) == (1, 0)
    cls3 = classify_prime(delta, 3)
    assert cls3.kind == "finite" and cls3.count == 1
    assert surjects_to_Z(delta).answer is False
    assert brown_finite_generation(DYADIC, TA) == NOT_FG


def test_criterion_02_trefoil_form():
    pres = presentation(TwoBridgeParams(3, 1))
    delta = alexander_polynomial(pres, UV).delta
    assert delta == L([1, -1, 1])
    assert count_prime_index(delta, 2) == (4, 3)
    assert count_prime_index(delta, 3) == (9, 4)
    assert surjects_to_Z(delta).answer is True
    assert brown_finite_generation(pres, UV) == FG


def test_criterion_03_figure_eight_form():
    pres = presentation(TwoBridgeParams(5, 3))
    delta = alexander_polynomial(pres, UV).delta
    assert delta == L([1, -3, 1])
    assert surjects_to_Z(delta).answer is True


def test_criterion_04_eleven_ninths_pipeline():
    params = TwoBridgeParams(11, 9)
    assert epsilon_sequence(params) == [1, -1, 1, -1, 1, 1, -1, 1, -1, 1]
    pres, chi = weight_zero_form(11, 9)
    delta = alexander_polynomial(pres, chi).delta
    assert delta == L([3, -5, 3])
    # the substituted form runs through the same kernel shift as the
    # closed-form family member
    sp = reidemeister_schreier(pres, chi)
    fam = reidemeister_schreier(family_presentation(3), UA)
    assert fam.template_texts() == ["a[i+1]^3 a[i+2]^-3 a[i+1]^2 a[i]^-3"]
    assert sp.template_texts() == fam.template_texts()
    # second route: the abelianized recurrence row gives the same polynomial
    (row,) = abelianized_recurrence(sp)
    assert row.polynomial().normalize() == delta


def test_criterion_05_family3_census_over_s3():
    sp = reidemeister_schreier(family_presentation(3), UA)
    s3 = FiniteGroup.symmetric(3)
    graph = build_sft(sp, s3)
    by_label = {lab: i for i, lab in enumerate(s3.labels)}
    tr = by_label["(12)"]
    succ = {
        s3.labels[state_digits(graph, t)[-1]]
        for t in graph.successors[tr * 6 + tr]
    }
    assert succ == {"id", "(123)", "(132)"}
    orbit = ("(12)", "(12)", "(123)", "(23)", "(23)", "(123)", "(13)", "(13)", "(123)")
    assert orbit in enumerate_periodic(graph, 9)
    c = census(graph, tol=1e-6)
    assert c.classification == "PositiveEntropy"
    assert c.entropy > 0.01
    assert abs(c.entropy - perron_entropy(graph)) < 1e-5


def test_criterion_06_no_proper_covers():
    delta = alexander_polynomial(NOCOVER, TA).delta
    assert delta == L([1])
    rep = kervaire_check(NOCOVER)
    assert rep.h1_is_Z and rep.deficiency_one and rep.h2_zero_inferred
    assert rep.weight_one_witness == "t"
    sp = reidemeister_schreier(NOCOVER, TA)
    assert sp.template_texts() == [
        "a[i+1]^-2 a[i]^-1 a[i+1]^-1 a[i] a[i+1] a[i]^-1 a[i+1] a[i]"
    ]
    for group in (
        FiniteGroup.cyclic(2),
        FiniteGroup.cyclic(3),
        FiniteGroup.cyclic(5),
        FiniteGroup.symmetric(3),
    ):
        c = census(build_sft(sp, group))
        assert c.classification == "OnlyTrivial", group.name
        assert c.count == 1


def test_criterion_07_two_bridge_census_matches_formula():
    for p, q in two_bridge_pairs(15):
        pres, chi = weight_zero_form(p, q)
        delta = alexander_polynomial(pres, chi).delta
        sp = reidemeister_schreier(pres, chi)
        (row,) = abelianized_recurrence(sp)
        for prime in (2, 3, 5):
            expected = prime ** delta.reduce_mod(prime).degree_span()
            if prime ** max(sp.width, 1) <= STATE_CAP:
                c = census(build_sft(sp, FiniteGroup.cyclic(prime)))
                assert c.classification in ("OnlyTrivial", "Finite"), (p, q, prime)
                assert c.count == expected, (p, q, prime)
            else:
                got = window_rank_count(row.coefficients, prime)
                assert got == expected, (p, q, prime)


def test_criterion_08_index2_detection():
    no = [
        LaurentPoly({0: 1}),
        LaurentPoly({1: 2, -1: 2, 0: -3}),
        LaurentPoly({1: 4, -1: 4, 0: -7}),
    ]
    yes = [
        LaurentPoly({1: 1, -1: 1, 0: -1}),
        LaurentPoly({2: 1, -2: 1, 1: -1, -1: -1, 0: 1}),
    ]
    for f in no:
        assert index2_criterion(f) is False, str(f)
    for f in yes:
        assert index2_criterion(f) is True, str(f)
    for f in no + yes:
        _, n2 = count_prime_index(f, 2)
        assert index2_criterion(f) == (n2 > 0), str(f)


def test_criterion_09_solvability_against_seed_propagation():
    polys = []
    for d in range(1, 4):
        for coeffs in product(range(-4, 5), repeat=d + 1):
            if coeffs[0] == 0 or coeffs[-1] <= 0:
                continue
            if math.gcd(*(abs(c) for c in coeffs)) != 1:
                continue
            polys.append(coeffs)
    assert len(polys) > 2000
    for asc in polys:
        f = AuxPolynomial(asc)
        verdict = has_integer_biinfinite(f)[0]
        assert verdict == propagation_box_verdict(asc, box=10, steps=40), asc
        if verdict:
            w = witness_sequence(f, -20, 20)
            assert w.base == -20 and w.hi == 20
            assert all(Fraction(v).denominator == 1 for v in w.values) and any(w.values)
            from cycover.recurrence import apply_shift_factor

            assert not any(apply_shift_factor(f.to_laurent(), w).values), asc


def test_criterion_10_factorization_round_trip():
    rng = random.Random(20260825)
    pool = []
    while len(pool) < 40:
        d = rng.randint(1, 6)
        coeffs = [rng.randint(-20, 20) for _ in range(d)] + [rng.randint(1, 20)]
        if coeffs[0] == 0:
            continue
        if math.gcd(*(abs(c) for c in coeffs)) != 1:
            continue
        if sympy.Poly(list(reversed(coeffs)), _x).is_irreducible:
            pool.append(LaurentPoly.from_coeffs(coeffs))
    start = time.monotonic()
    for trial in range(200):
        parts = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        f = L([1])
        expect = {}
        for g in parts:
            f = f * g
            expect[g] = expect.get(g, 0) + 1
        fac = factor_over_Z(f)
        assert dict(fac.factors) == expect, trial
        assert (fac.sign, fac.unit_exp, fac.content) == (1, 0, 1), trial
    assert time.monotonic() - start < 10.0


def test_criterion_11_fox_identity_on_corpus():
    from corpus import knotlike_corpus
    from cycover.alexander import fox_derivative_abelianized

    cases = [(name, pres, chi) for name, pres, chi in knotlike_corpus()]
    # add the rewritten two-bridge forms: these put a zero-weight
    # generator into play, which the plain corpus mostly lacks
    for p, q in two_bridge_pairs():
        pres, chi = weight_zero_form(p, q)
        cases.append((f"wz{p}_{q}", pres, chi))

    checked = 0
    for name, pres, chi in cases:
        for r in pres.relators:
            total = LaurentPoly.zero()
            for g in pres.generators:
                step = LaurentPoly({chi[g]: 1}) - LaurentPoly.constant(1)
                total = total + fox_derivative_abelianized(r, g, chi) * step
            assert not total, name
            checked += 1
    assert checked >= 50
