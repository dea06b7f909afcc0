"""Integer recurrences: biinfinite solvability, witnesses, propagation."""

from fractions import Fraction

import pytest

from cycover.laurent import LaurentPoly, ZeroPolynomial, exact_div
from cycover.recurrence import (
    AuxPolynomial,
    Direction,
    InvalidRecurrence,
    NoWitness,
    SequenceWindow,
    WindowTooShort,
    apply_shift_factor,
    has_integer_biinfinite,
    minimal_recurrence,
    propagate,
    witness_sequence,
)

FIB = AuxPolynomial((-1, -1, 1))  # t^2 - t - 1
DOUBLING = AuxPolynomial((-2, 1))  # t - 2
SPLIT = AuxPolynomial((2, -3, 1))  # (t - 1)(t - 2)
HALVING_PAIR = AuxPolynomial((2, -5, 2))  # (2t - 1)(t - 2)


def L(*asc):
    return LaurentPoly.from_coeffs(asc)


# -- auxiliary polynomial -----------------------------------------------


def test_aux_validation():
    with pytest.raises(InvalidRecurrence):
        AuxPolynomial(())
    with pytest.raises(InvalidRecurrence):
        AuxPolynomial((5,))
    with pytest.raises(InvalidRecurrence):
        AuxPolynomial((0, 1))
    with pytest.raises(InvalidRecurrence):
        AuxPolynomial((1, 2, 0))


def test_aux_from_desc_reverses():
    assert AuxPolynomial.from_desc((1, -3, 2)).ascending == (2, -3, 1)
    assert AuxPolynomial.from_desc((1, -3, 2)).degree == 2


def test_aux_primitive():
    assert AuxPolynomial((-2, -4, -2)).primitive() == AuxPolynomial((1, 2, 1))
    assert AuxPolynomial((6, -9, 3)).primitive() == AuxPolynomial((2, -3, 1))
    assert FIB.primitive() == FIB


def test_aux_immutable_and_hashable():
    with pytest.raises(AttributeError):
        FIB.ascending = (1, 1)
    assert len({FIB, AuxPolynomial((-1, -1, 1)), DOUBLING}) == 2


def test_aux_to_laurent():
    assert SPLIT.to_laurent() == L(2, -3, 1)


# -- sequence windows ---------------------------------------------------


def test_window_basics():
    w = SequenceWindow(base=-2, values=(3, 1, 4, 1, 5))
    assert w.hi == 2
    # the stencil t^-2 reads x_-2 = 3 into y_0 and x_2 = 5 into y_4
    assert apply_shift_factor(LaurentPoly({-2: 1}), w) == SequenceWindow(0, (3, 1, 4, 1, 5))
    with pytest.raises(ValueError):
        SequenceWindow(0, ())


# -- solvability decision -----------------------------------------------


def test_no_biinfinite_for_pure_doubling():
    ok, factor = has_integer_biinfinite(DOUBLING)
    assert not ok and factor is None


def test_fibonacci_is_its_own_witness():
    ok, factor = has_integer_biinfinite(FIB)
    assert ok
    assert factor == L(-1, -1, 1)


def test_no_biinfinite_when_no_unit_end_factor():
    # (2t - 1)(t - 2): neither factor has unit coefficients at both ends
    ok, factor = has_integer_biinfinite(HALVING_PAIR)
    assert not ok and factor is None


def test_witness_factor_is_smallest_canonical():
    ok, factor = has_integer_biinfinite(SPLIT)
    assert ok
    assert factor == L(-1, 1)  # t - 1, not t - 2
    ok, factor = has_integer_biinfinite(AuxPolynomial((-1, 0, 1)))  # t^2 - 1
    assert ok
    assert factor == L(-1, 1)


def test_content_does_not_block_witness():
    ok, factor = has_integer_biinfinite(AuxPolynomial((-3, 3)))
    assert ok
    assert factor == L(-1, 1)


# -- witness windows ----------------------------------------------------


def test_fibonacci_witness_window():
    w = witness_sequence(FIB, -5, 5)
    assert w.base == -5
    assert w.values == (5, -3, 2, -1, 1, 0, 1, 1, 2, 3, 5)


def test_golden_like_witness_window():
    w = witness_sequence(AuxPolynomial((1, -3, 1)), 0, 4)
    assert w.values == (0, 1, 3, 8, 21)


def test_split_witness_rides_unit_factor():
    w = witness_sequence(SPLIT, -3, 3)
    assert w.values == (1,) * 7


def test_witness_window_inside_zero_padding_is_reaimed():
    w = witness_sequence(FIB, 0, 0)
    assert w.values == (1,)


def test_witness_contract():
    for f, lo, hi in [
        (FIB, -8, 8),
        (SPLIT, -4, 6),
        (AuxPolynomial((1, -3, 1)), -6, 6),
        (AuxPolynomial((-1, 0, 0, 1)), -5, 5),  # t^3 - 1
    ]:
        w = witness_sequence(f, lo, hi)
        assert w.base == lo and w.hi == hi
        assert all(Fraction(v).denominator == 1 for v in w.values)
        assert any(w.values)
        residue = apply_shift_factor(f.to_laurent(), w)
        assert not any(residue.values)


def test_no_witness_raises():
    with pytest.raises(NoWitness):
        witness_sequence(DOUBLING, -3, 3)
    with pytest.raises(NoWitness):
        witness_sequence(HALVING_PAIR, 0, 5)


def test_witness_bad_range():
    with pytest.raises(ValueError):
        witness_sequence(FIB, 2, 1)


# -- exact propagation --------------------------------------------------


def test_backward_halving_leaves_integers():
    r = propagate(DOUBLING, [1], Direction.BACKWARD, 3)
    assert r.values == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
    assert r.integral == (False, False, False)
    assert r.first_nonintegral == 1


def test_forward_doubling_stays_integral():
    r = propagate(DOUBLING, [1], Direction.FORWARD, 3)
    assert r.values == (2, 4, 8)
    assert r.first_nonintegral is None


def test_forward_geometric_with_nonunit_lead():
    # leading coefficient 2 happens to divide every step from this seed
    r = propagate(HALVING_PAIR, (1, 2), Direction.FORWARD, 4)
    assert r.values == (4, 8, 16, 32)
    assert r.integral == (True, True, True, True)


def test_backward_step_from_same_seed_fails_integrality():
    r = propagate(HALVING_PAIR, (1, 2), Direction.BACKWARD, 1)
    assert r.values == (Fraction(1, 2),)
    assert r.first_nonintegral == 1


def test_first_nonintegral_is_one_based_and_sticky_free():
    # 3 x_{n+1} = x_n from seed 9: 3, 1, 1/3
    r = propagate(AuxPolynomial((-1, 3)), [9], Direction.FORWARD, 3)
    assert r.values == (3, 1, Fraction(1, 3))
    assert r.integral == (True, True, False)
    assert r.first_nonintegral == 3


def test_propagate_validation():
    with pytest.raises(ValueError):
        propagate(FIB, [1], Direction.FORWARD, 3)  # seed length != degree
    with pytest.raises(ValueError):
        propagate(FIB, [1, 1], Direction.FORWARD, 0)


# -- stencil application ------------------------------------------------


def test_stencil_annihilates_solutions():
    w = SequenceWindow(0, (1, 2, 4, 8))
    out = apply_shift_factor(L(-2, 1), w)
    assert out.base == 0
    assert out.values == (0, 0, 0)


def test_stencil_measures_defect():
    w = SequenceWindow(0, (2, 3, 5, 9))  # 2^n + 1
    out = apply_shift_factor(L(-2, 1), w)
    assert out.values == (-1, -1, -1)


def test_unit_stencil_is_identity():
    w = SequenceWindow(-1, (7, -2, 5))
    out = apply_shift_factor(L(1), w)
    assert out == w


def test_negative_exponent_stencil_shifts_base():
    w = SequenceWindow(0, (10, 20, 30))
    out = apply_shift_factor(LaurentPoly({-1: 1}), w)
    assert out.base == 1
    assert out.values == (10, 20, 30)


def test_factor_chain_maps_between_solution_spaces():
    # x_n = 2^n + 1 solves (t-1)(t-2); applying t-1 yields 2^n,
    # a solution of t-2
    w = SequenceWindow(0, tuple(2**n + 1 for n in range(6)))
    stepped = apply_shift_factor(L(-1, 1), w)
    assert stepped.values == (1, 2, 4, 8, 16)
    assert not any(apply_shift_factor(L(-2, 1), stepped).values)


def test_stencil_window_too_short():
    with pytest.raises(WindowTooShort):
        apply_shift_factor(L(1, 0, 1), SequenceWindow(0, (1, 2)))


def test_zero_stencil_rejected():
    with pytest.raises(ZeroPolynomial):
        apply_shift_factor(LaurentPoly.zero(), SequenceWindow(0, (1,)))


# -- minimal recurrence recovery ----------------------------------------


def test_recover_doubling():
    w = SequenceWindow(0, (1, 2, 4, 8, 16, 32, 64))
    assert minimal_recurrence(w, 2) == AuxPolynomial((-2, 1))


def test_recover_arithmetic_progression():
    w = SequenceWindow(0, (0, 1, 2, 3, 4))
    assert minimal_recurrence(w, 2) == AuxPolynomial((1, -2, 1))


def test_fibonacci_needs_degree_two():
    w = SequenceWindow(0, (1, 1, 2))
    assert minimal_recurrence(w, 1) is None


def test_recover_fibonacci():
    w = witness_sequence(FIB, -4, 4)
    assert minimal_recurrence(w, 2) == FIB.primitive()


def test_alternating_sign_recovery():
    w = SequenceWindow(0, (1, -2, 4, -8, 16))
    assert minimal_recurrence(w, 2) == AuxPolynomial((2, 1))


def test_rational_window_recovery():
    w = SequenceWindow(0, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)))
    assert minimal_recurrence(w, 1) == AuxPolynomial((-1, 2))


def test_all_zero_window_gives_none():
    assert minimal_recurrence(SequenceWindow(0, (0,) * 9), 4) is None


def test_minimal_recurrence_window_too_short():
    with pytest.raises(WindowTooShort):
        minimal_recurrence(SequenceWindow(0, (1, 2, 4, 8)), 2)
    with pytest.raises(ValueError):
        minimal_recurrence(SequenceWindow(0, (1, 2, 4)), 0)


def test_recovered_recurrence_divides_original():
    for f in (FIB, SPLIT, AuxPolynomial((1, -3, 1)), AuxPolynomial((-1, 0, 0, 1))):
        w = witness_sequence(f, -6, 6)
        found = minimal_recurrence(w, f.degree)
        assert found is not None
        assert exact_div(f.to_laurent(), found.to_laurent()) is not None
