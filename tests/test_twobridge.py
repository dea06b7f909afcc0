"""Two-bridge presentations, sign sequences, and the one-parameter family."""

import pytest

from corpus import UA, two_bridge_pairs
from cycover.twobridge import (
    InvalidParams,
    TwoBridgeParams,
    epsilon_sequence,
    family_presentation,
    presentation,
)
from oracles import equal_up_to_cycling


def test_params_validation():
    with pytest.raises(InvalidParams):
        TwoBridgeParams(4, 1)  # even p
    with pytest.raises(InvalidParams):
        TwoBridgeParams(-3, 1)
    with pytest.raises(InvalidParams):
        TwoBridgeParams(5, 5)  # q out of range
    with pytest.raises(InvalidParams):
        TwoBridgeParams(9, 3)  # not coprime
    with pytest.raises(InvalidParams):
        TwoBridgeParams(5, 0)


def test_epsilon_trefoil():
    assert epsilon_sequence(TwoBridgeParams(3, 1)) == [1, 1]


def test_epsilon_figure_eight():
    assert epsilon_sequence(TwoBridgeParams(5, 3)) == [1, -1, -1, 1]


def test_epsilon_eleven_nine():
    got = epsilon_sequence(TwoBridgeParams(11, 9))
    assert got == [1, -1, 1, -1, 1, 1, -1, 1, -1, 1]


def test_epsilon_family_pattern():
    # (4n-1, 4n-3): strict alternation from e_1 = +1 up to e_{2n-1},
    # a repeat at e_{2n-1} = e_{2n} = +1, then strict alternation out
    # to e_{4n-2} = +1
    for n in range(1, 7):
        p, q = 4 * n - 1, 4 * n - 3
        e = epsilon_sequence(TwoBridgeParams(p, q))
        assert len(e) == p - 1
        m = 2 * n - 1
        assert e[0] == e[m - 1] == e[m] == e[-1] == 1
        for i in range(m - 1):
            assert e[i] == (-1) ** i
        for i in range(m, p - 1):
            assert e[i] == (-1) ** (i - m)


def test_epsilon_length_and_values():
    for p, q in two_bridge_pairs(15):
        e = epsilon_sequence(TwoBridgeParams(p, q))
        assert len(e) == p - 1
        assert set(e) <= {1, -1}


def test_trefoil_presentation_text():
    pres = presentation(TwoBridgeParams(3, 1))
    assert pres.to_text() == "<u,v | u v u v^-1 u^-1 v^-1>"


def test_relator_exponent_sums():
    for p, q in two_bridge_pairs(15):
        pres = presentation(TwoBridgeParams(p, q))
        (r,) = pres.relators
        assert r.exponent_sum("u") == 1, (p, q)
        assert r.exponent_sum("v") == -1, (p, q)
        assert pres.abelianization_invariants() == (1, ())


def test_canonical_weighting_is_all_ones():
    for p, q in [(3, 1), (5, 3), (11, 9)]:
        pres = presentation(TwoBridgeParams(p, q))
        assert pres.canonical_weighting() == {"u": 1, "v": 1}


def test_family_instantiation():
    assert family_presentation(3).to_text() == "<u,a | u a^3 u a^-3 u^-1 a^2 u^-1 a^-3>"
    assert family_presentation(2).to_text() == "<u,a | u a^2 u a^-2 u^-1 a u^-1 a^-2>"
    # the a^(n-1) syllable vanishes at n = 1
    assert family_presentation(1).to_text() == "<u,a | u a u a^-1 u^-2 a^-1>"


def test_family_rejects_nonpositive():
    with pytest.raises(InvalidParams):
        family_presentation(0)


def test_family_matches_substituted_two_bridge():
    # v := u a turns the (4n-1, 4n-3) presentation into the family form,
    # up to cyclic permutation and inversion of the relator
    for n in range(1, 7):
        p, q = 4 * n - 1, 4 * n - 3
        sub = presentation(TwoBridgeParams(p, q)).tietze_substitute("v", UA)
        fam = family_presentation(n)
        assert sub.generators == fam.generators
        (r1,), (r2,) = sub.relators, fam.relators
        assert equal_up_to_cycling(r1, r2) or equal_up_to_cycling(
            r1, r2.inverse()
        ), n


def test_substituted_trefoil_is_family_one():
    sub = presentation(TwoBridgeParams(3, 1)).tietze_substitute("v", UA)
    fam = family_presentation(1)
    (r1,), (r2,) = sub.relators, fam.relators
    assert equal_up_to_cycling(r1, r2) or equal_up_to_cycling(r1, r2.inverse())


def test_mirror_pair_presentations_differ_as_words():
    # no silent q -> p-q canonicalization: callers get exactly (p, q)
    a = presentation(TwoBridgeParams(5, 2))
    b = presentation(TwoBridgeParams(5, 3))
    assert a.relators != b.relators
