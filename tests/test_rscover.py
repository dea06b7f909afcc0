"""Kernel shift presentations and the abelianized recurrence rows."""

import pytest

from corpus import (
    BAUMSLAG_B,
    BS23,
    DYADIC,
    NOCOVER,
    two_bridge_pairs,
    weight_zero_form,
)
from cycover.alexander import alexander_polynomial
from cycover.laurent import LaurentPoly
from cycover.rscover import (
    UnsupportedWeighting,
    abelianized_recurrence,
    reidemeister_schreier,
    template_to_text,
)
from cycover.twobridge import TwoBridgeParams, family_presentation, presentation
from cycover.words import FreeWord, Presentation, parse_presentation

L = LaurentPoly.from_coeffs


def test_dyadic_template():
    sp = reidemeister_schreier(DYADIC, {"t": 1, "a": 0})
    assert sp.symbols == ("a",)
    assert sp.template_texts() == ["a[i+1] a[i]^-2"]
    assert sp.width == 1


def test_family3_template_matches_display():
    sp = reidemeister_schreier(family_presentation(3), {"u": 1, "a": 0})
    assert sp.template_texts() == ["a[i+1]^3 a[i+2]^-3 a[i+1]^2 a[i]^-3"]
    assert sp.width == 2


def test_family_width_always_two():
    for n in range(1, 7):
        sp = reidemeister_schreier(family_presentation(n), {"u": 1, "a": 0})
        assert sp.width == 2, n


def test_nocover_template_matches_display():
    sp = reidemeister_schreier(NOCOVER, {"t": 1, "a": 0})
    assert sp.template_texts() == [
        "a[i+1]^-2 a[i]^-1 a[i+1]^-1 a[i] a[i+1] a[i]^-1 a[i+1] a[i]"
    ]
    assert sp.width == 1


def test_baumslag_b_template():
    sp = reidemeister_schreier(BAUMSLAG_B, {"x": 1, "y": 0})
    assert sp.width == 1
    assert sp.template_texts() == ["y[i+1]^-2 y[i]^-1 y[i+1] y[i]"]


def test_offsets_normalized_to_zero():
    for pres, chi in [
        (DYADIC, {"t": 1, "a": 0}),
        (NOCOVER, {"t": 1, "a": 0}),
        (family_presentation(4), {"u": 1, "a": 0}),
    ]:
        sp = reidemeister_schreier(pres, chi)
        for tpl in sp.templates:
            assert min(off for _, off, _ in tpl) == 0


def test_conjugated_relator_same_templates():
    # conjugating by powers of the weight-1 generator shifts all
    # heights, and offset normalization absorbs the shift
    base = reidemeister_schreier(DYADIC, {"t": 1, "a": 0})
    t = FreeWord.make([("t", 1)])
    for k in (1, -2, 3):
        (r,) = DYADIC.relators
        conj = Presentation.make(("t", "a"), [(t**k) * r * (t**-k)])
        sp = reidemeister_schreier(conj, {"t": 1, "a": 0})
        assert sp.templates == base.templates, k


def test_templates_freely_reduced():
    for n in range(1, 7):
        sp = reidemeister_schreier(family_presentation(n), {"u": 1, "a": 0})
        for tpl in sp.templates:
            for (s1, o1, e1), (s2, o2, e2) in zip(tpl, tpl[1:]):
                assert (s1, o1) != (s2, o2)
                assert e1 != 0 and e2 != 0


def test_rejects_two_unit_weights():
    pres = presentation(TwoBridgeParams(3, 1))
    with pytest.raises(UnsupportedWeighting):
        reidemeister_schreier(pres, {"u": 1, "v": 1})


def test_rejects_negative_unit_weight():
    with pytest.raises(UnsupportedWeighting):
        reidemeister_schreier(DYADIC, {"t": -1, "a": 0})


def test_template_text_formatting():
    assert template_to_text((("a", 0, 1), ("a", 2, -3), ("b", 1, 1))) == (
        "a[i] a[i+2]^-3 b[i+1]"
    )


def test_multi_relator_multi_symbol_structure():
    pres = parse_presentation("<t, a, b | t a t^-1 a^-2, b a^-1>")
    sp = reidemeister_schreier(pres, {"t": 1, "a": 0, "b": 0})
    assert sp.symbols == ("a", "b")
    assert len(sp.templates) == 2
    rows = abelianized_recurrence(sp)
    # template-major: one row per (template, symbol)
    assert [r.symbol for r in rows] == ["a", "b", "a", "b"]
    assert rows[0].polynomial() == L([-2, 1])
    assert not rows[1].polynomial()
    assert rows[2].polynomial() == L([-1])
    assert rows[3].polynomial() == L([1])


# -- recurrence rows ----------------------------------------------------


def test_dyadic_row():
    sp = reidemeister_schreier(DYADIC, {"t": 1, "a": 0})
    (row,) = abelianized_recurrence(sp)
    assert row.symbol == "a"
    assert row.coefficients == ((0, -2), (1, 1))
    assert row.polynomial() == L([-2, 1])


def test_bs23_row():
    sp = reidemeister_schreier(BS23, {"x": 1, "y": 0})
    (row,) = abelianized_recurrence(sp)
    assert row.polynomial() == L([-3, 2])


def test_family_rows_give_family_polynomial():
    for n in range(1, 7):
        sp = reidemeister_schreier(family_presentation(n), {"u": 1, "a": 0})
        (row,) = abelianized_recurrence(sp)
        assert row.polynomial().normalize() == L([n, -(2 * n - 1), n]), n


def test_row_polynomial_matches_fox_delta_on_corpus():
    # independent routes: height bookkeeping vs Fox determinant
    cases = [
        (DYADIC, {"t": 1, "a": 0}),
        (BS23, {"x": 1, "y": 0}),
        (NOCOVER, {"t": 1, "a": 0}),
        (BAUMSLAG_B, {"x": 1, "y": 0}),
    ]
    for n in range(1, 7):
        cases.append((family_presentation(n), {"u": 1, "a": 0}))
    for p, q in two_bridge_pairs(15):
        cases.append(weight_zero_form(p, q))
    for pres, chi in cases:
        delta = alexander_polynomial(pres, chi).delta
        sp = reidemeister_schreier(pres, chi)
        (row,) = abelianized_recurrence(sp)
        assert row.polynomial().normalize() == delta, pres.to_text()
