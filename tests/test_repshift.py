"""Finite groups, SFT graphs, census classification, entropy, periodics."""

import math
import random
import time
import tracemalloc

import pytest

from corpus import BS23, DYADIC, NOCOVER, weight_zero_form
from oracles import brute_successors
from cycover.repshift import (
    STATE_CAP,
    BadGroupTable,
    CapExceeded,
    FiniteGroup,
    MultiSymbolUnsupported,
    build_sft,
    census,
    entropy,
    enumerate_periodic,
)
from cycover import repshift
from cycover.rscover import ShiftPresentation, reidemeister_schreier
from cycover.twobridge import family_presentation
from cycover.words import parse_presentation


def sft(pres, chi, group):
    return build_sft(reidemeister_schreier(pres, chi), group)


def family_sft(n, group):
    return sft(family_presentation(n), {"u": 1, "a": 0}, group)


# -- finite groups ------------------------------------------------------


def test_cyclic_group_basics():
    z6 = FiniteGroup.cyclic(6)
    assert z6.order == 6
    assert z6.mul(4, 5) == 3
    assert z6.inverse(2) == 4
    assert z6.power(5, 3) == 3
    assert z6.is_abelian()
    assert z6.labels == ("0", "1", "2", "3", "4", "5")


def test_cyclic_bounds():
    with pytest.raises(BadGroupTable):
        FiniteGroup.cyclic(0)
    with pytest.raises(BadGroupTable):
        FiniteGroup.cyclic(65)


def test_symmetric_group_labels_and_composition():
    s3 = FiniteGroup.symmetric(3)
    assert s3.order == 6
    assert s3.labels == ("id", "(23)", "(12)", "(123)", "(132)", "(13)")
    assert not s3.is_abelian()
    by_label = {lab: i for i, lab in enumerate(s3.labels)}
    # (12)(23) applies (23) first: 1->1->2, 2->3->3, 3->2->1 = (123)
    got = s3.mul(by_label["(12)"], by_label["(23)"])
    assert s3.labels[got] == "(123)"
    assert s3.inverse(by_label["(123)"]) == by_label["(132)"]


def test_symmetric_bounds():
    with pytest.raises(BadGroupTable):
        FiniteGroup.symmetric(6)


def _table_text(g):
    rows = [" ".join(str(g.mul(i, j)) for j in range(g.order)) for i in range(g.order)]
    return "\n".join([str(g.order)] + rows)


def test_from_table_roundtrip():
    z5 = FiniteGroup.cyclic(5)
    again = FiniteGroup.from_table(_table_text(z5), name="z5file")
    assert again.order == 5
    assert all(
        again.mul(i, j) == z5.mul(i, j) for i in range(5) for j in range(5)
    )


def test_from_table_validation():
    with pytest.raises(BadGroupTable):
        FiniteGroup.from_table("")
    with pytest.raises(BadGroupTable):
        FiniteGroup.from_table("2\n0 1")  # missing row
    with pytest.raises(BadGroupTable):
        FiniteGroup.from_table("2\n1 0\n0 1")  # 0 is not the identity
    with pytest.raises(BadGroupTable):
        FiniteGroup.from_table("2\n0 0\n0 0")  # not a Latin square


# -- graph construction -------------------------------------------------

def test_dyadic_graph_over_z3():
    # x_{i+1} = 2 x_i mod 3: a permutation, every state essential
    g = sft(DYADIC, {"t": 1, "a": 0}, FiniteGroup.cyclic(3))
    assert g.window == 1
    assert g.state_count == 3
    assert g.essential_count == 3
    assert {(s, t) for s, t in g.edges()} == {(0, 0), (1, 2), (2, 1)}


def test_dyadic_graph_over_z2():
    # x_{i+1} = 2 x_i = 0 mod 2: only the zero ray survives trimming
    g = sft(DYADIC, {"t": 1, "a": 0}, FiniteGroup.cyclic(2))
    assert g.state_count == 2
    assert g.essential_count == 1


def test_family3_s3_state_and_successors():
    g = family_sft(3, FiniteGroup.symmetric(3))
    assert g.window == 2
    assert g.state_count == 36
    assert g.essential_count == 22
    s3 = g.group
    by_label = {lab: i for i, lab in enumerate(s3.labels)}
    x = by_label["(12)"]
    state = x * 6 + x
    assert g.state_tuple(state) == (x, x)
    succ_labels = {
        s3.labels[g.state_tuple(t)[-1]] for t in g.successors[state]
    }
    assert succ_labels == {"id", "(123)", "(132)"}


def test_first_coordinate_and_state_tuple():
    g = family_sft(1, FiniteGroup.cyclic(2))
    for s in range(g.state_count):
        tup = g.state_tuple(s)
        assert g.first_coordinate(s) == tup[0]
        assert len(tup) == g.window


def test_cap_exceeded():
    pres = parse_presentation("<t, a | t^7 a t^-7 a^-2>")
    with pytest.raises(CapExceeded):
        sft(pres, {"t": 1, "a": 0}, FiniteGroup.cyclic(8))  # 8^7 > 10^6
    assert 8**7 > STATE_CAP


def test_build_sft_keeps_a_few_bytes_per_state():
    # x[i+4] = 2 x[i] over Z17: 83,521 windows, one successor each
    sp = reidemeister_schreier(
        parse_presentation("<t, a | a^-2 t^4 a t^-4>"), {"t": 1, "a": 0}
    )
    z17 = FiniteGroup.cyclic(17)
    tracemalloc.start()
    try:
        g = build_sft(sp, z17)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sp.width == 4 and g.state_count == 17**4
    # offsets, targets and essential flags: 4 + 4 + 1 bytes per state
    assert kept <= 16 * g.state_count, kept / g.state_count
    assert peak <= 40 * g.state_count, peak / g.state_count


def test_multi_symbol_rejected():
    pres = parse_presentation("<t, a, b | t a t^-1 a^-2, b a^-1>")
    with pytest.raises(MultiSymbolUnsupported):
        sft(pres, {"t": 1, "a": 0, "b": 0}, FiniteGroup.cyclic(2))


def test_cyclic_fast_path_matches_generic_table_route():
    # the same group fed as an opaque table must give identical graphs
    for n in (1, 2, 3):
        for order in (2, 3, 4, 5):
            fast = family_sft(n, FiniteGroup.cyclic(order))
            slow = family_sft(
                n, FiniteGroup.from_table(_table_text(FiniteGroup.cyclic(order)))
            )
            assert fast.successors == slow.successors, (n, order)
            assert fast.essential == slow.essential, (n, order)


KLEIN_TABLE = "4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n"
# r^i s^j is element i + 4j, with s r s = r^-1
D4_TABLE = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 2, 3, 0, 5, 6, 7, 4],
    [2, 3, 0, 1, 6, 7, 4, 5],
    [3, 0, 1, 2, 7, 4, 5, 6],
    [4, 7, 6, 5, 0, 3, 2, 1],
    [5, 4, 7, 6, 1, 0, 3, 2],
    [6, 5, 4, 7, 2, 1, 0, 3],
    [7, 6, 5, 4, 3, 2, 1, 0],
]
# 1, -1, i, -i, j, -j, k, -k
Q8_TABLE = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 0, 3, 2, 5, 4, 7, 6],
    [2, 3, 1, 0, 6, 7, 5, 4],
    [3, 2, 0, 1, 7, 6, 4, 5],
    [4, 5, 7, 6, 1, 0, 2, 3],
    [5, 4, 6, 7, 0, 1, 3, 2],
    [6, 7, 4, 5, 3, 2, 1, 0],
    [7, 6, 5, 4, 2, 3, 0, 1],
]


# a Latin square with identity that is no group: (1*1)*2 = 2 but 1*(1*2) = 4
LOOP5_TABLE = "5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n"


def test_from_table_rejects_non_associative_table():
    with pytest.raises(BadGroupTable, match="not associative"):
        FiniteGroup.from_table(LOOP5_TABLE)
    assert FiniteGroup.from_table(KLEIN_TABLE).order == 4
    assert _group_from_rows(D4_TABLE).order == 8
    assert _group_from_rows(Q8_TABLE).order == 8


def _group_from_rows(rows):
    group = FiniteGroup.from_table(
        "\n".join([str(len(rows))] + [" ".join(map(str, r)) for r in rows])
    )
    n = group.order
    assert all(
        rows[rows[a][b]][c] == rows[a][rows[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )
    return group


def test_klein_table_named_cyclic_gets_its_own_graph():
    # the name of a table must not choose the algorithm: squares are
    # trivial in the Klein four-group, so every window is allowed
    klein = FiniteGroup.from_table(KLEIN_TABLE, name="cyclic(4).txt")
    g = sft(parse_presentation("<t, a | t a^2 t^-1 a^-2>"), {"t": 1, "a": 0}, klein)
    assert all(len(targets) == 4 for targets in g.successors)
    assert abs(entropy(g) - math.log(4)) < 1e-6


def _random_template(rng, width, holes):
    """Syllables (offset, exponent) with offset 0 present, `holes` of them
    at offset `width`, and no two neighbours at the same offset."""
    while True:
        offs = [width] * holes + [0] + [rng.randrange(width) for _ in range(rng.randrange(4))]
        rng.shuffle(offs)
        if all(a != b for a, b in zip(offs, offs[1:])):
            break
    exps = []
    for _ in offs:
        e = rng.choice((1, 2, 3, rng.randrange(10**6, 10**9)))
        exps.append(e if rng.random() < 0.5 else -e)
    return list(zip(offs, exps))


def _relator(template):
    """A relator in t, a that the rewrite turns back into template."""
    parts = []
    for off, e in template:
        parts.append(f"t^{off} a^{e} t^-{off}" if off else f"a^{e}")
    return " ".join(parts)


def test_build_sft_matches_brute_force_successors():
    groups = [
        FiniteGroup.symmetric(3),
        FiniteGroup.cyclic(2),
        FiniteGroup.cyclic(5),
        FiniteGroup.cyclic(6),
        FiniteGroup.from_table(KLEIN_TABLE, name="cyclic(4).txt"),
        _group_from_rows(D4_TABLE),
        _group_from_rows(Q8_TABLE),
    ]
    rng = random.Random(4)
    seen_holes = set()
    narrow = huge = 0
    for case in range(70):
        group = groups[case % len(groups)]
        width = rng.choice([w for w in (1, 2, 3) if group.order**w <= 216])
        tpls = [_random_template(rng, width, rng.choice((1, 1, 2, 3)))]
        if rng.random() < 0.5:
            # a second relator, narrower or as wide, with or without holes
            w2 = rng.randrange(1, width + 1)
            tpls.append(_random_template(rng, w2, rng.randrange(2) if w2 == width else 1))
        if rng.random() < 0.2:
            # exponent sums at the hole cancel: no hole for an abelian group
            tpls[0] = [(0, 1), (width, 2), (0, 1), (width, -2)]
        pres = parse_presentation("<t, a | " + ", ".join(_relator(t) for t in tpls) + ">")
        # cyclic reduction of a relator may shift its template or narrow it
        sp = reidemeister_schreier(pres, {"t": 1, "a": 0})
        got = build_sft(sp, group)
        words = [[(off, e) for _, off, e in tpl] for tpl in sp.templates]
        want = brute_successors(words, group.mult, sp.width)
        assert [list(t) for t in got.successors] == want, (group.name, pres.to_text())
        seen_holes.update(sum(off == sp.width for off, _ in t) for t in words)
        narrow += any(max(off for off, _ in t) < sp.width for t in words)
        huge += any(abs(e) >= 10**6 for t in words for _, e in t)
    assert seen_holes >= {0, 1, 2, 3}
    assert narrow >= 5 and huge >= 20


def test_power_reads_the_table_whatever_the_exponent():
    s5 = FiniteGroup.symmetric(5)
    for x in range(s5.order):
        # every element order in S5 divides 60
        assert s5.power(x, 6 * 10**17 + 1) == s5.power(x, 1) == x
        assert s5.power(x, 10**18 + 1) == s5.power(x, (10**18 + 1) % 60)
        assert s5.power(x, -(10**18)) == s5.power(x, -(10**18) % 60)
        assert s5.power(x, -1) == s5.inverse(x)


def test_huge_exponent_build_is_fast():
    s4 = FiniteGroup.symmetric(4)
    t0 = time.perf_counter()
    g = sft(parse_presentation("<t, a | t a^1000000007 t^-1 a^-2>"), {"t": 1, "a": 0}, s4)
    assert time.perf_counter() - t0 < 1.0
    # 1000000007 = -1 mod 12, and every element order in S4 divides 12
    small = sft(parse_presentation("<t, a | t a^-1 t^-1 a^-2>"), {"t": 1, "a": 0}, s4)
    assert g.successors == small.successors


def test_build_sft_checks_no_window_beyond_width_zero(monkeypatch):
    calls = []
    window_ok = repshift._window_ok
    power = FiniteGroup.power

    def counting_window_ok(*args):
        calls.append("window")
        return window_ok(*args)

    def counting_power(*args):
        calls.append("power")
        return power(*args)

    monkeypatch.setattr(repshift, "_window_ok", counting_window_ok)
    monkeypatch.setattr(FiniteGroup, "power", counting_power)
    family_sft(3, FiniteGroup.symmetric(5))
    pres, chi = weight_zero_form(7, 2)
    sft(pres, chi, FiniteGroup.symmetric(4))
    assert calls == []
    # only the width-0 branch checks windows: one per element
    build_sft(ShiftPresentation(symbols=("a",), templates=((("a", 0, 2),),)), FiniteGroup.cyclic(4))
    assert calls.count("window") == 4


# -- census -------------------------------------------------------------


def test_census_nocover_only_trivial():
    for group in (
        FiniteGroup.cyclic(2),
        FiniteGroup.cyclic(3),
        FiniteGroup.cyclic(5),
        FiniteGroup.symmetric(3),
    ):
        c = census(sft(NOCOVER, {"t": 1, "a": 0}, group))
        assert c.classification == "OnlyTrivial", group.name
        assert c.count == 1


def test_census_family1_z2_finite_four():
    c = census(family_sft(1, FiniteGroup.cyclic(2)))
    assert c.classification == "Finite"
    assert c.count == 4
    assert c.entropy == 0.0


def test_census_family3_s3_positive_entropy():
    c = census(family_sft(3, FiniteGroup.symmetric(3)))
    assert c.classification == "PositiveEntropy"
    assert c.count is None
    assert c.entropy > 0.01
    # Perron root is the cube root of 3, so the entropy is log(3)/3;
    # the ratio test at tol leaves residual error of the same order
    assert abs(c.entropy - math.log(3) / 3) < 1e-5


def test_census_builds_the_essential_subgraph_once(monkeypatch):
    g = family_sft(3, FiniteGroup.symmetric(3))
    builds = []
    adjacency = repshift._essential_adjacency

    def counting_adjacency(graph):
        builds.append(graph)
        return adjacency(graph)

    monkeypatch.setattr(repshift, "_essential_adjacency", counting_adjacency)
    c = census(g)
    assert c.classification == "PositiveEntropy"
    assert len(builds) == 1
    assert c.entropy == entropy(g)


def test_census_family3_z3_only_trivial():
    c = census(family_sft(3, FiniteGroup.cyclic(3)))
    assert c.classification == "OnlyTrivial"
    assert c.count == 1


def test_census_infinite_zero_entropy():
    # two self-loops joined by a transit edge: countably many points
    # (eventually-constant rays), but no component carries two cycles
    from cycover.repshift import SftGraph

    g = SftGraph(window=1, group=FiniteGroup.cyclic(2), successors=[[0, 1], [1]])
    c = census(g)
    assert c.classification == "InfiniteZeroEntropy"
    assert c.count is None
    assert c.entropy == 0.0


def test_census_width_zero_template():
    # unary constraint 2x = 0 mod 4 keeps letters {0, 2}; no coupling
    # between positions, so the points form a full shift on two letters
    sp = ShiftPresentation(symbols=("a",), templates=((("a", 0, 2),),))
    g = build_sft(sp, FiniteGroup.cyclic(4))
    c = census(g)
    assert c.classification == "PositiveEntropy"
    assert c.essential_count == 2
    assert abs(c.entropy - math.log(2)) < 1e-6


def test_trivial_representation_always_present():
    for n in (1, 2, 3):
        for group in (FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)):
            g = family_sft(n, group)
            assert g.essential[0]
            assert 0 in g.successors[0]


def test_prop23_census_count_equals_mod_p_formula():
    from cycover.alexander import alexander_polynomial

    cases = [
        (DYADIC, {"t": 1, "a": 0}),
        (BS23, {"x": 1, "y": 0}),
        (family_presentation(1), {"u": 1, "a": 0}),
        (family_presentation(2), {"u": 1, "a": 0}),
        weight_zero_form(3, 1),
        weight_zero_form(5, 3),
    ]
    for pres, chi in cases:
        delta = alexander_polynomial(pres, chi).delta
        for p in (2, 3, 5):
            d = delta.reduce_mod(p).degree_span()
            c = census(sft(pres, chi, FiniteGroup.cyclic(p)))
            assert c.classification in ("OnlyTrivial", "Finite")
            assert c.count == p**d, (pres.to_text(), p)


def test_census_invariant_under_relabeling():
    s3 = FiniteGroup.symmetric(3)
    base = census(family_sft(2, s3))
    rng = random.Random(99)
    for _ in range(3):
        sigma = [0] + rng.sample(range(1, 6), 5)
        inv = [0] * 6
        for i, v in enumerate(sigma):
            inv[v] = i
        rows = [
            " ".join(str(sigma[s3.mul(inv[i], inv[j])]) for j in range(6))
            for i in range(6)
        ]
        relabeled = FiniteGroup.from_table("\n".join(["6"] + rows))
        got = census(family_sft(2, relabeled))
        assert got.classification == base.classification
        assert got.count == base.count
        assert abs(got.entropy - base.entropy) < 1e-9


# -- entropy ------------------------------------------------------------


def test_entropy_full_shift():
    sp = ShiftPresentation(symbols=("a",), templates=())
    for n in (2, 3):
        g = build_sft(sp, FiniteGroup.cyclic(n))
        assert g.state_count == n
        assert abs(entropy(g) - math.log(n)) < 1e-6


def test_entropy_zero_on_disjoint_cycles():
    assert entropy(family_sft(1, FiniteGroup.cyclic(2))) == 0.0
    assert entropy(sft(NOCOVER, {"t": 1, "a": 0}, FiniteGroup.cyclic(5))) == 0.0


def test_entropy_family3_s3():
    g = family_sft(3, FiniteGroup.symmetric(3))
    assert abs(entropy(g, tol=1e-8) - math.log(3) / 3) < 1e-6


# -- periodic points ----------------------------------------------------


def test_periodic_family1_z2():
    g = family_sft(1, FiniteGroup.cyclic(2))
    labelings = enumerate_periodic(g, 3)
    assert len(labelings) == 4
    assert ("0", "0", "0") in labelings
    # the three phases of the period-3 orbit
    phases = {t for t in labelings if t != ("0", "0", "0")}
    assert phases == {("0", "1", "1"), ("1", "1", "0"), ("1", "0", "1")}


def test_periodic_nocover_z5():
    g = sft(NOCOVER, {"t": 1, "a": 0}, FiniteGroup.cyclic(5))
    assert enumerate_periodic(g, 10) == [tuple("0" * 10)]


def test_periodic_family3_s3_contains_paper_orbit():
    g = family_sft(3, FiniteGroup.symmetric(3))
    labelings = enumerate_periodic(g, 9)
    orbit = ("(12)", "(12)", "(123)", "(23)", "(23)", "(123)", "(13)", "(13)", "(123)")
    assert orbit in labelings
    assert len(labelings) == 82


def test_periodic_labelings_are_solutions():
    # every labeling must satisfy the recurrence cyclically over Z/2
    g = family_sft(2, FiniteGroup.cyclic(2))
    for lab in enumerate_periodic(g, 4):
        vals = [int(x) for x in lab]
        n = len(vals)
        for i in range(n):
            # family(2) row: 2 t^2 - 3 t + 2 == 0 mod 2 -> x_{i+1} = 0
            s = 2 * vals[i] - 3 * vals[(i + 1) % n] + 2 * vals[(i + 2) % n]
            assert s % 2 == 0
