"""Finite groups, SFT graphs, census classification, entropy, periodics."""

import math
import random
import time
import tracemalloc
from collections import Counter
from itertools import compress

import pytest

from corpus import BS23, DYADIC, NOCOVER, knotlike_corpus, two_bridge_pairs, weight_zero_form
from oracles import (
    abelian_graph_census,
    brute_successors,
    census_over_states,
    essential_fixed_point,
    first_non_associative_triple,
    gcd_mod_p,
    graph_from_invariant_rows,
    graph_from_lists,
    inner_tuple_counts,
    orbits_by_conjugator_search,
    perron_entropy,
    periodic_by_search_from_every_state,
    perron_log_over_states,
    state_digits,
    symmetric_table_by_composition,
)
from cycover.repshift import (
    STATE_CAP,
    BadGroupTable,
    CapExceeded,
    FiniteGroup,
    MultiSymbolUnsupported,
    SftGraph,
    build_sft,
    census,
    entropy,
    enumerate_periodic,
)
from cycover import repshift, words
from cycover.rscover import ShiftPresentation, _reduce_indexed, reidemeister_schreier
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
    assert z6.inv[2] == 4
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
    assert s3.inv[by_label["(123)"]] == by_label["(132)"]


def test_symmetric_bounds(monkeypatch):
    assert FiniteGroup.symmetric(6).order == 720
    # S7's table would hold 25.4M entries: refused before a permutation is listed
    monkeypatch.setattr(repshift, "permutations", None)
    for k in (0, 7):
        with pytest.raises(BadGroupTable, match=rf"must be in \[1, 6\], got {k}$"):
            FiniteGroup.symmetric(k)


@pytest.mark.parametrize("k", range(1, 7))
def test_symmetric_table_equals_composing_every_pair(k):
    group = FiniteGroup.symmetric(k)
    labels, mult = symmetric_table_by_composition(k)
    assert group.labels == labels and group.mult == mult
    if k < 3:
        assert group.conj is None
        return
    assert all(
        group.conj[g][x] == mult[mult[g][x]][group.inv[g]]
        for g in range(group.order)
        for x in range(group.order)
    )


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
    for text, message in [
        ("", "empty table file"),
        (" \n\n", "empty table file"),
        ("x\n0", "bad order line: 'x'"),
        ("-1", "bad order line: '-1'"),
        ("0", "bad order line: '0'"),
        ("2\n0 1", "expected 2 table rows, got 1"),  # missing row
        ("1\n0\n0", "expected 1 table rows, got 2"),
        ("2\n0 1\n1 x", "bad table row: '1 x'"),
        ("2\n1 0\n0 1", "element 0 is not an identity"),
        ("2\n0 0\n0 0", "element 0 is not an identity"),
        ("3\n0 1 2\n1 1 0\n2 0 1", "table is not a Latin square"),
        ("2\n0 1\n1", "multiplication table is not square"),  # short row
        ("2\n0 1\n1 0 1", "multiplication table is not square"),
        ("2\n0 1\n1 2", "table entry out of range"),  # an entry equal to n
        ("2\n0 1\n1 -1", "table entry out of range"),
        # the checks run in order: range before identity, identity before Latin
        ("2\n1 2\n0 1", "table entry out of range"),
        ("2\n0 1\n0 0", "element 0 is not an identity"),
    ]:
        with pytest.raises(BadGroupTable) as err:
            FiniteGroup.from_table(text)
        assert str(err.value) == message, text


def test_every_built_in_table_passes_the_checks_of_a_table_from_outside():
    # FiniteGroup.__init__ checks nothing: cyclic and symmetric build their
    # tables correct, and written out, each passes all of from_table's
    # checks, associativity included, and gives the same group.
    groups = [FiniteGroup.symmetric(k) for k in range(1, 7)]
    groups += [FiniteGroup.cyclic(n) for n in range(1, 65)]
    for group in groups:
        again = FiniteGroup.from_table(_table_text(group), name=group.name)
        assert again.mult == group.mult, group.name
        assert again.conj == group.conj and again.centre_order == group.centre_order


# -- graph construction -------------------------------------------------

def test_dyadic_graph_over_z3():
    # x_{i+1} = 2 x_i mod 3: a permutation, every state essential
    g = sft(DYADIC, {"t": 1, "a": 0}, FiniteGroup.cyclic(3))
    assert g.window == 1
    assert g.state_count == 3
    assert g.essential_count == 3
    assert {(s, t) for s, ts in enumerate(g.successors) for t in ts} == {(0, 0), (1, 2), (2, 1)}


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
    assert state_digits(g, state) == (x, x)
    succ_labels = {
        s3.labels[state_digits(g, t)[-1]] for t in g.successors[state]
    }
    assert succ_labels == {"id", "(123)", "(132)"}


def test_cap_exceeded():
    pres = parse_presentation("<t, a | t^7 a t^-7 a^-2>")
    with pytest.raises(CapExceeded):
        sft(pres, {"t": 1, "a": 0}, FiniteGroup.cyclic(8))  # 8^7 > 10^6
    assert 8**7 > STATE_CAP


def _derived(g, name):
    """Whether the graph g holds its view `name`, found without deriving it."""
    try:
        object.__getattribute__(g, name)
    except AttributeError:
        return False
    return True


def test_build_sft_keeps_a_few_bytes_per_state():
    # x[i+4] = 2 x[i] over Z17: 83,521 windows, one successor each.  The
    # build and the census keep no per-state view over an abelian group;
    # the first read of the successors derives it, and the trim's flags in
    # the same read, before anything else is allocated.
    sp = reidemeister_schreier(
        parse_presentation("<t, a | a^-2 t^4 a t^-4>"), {"t": 1, "a": 0}
    )
    z17 = FiniteGroup.cyclic(17)
    g = build_sft(sp, z17)
    assert census(g).count == 17**4 and not _derived(g, "successors")
    tracemalloc.start()
    try:
        g.successors
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _derived(g, "essential") and g.essential is g._orbit_alive
    assert sp.width == 4 and g.state_count == 17**4
    # offsets, targets and essential flags: 4 + 4 + 1 bytes per state
    assert kept <= 16 * g.state_count, kept / g.state_count
    assert peak <= 40 * g.state_count, peak / g.state_count
    # the Z31 graph at window 4 is 923,521 windows
    z31 = build_sft(sp, FiniteGroup.cyclic(31))
    assert census(z31).count == 31**4 and not _derived(z31, "successors")


def test_second_non_abelian_build_and_census_keep_under_one_byte_per_state():
    # family(3) over S5: 14,400 windows in 161 orbits.  Once its group has
    # the levels, a build keeps per orbit its digits, and the census adds
    # the orbit graph and its trim's flags: nothing per state, neither an
    # edge nor an essential flag.  Its segment values are taken at the 161
    # representatives only, so no table over every window is made on the
    # way either.
    s5 = FiniteGroup.symmetric(5)
    family_sft(3, s5)
    tracemalloc.start()
    try:
        g = family_sft(3, s5)
        census(g)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.state_count == 120**2
    assert not _derived(g, "successors") and not _derived(g, "essential")
    assert kept < g.state_count, kept / g.state_count
    assert peak <= 2 * g.state_count, peak / g.state_count


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


def _random_loop(rng, n):
    """A Latin square of order n with identity 0, filled cell by cell with
    the symbols in a random order, backtracking where a cell has none left."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = {*rows[i][:j], *(rows[r][j] for r in range(i))}
        options = [x for x in range(n) if x not in used]
        rng.shuffle(options)
        for x in options:
            rows[i][j] = x
            if fill(k + 1):
                return True
        rows[i][j] = None
        return False

    assert fill(0)
    return rows


def _relabeled(rng, rows):
    """The table with its elements other than 0 renamed at random."""
    p = [0] + rng.sample(range(1, len(rows)), len(rows) - 1)
    out = [[0] * len(rows) for _ in rows]
    for a, row in enumerate(rows):
        for b, ab in enumerate(row):
            out[p[a]][p[b]] = p[ab]
    return out


# A Latin square with identity generated by 3 and 1, in that order, that is
# no group: (x*3)*y = x*(3*y) for all x and y, but (1*1)*2 = 2 != 1*(1*2) = 5
LOOP6_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 5, 2, 4],
    [2, 4, 0, 1, 5, 3],
    [3, 2, 5, 4, 0, 1],
    [4, 5, 1, 0, 3, 2],
    [5, 3, 4, 2, 1, 0],
]


def test_light_associativity_test_agrees_with_the_full_scan():
    # from_table checks associativity for its generators only; the oracle
    # tries every triple.  The verdicts must agree, and a table that fails
    # must name the oracle's first failing triple.  LOOP6 passes for its
    # first generator and fails for its second.
    rng = random.Random(26)
    loop5 = [list(map(int, line.split())) for line in LOOP5_TABLE.splitlines()[1:]]
    klein = [list(map(int, line.split())) for line in KLEIN_TABLE.splitlines()[1:]]
    groups = [klein, D4_TABLE, Q8_TABLE]
    groups += [list(FiniteGroup.cyclic(n).mult) for n in (1, 2, 5, 6, 12)]
    groups += [list(FiniteGroup.symmetric(k).mult) for k in (3, 4)]
    tables = [loop5, LOOP6_TABLE, *groups]
    tables += [_relabeled(rng, rng.choice(groups)) for _ in range(20)]
    tables += [_random_loop(rng, rng.randrange(2, 9)) for _ in range(60)]
    verdicts = Counter()
    for rows in tables:
        text = "\n".join([str(len(rows))] + [" ".join(map(str, row)) for row in rows])
        want = first_non_associative_triple(rows)
        if want is None:
            assert FiniteGroup.from_table(text).mult == tuple(map(tuple, rows))
        else:
            a, b, c = want
            with pytest.raises(BadGroupTable) as err:
                FiniteGroup.from_table(text)
            assert str(err.value) == f"table is not associative: ({a}*{b})*{c} != {a}*({b}*{c})"
        verdicts[want is None] += 1
    assert verdicts[True] >= 30 and verdicts[False] >= 30, verdicts


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


# Hole-free segments of width-2 templates: each reads one of the two source
# digits, or both.  The first of each list reads digit 0.
ONE_DIGIT = [[(0, 1)], [(0, 2)], [(1, -1)], [(1, 3)], [(0, -1)]]
BOTH_DIGITS = [[(0, 1), (1, 1)], [(1, 2), (0, -1)], [(0, 2), (1, -1)], [(1, 1), (0, 3)]]


def _holes_template(segments, exps):
    """S0 y^e1 S1 y^e2 ...: the segments interleaved with hole syllables at
    offset 2, as a ShiftPresentation."""
    tpl = []
    for seg, e in zip(segments, exps):
        tpl += [("a", off, x) for off, x in seg] + [("a", 2, e)]
    return ShiftPresentation(symbols=("a",), templates=(tuple(tpl),))


def test_multi_hole_solve_matches_brute_force_successors(monkeypatch):
    # Tables are built for the orbit representatives only, one per inner
    # tuple among them, for the rotation of the word that the solve picks.
    # Inner segments that read one digit leave at most n inner tuples, so
    # the representatives share a few tables; when every segment reads both
    # digits nearly every representative has a tuple, and a table, of its own.
    tables = []
    hole_table = repshift._hole_table

    def counting_hole_table(*args):
        tables.append(1)
        return hole_table(*args)

    monkeypatch.setattr(repshift, "_hole_table", counting_hole_table)
    groups = [FiniteGroup.symmetric(4), _group_from_rows(D4_TABLE), _group_from_rows(Q8_TABLE)]
    rng = random.Random(16)
    table_per_rep = set()
    for gi, group in enumerate(groups):
        for holes in (2, 3):
            for pool in (ONE_DIGIT, BOTH_DIGITS, ONE_DIGIT + BOTH_DIGITS):
                for _ in range(4):
                    segments = [pool[0]] + [rng.choice(pool) for _ in range(holes - 1)]
                    exps = [rng.choice((1, -1, 2, -2, 3, 10**9 + 7)) for _ in range(holes)]
                    sp = _holes_template(segments, exps)
                    tables.clear()
                    got = build_sft(sp, group)
                    words = [[(off, e) for _, off, e in sp.templates[0]]]
                    want = brute_successors(words, group.mult, 2)
                    assert [list(t) for t in got.successors] == want, (group.name, segments, exps)
                    if pool is ONE_DIGIT:
                        assert len(tables) <= group.order, (group.name, segments)
                    reps = [state_digits(got, r) for r in got.orbits.reps]
                    assert len(tables) in inner_tuple_counts(segments, group.mult, reps), (group.name, segments)
                    if len(tables) == len(reps):
                        table_per_rep.add(gi)
    assert table_per_rep == {0, 1, 2}


def test_multi_hole_build_keeps_memory_per_state():
    # Three holes over S5 at width 2, every segment reading both digits: the
    # inner tuple (a0 a1, a0^2 a1) determines a0 and then a1, so each of the
    # 14,400 windows has a tuple of its own.
    s5 = FiniteGroup.symmetric(5)
    sp = _holes_template([[(0, 1), (1, 2)], [(0, 1), (1, 1)], [(0, 2), (1, 1)]], [1, 1, 1])
    tracemalloc.start()
    try:
        g = build_sft(sp, s5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.state_count == 120**2
    # measured: 125 bytes per state; one table per tuple kept for the whole
    # build would take over 7,000
    assert peak <= 160 * g.state_count, peak / g.state_count


def test_power_reads_the_table_whatever_the_exponent():
    s5 = FiniteGroup.symmetric(5)
    for x in range(s5.order):
        # every element order in S5 divides 60
        assert s5.power(x, 6 * 10**17 + 1) == s5.power(x, 1) == x
        assert s5.power(x, 10**18 + 1) == s5.power(x, (10**18 + 1) % 60)
        assert s5.power(x, -(10**18)) == s5.power(x, -(10**18) % 60)
        assert s5.power(x, -1) == s5.inv[x]


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
    # only the width-0 branch checks windows: one per element, when the
    # abelian per-state view is first read
    g = build_sft(ShiftPresentation(symbols=("a",), templates=((("a", 0, 2),),)), FiniteGroup.cyclic(4))
    assert calls == []
    g.successors
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


def test_nocover_over_s6_is_only_trivial(monkeypatch):
    # NOCOVER has no proper subgroup of index <= 6: a homomorphism to S6
    # with a nontrivial orbit would be a nontrivial point of this shift.
    # Its one template has several holes and window 1, so each of the 11
    # classes of S6 has an inner tuple, and a table, of its own, and no
    # other element does.
    tables = []
    hole_table = repshift._hole_table

    def counting_hole_table(*args):
        tables.append(1)
        return hole_table(*args)

    monkeypatch.setattr(repshift, "_hole_table", counting_hole_table)
    sp = reidemeister_schreier(NOCOVER, {"t": 1, "a": 0})
    s6 = FiniteGroup.symmetric(6)
    g = build_sft(sp, s6)
    assert len(g.orbits.reps) == 11 and 1 <= len(tables) <= 11
    c = census(g)
    assert (c.classification, c.count, c.state_count) == ("OnlyTrivial", 1, 720)
    words = [[(off, e) for _, off, e in tpl] for tpl in sp.templates]
    assert [list(t) for t in g.successors] == brute_successors(words, s6.mult, sp.width)


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
    # family(3) over S3 has 22 essential states in 6 orbits; the Klein graph
    # of 4 states is over an abelian group.  A build looks its orbits up in
    # its group's levels once, and not at all over an abelian group.  The
    # graph keeps the orbit graph its trim ran on, and over an abelian group
    # that is its successors, not a copy.  Over S3 it keeps no per-state
    # view, only each representative's digits: census, entropy and the
    # periodic walks read those and the orbit graph, never a per-state view,
    # and relabel nothing.
    calls = []
    label_orbits = repshift._label_orbits

    def counting(*args):
        calls.append(args)
        return label_orbits(*args)

    monkeypatch.setattr(repshift, "_label_orbits", counting)
    klein = FiniteGroup.from_table(KLEIN_TABLE)
    nonabelian = family_sft(3, FiniteGroup.symmetric(3))
    assert len(calls) == 1
    calls.clear()
    abelian = sft(parse_presentation("<t, a | t a^2 t^-1 a^-2>"), {"t": 1, "a": 0}, klein)
    assert calls == [] and abelian.orbits is None
    assert abelian._orbit_edges is abelian.successors
    assert abelian._orbit_alive is abelian.essential
    assert len(nonabelian._orbit_edges) == len(nonabelian.digits) == len(nonabelian.orbits.reps)
    assert not _derived(nonabelian, "successors") and not _derived(nonabelian, "essential")
    # reading a bare object in any way raises; the abelian walks read the
    # successors, which are the graph itself
    nonabelian.successors = nonabelian.essential = object()
    for g in (nonabelian, abelian):
        c = census(g)
        assert c.classification == "PositiveEntropy"
        assert c.essential_count == (22 if g is nonabelian else 4)
        assert entropy(g) == c.entropy
        for period in (1, 2, 4):
            enumerate_periodic(g, period)
        assert calls == []
    del nonabelian.successors, nonabelian.essential
    # Every essential state has as many essential successors as its orbit's
    # node has edges in the essential orbit graph.
    alive = nonabelian._orbit_alive
    sizes = list(compress(nonabelian.orbits.sizes, alive))
    assert sum(sizes) == 22 and len(sizes) == 6
    offsets, targets = repshift._restrict(nonabelian._orbit_edges, alive)
    ess = nonabelian.essential
    edges = sum(ess[t] for s, ts in enumerate(nonabelian.successors) if ess[s] for t in ts)
    assert sum(size * (offsets[i + 1] - offsets[i]) for i, size in enumerate(sizes)) == edges
    assert edges > len(targets)


def _s3_graph(rule):
    """A window-1 graph over S3 with an edge x -> y wherever rule(x, y)
    holds.  A rule that reads only element orders, equality and the
    identity is invariant under conjugation, as every shift graph is."""
    s3 = FiniteGroup.symmetric(3)
    order = [len(seq) for seq in s3.powers]
    rows = [[y for y in range(6) if rule(order[x], order[y], x == y)] for x in range(6)]
    return graph_from_invariant_rows(s3, rows)


# The identity loops alone.  Each transposition loops and goes to the
# identity, each 3-cycle loops: one point per letter plus the rays that
# leave a transposition, countably many.
S3_ZERO_ENTROPY = _s3_graph(lambda ox, oy, same: same or (ox, oy) == (2, 1))
# The identity loops alone.  Each transposition goes to the other two and to
# both 3-cycles, and the 3-cycles go to each other and loop: two components
# of Perron root 2, one feeding the other, so the power iteration converges
# like 1/k and its sum passes 4000 bits long before the ratios settle.
S3_CHAINED = _s3_graph(
    lambda ox, oy, same: (ox, oy) == (1, 1) or (ox == 2 and oy > 1 and not same) or ox == oy == 3
)


def test_rows_that_conjugation_does_not_fix_make_no_graph():
    # Loops on the identity and on (23) alone: two points, but conjugation
    # takes the loop on (23) to none on (12) or (13).  Read at the class
    # representatives only, those rows would give a graph with four
    # essential states.  Over a non-abelian group a graph is built from its
    # orbits and digits, never from per-state successors.
    s3 = FiniteGroup.symmetric(3)
    assert s3.labels[1] == "(23)"
    rows = [[0], [1], [], [], [], []]
    with pytest.raises(AssertionError):
        graph_from_invariant_rows(s3, rows)
    with pytest.raises(TypeError):
        SftGraph(1, s3, rows)


WEIGHT_ZERO_PAIRS = (
    (3, 1), (5, 2), (5, 3), (7, 2), (7, 3), (7, 4), (9, 4), (9, 5), (11, 5), (11, 6), (13, 7),
)


def _orbit_test_graphs(rng):
    """Shift graphs over groups with and without inner automorphisms: the
    knots of family(1..10) and the weight-zero two-bridge forms over S3, S4,
    S5, D4, Q8, Z6 and the Klein group, seeded random templates over S3, D4,
    Q8 and S4, the full shift on the Klein group, a width-0 template over
    S3, and the two graphs over S3 built by hand."""
    pairs = [(family_presentation(n), {"u": 1, "a": 0}) for n in range(1, 11)]
    pairs += [weight_zero_form(p, q) for p, q in WEIGHT_ZERO_PAIRS]
    s3, s4, d4, q8 = (
        FiniteGroup.symmetric(3),
        FiniteGroup.symmetric(4),
        _group_from_rows(D4_TABLE),
        _group_from_rows(Q8_TABLE),
    )
    klein = FiniteGroup.from_table(KLEIN_TABLE)
    groups = [s3, s4, FiniteGroup.symmetric(5), d4, q8, FiniteGroup.cyclic(6), klein]
    for group in groups:
        for pres, chi in pairs:
            sp = reidemeister_schreier(pres, chi)
            if group.order ** sp.width <= STATE_CAP:
                yield build_sft(sp, group)
    for case in range(40):
        group = (s3, d4, q8, s4)[case % 4]
        width = rng.choice([w for w in (1, 2, 3) if group.order**w <= 576])
        tpls = [_random_template(rng, width, rng.choice((1, 2, 3)))]
        if rng.random() < 0.3:
            tpls.append(_random_template(rng, rng.randrange(1, width + 1), 1))
        pres = parse_presentation("<t, a | " + ", ".join(_relator(t) for t in tpls) + ">")
        yield sft(pres, {"t": 1, "a": 0}, group)
    yield sft(parse_presentation("<t, a | t a^2 t^-1 a^-2>"), {"t": 1, "a": 0}, klein)
    # width 0: x^2 = 1 keeps the identity and the transpositions, each
    # followed by every element
    yield build_sft(ShiftPresentation(symbols=("a",), templates=((("a", 0, 2),),)), s3)
    yield S3_ZERO_ENTROPY
    yield S3_CHAINED


def test_orbit_census_and_walks_equal_the_search_over_every_state():
    # The census iterates on conjugacy orbits and the walks are searched
    # from one state per orbit; the oracles run over every essential state.
    # Class, count and entropy must agree exactly, not to a tolerance.
    rng = random.Random(24)
    seen = set()
    for g in _orbit_test_graphs(rng):
        got = census(g)
        assert (got.classification, got.count, got.entropy) == census_over_states(g), g.group.name
        seen.add((g.group.is_abelian(), got.classification))
        # Over S5 the search from every state takes seconds beyond period
        # 3, so periods 4 and 5 are walked on the smaller graphs only.
        top = 5 if g.group.order < 120 or g.essential_count <= 1000 else 3
        for period in range(1, top + 1):
            want = periodic_by_search_from_every_state(g, period)
            assert enumerate_periodic(g, period) == want, (g.group.name, period)
    classes = ("OnlyTrivial", "Finite", "InfiniteZeroEntropy", "PositiveEntropy")
    assert {(False, c) for c in classes} <= seen
    assert {(True, "OnlyTrivial"), (True, "Finite"), (True, "PositiveEntropy")} <= seen


def test_orbit_labels_match_the_conjugator_search():
    # The labels come from a canonical form, digit by digit; the oracle
    # finds the orbits by conjugating whole windows.  Over the abelian
    # groups every orbit is one state, and the graph keeps no labels.
    rng = random.Random(25)
    groups = [FiniteGroup.symmetric(k) for k in (3, 4, 5)]
    groups += [_group_from_rows(D4_TABLE), _group_from_rows(Q8_TABLE)]
    groups += [FiniteGroup.from_table(_table_text(FiniteGroup.cyclic(6))), FiniteGroup.from_table(KLEIN_TABLE)]
    checked = 0
    for group in groups:
        n = group.order
        for window in range(4):
            w = max(window, 1)
            if n**w > 10**5:
                continue
            if window == 0:
                sp = ShiftPresentation(symbols=("a",), templates=((("a", 0, rng.choice((1, 2, 3))),),))
            else:
                sp = None
                while sp is None or sp.width != window:  # cancelling syllables narrow a few
                    relator = _relator(_random_template(rng, window, rng.choice((1, 2))))
                    sp = reidemeister_schreier(parse_presentation(f"<t, a | {relator}>"), {"t": 1, "a": 0})
            g = build_sft(sp, group)
            orbit, carry = orbits_by_conjugator_search(group, window)
            if group.is_abelian():
                assert g.orbits is None and orbit == list(range(n**w))
                continue
            label, reps, sizes = g.orbits.label, g.orbits.reps, g.orbits.sizes
            # constant on orbits and distinct across them
            assert len(set(zip(orbit, label))) == len(set(orbit)) == len(set(label)) == len(reps)
            members = Counter(orbit)
            first = {}
            for s, o in enumerate(orbit):
                first.setdefault(o, s)
            for s in range(n**w):
                o = label[s]
                assert sizes[o] == members[orbit[s]], (group.name, window, s)
                assert reps[o] == first[orbit[s]]  # the least state of the orbit
                h, inv_h = g.orbits.carry[s], group.inv[g.orbits.carry[s]]
                window_of_rep = state_digits(g, reps[o])
                image = tuple(group.mult[group.mult[h][d]][inv_h] for d in window_of_rep)
                assert image == state_digits(g, s), (group.name, window, s)
            checked += 1
    assert checked == 19  # S3, S4, D4 and Q8 at windows 0-3, S5 at 0-2


def test_stored_carriers_give_each_states_successors_from_its_representatives():
    # Conjugation is an automorphism of the graph, so the carrier of a state
    # takes its representative's window to its own, and its
    # representative's successors onto its own.
    checked = 0
    for group in (FiniteGroup.symmetric(3), FiniteGroup.symmetric(4)):
        n = group.order
        graphs = [family_sft(k, group) for k in (1, 2, 3)]
        graphs.append(sft(*weight_zero_form(7, 2), group))
        for g in graphs:
            w = max(g.window, 1)
            orbits, successors = g.orbits, g.successors

            def conjugate(s, row):
                return sum(row[d] * n ** (w - 1 - k) for k, d in enumerate(state_digits(g, s)))

            for s in range(len(successors)):
                rep = orbits.reps[orbits.label[s]]
                row = group.conj[orbits.carry[s]]
                assert conjugate(rep, row) == s, (group.name, g.window, s)
                image = sorted(conjugate(t, row) for t in successors[rep])
                assert image == list(successors[s]), (group.name, g.window, s)
                checked += 1
    assert checked == 15876


def _template_presentation(rng, window):
    """Random templates of exactly this width; width 0 is a unary relation."""
    if window == 0:
        return ShiftPresentation(symbols=("a",), templates=((("a", 0, rng.choice((1, 2, 3))),),))
    sp = None
    while sp is None or sp.width != window:  # cancelling syllables narrow a few
        tpls = [_random_template(rng, window, rng.choice((1, 2)))]
        if rng.random() < 0.3:
            tpls.append(_random_template(rng, rng.randrange(1, window + 1), 1))
        pres = parse_presentation("<t, a | " + ", ".join(_relator(t) for t in tpls) + ">")
        sp = reidemeister_schreier(pres, {"t": 1, "a": 0})
    return sp


def test_derived_successors_equal_the_brute_force_successors():
    # Over a non-abelian group the graph keeps each representative's digits
    # and derives every state's successors from them and the carriers, on
    # first read.  S3 and S4 have a trivial centre, D4 and Q8 one of order
    # 2; a representative outside the centre has a nontrivial stabilizer
    # and an orbit of more than one state.
    rng = random.Random(31)
    groups = [FiniteGroup.symmetric(3), FiniteGroup.symmetric(4)]
    groups += [_group_from_rows(D4_TABLE), _group_from_rows(Q8_TABLE)]
    checked = stabilized = 0
    for group in groups:
        for window in range(4):
            for _ in range(2 if group.order**window <= 512 else 1):
                sp = _template_presentation(rng, window)
                g = build_sft(sp, group)
                assert not _derived(g, "successors")
                words = [[(off, e) for _, off, e in tpl] for tpl in sp.templates]
                want = brute_successors(words, group.mult, window)
                assert [list(t) for t in g.successors] == want, (group.name, window)
                orbits = g.orbits
                stabilized += any(
                    len(stab) > group.centre_order and size > 1 and ys
                    for stab, size, ys in zip(orbits.stabs, orbits.sizes, g.digits)
                )
                checked += 1
    assert checked == 30 and stabilized >= 20


def test_walks_with_the_forced_last_step_equal_the_search_from_every_state():
    # The walks step from each state by its orbit's digits and its carrier,
    # and the last state of a walk from s at window w >= 2 is the one
    # successor of the state before it that ends in the first w - 1 digits
    # of s; at window 1 every successor is tried.  The oracle walks every
    # essential state's successors to the end.
    rng = random.Random(32)
    groups = [FiniteGroup.symmetric(3), _group_from_rows(D4_TABLE), _group_from_rows(Q8_TABLE)]
    groups += [FiniteGroup.cyclic(6), FiniteGroup.from_table(KLEIN_TABLE)]
    walks = Counter()
    for group in groups:
        for window in (1, 2, 3):
            for _ in range(3):
                g = build_sft(_template_presentation(rng, window), group)
                for period in range(1, 7):
                    got = enumerate_periodic(g, period)
                    assert got == periodic_by_search_from_every_state(g, period), (group.name, window, period)
                    walks[group.is_abelian(), window] += len(got)
    assert all(walks[abelian, window] > 0 for abelian in (False, True) for window in (1, 2, 3)), walks


def test_orbit_tables_are_derived_once_per_group_on_first_use(monkeypatch):
    # The orbits of the windows of each length depend on the group alone.
    # Building a group derives none; a graph derives the levels that no
    # earlier graph over its group needed, and a window-1 graph needs the
    # classes only.  Graphs over one group and window share one `Orbits`.
    calls = []
    next_level = repshift._next_level

    def counting(F, prev):
        calls.append(F.name)
        return next_level(F, prev)

    monkeypatch.setattr(repshift, "_next_level", counting)
    groups = [FiniteGroup.symmetric(k) for k in (3, 4, 5)]
    groups += [_group_from_rows(Q8_TABLE), _group_from_rows(D4_TABLE)]
    z6 = FiniteGroup.cyclic(6)
    assert calls == [] and all(F.levels == [] for F in groups + [z6])
    # NOCOVER has window 1; its orbits are the classes of F: 3, 5 and 7
    # for S3-S5, and 5 for Q8 and D4
    for F, classes in zip(groups, (3, 5, 7, 5, 5)):
        g = sft(NOCOVER, {"t": 1, "a": 0}, F)
        assert g.window == 1 and calls == [F.name] and len(F.levels) == 1
        assert F.levels[0] is g.orbits
        assert len(F.levels[0].reps) == len(g.orbits.reps) == classes
        calls.clear()
    sft(NOCOVER, {"t": 1, "a": 0}, z6)
    assert calls == [] and z6.levels == []
    # (7, 2) has window 3: over the S4 above it grows the list to three
    # levels, and a second graph derives none and holds the same orbits,
    # equal to those of a graph over a fresh S4
    s4 = groups[1]
    g = sft(*weight_zero_form(7, 2), s4)
    assert g.window == 3 and len(calls) == 2 and len(s4.levels) == 3
    calls.clear()
    again = sft(*weight_zero_form(7, 2), s4)
    assert calls == [] and again.orbits is g.orbits is s4.levels[2]
    fresh = sft(*weight_zero_form(7, 2), FiniteGroup.symmetric(4))
    assert len(calls) == 3 and fresh.orbits is not g.orbits
    for attr in ("label", "carry", "reps", "sizes"):
        assert getattr(g.orbits, attr) == getattr(fresh.orbits, attr), attr
    for graph in (g, again):
        assert graph.essential == fresh.essential


def _trim_test_graphs(rng):
    """The benchmark's twenty knots over S3 and S4, (7, 2) over S4 at
    window 3, family(3) over S5, and random templates over D4 and Q8."""
    pairs = [(family_presentation(n), {"u": 1, "a": 0}) for n in range(1, 11)]
    pairs += [weight_zero_form(p, q) for p, q in WEIGHT_ZERO_PAIRS if (p, q) != (7, 2)]
    s3, s4 = FiniteGroup.symmetric(3), FiniteGroup.symmetric(4)
    for pres, chi in pairs:
        for group in (s3, s4):
            yield sft(pres, chi, group)
    yield sft(*weight_zero_form(7, 2), s4)
    yield family_sft(3, FiniteGroup.symmetric(5))
    d4, q8 = _group_from_rows(D4_TABLE), _group_from_rows(Q8_TABLE)
    for case in range(40):
        group = (d4, q8)[case % 2]
        width = rng.choice((1, 2, 3))
        tpls = [_random_template(rng, width, rng.choice((1, 2, 3)))]
        if rng.random() < 0.3:
            tpls.append(_random_template(rng, rng.randrange(1, width + 1), 1))
        pres = parse_presentation("<t, a | " + ", ".join(_relator(t) for t in tpls) + ">")
        yield sft(pres, {"t": 1, "a": 0}, group)


def test_trim_on_orbits_keeps_the_essential_states_of_the_whole_graph():
    # The trim runs on the orbit graph; the oracle drops states of the
    # whole graph round by round.
    rng = random.Random(251)
    windows = Counter()
    for g in _trim_test_graphs(rng):
        edges = [(s, t) for s, targets in enumerate(g.successors) for t in targets]
        want = essential_fixed_point(g.state_count, edges)
        assert g.essential == bytearray(want), (g.group.name, g.window)
        windows[g.group.order, g.window] += 1
    assert windows[24, 3] == 1 and windows[120, 2] == 1 and windows[6, 2] == 20
    assert sum(windows[8, w] for w in (1, 2, 3)) == 40


def test_orbit_entropy_renormalizes_like_the_iteration_over_every_state():
    # S3_CHAINED has orbits of 1, 3 and 2 states.  At these tolerances its
    # vector is floored by a power of two, entry by entry, before the ratios
    # settle; the floors of the orbit values must be the floors of the
    # state values, so the floats agree bit for bit.
    g = S3_CHAINED
    assert list(compress(g.orbits.sizes, g._orbit_alive)) == [1, 3, 2]
    # The 3-cycles alone give a sum of at least 2 * 3^k after k steps, past
    # 4000 bits from k = 2524 on, and at 1e-7 the ratios still differ then.
    assert g.essential_count == 6
    with pytest.raises(ArithmeticError):
        perron_log_over_states([list(t) for t in g.successors], 1e-7, max_iter=2600)
    for tol in (1e-7, 1e-8):
        assert census(g, tol).entropy == census_over_states(g, tol)[2]
    # log 2 is approached like 1/k, from above
    assert 0 < census(g, 1e-8).entropy - math.log(2) < 1e-3


def test_generators_generate_and_decide_whether_the_group_is_abelian():
    groups = [FiniteGroup.symmetric(k) for k in range(1, 6)]
    groups += [FiniteGroup.cyclic(n) for n in (1, 2, 6, 12)]
    groups += [FiniteGroup.from_table(KLEIN_TABLE), _group_from_rows(D4_TABLE)]
    groups.append(_group_from_rows(Q8_TABLE))
    for group in groups:
        n, mult = group.order, group.mult
        span = {0}
        while True:
            grown = span | {mult[a][x] for a in span for x in group.generators}
            if grown == span:
                break
            span = grown
        assert span == set(range(n)), group.name
        centre = {z for z in range(n) if all(mult[z][y] == mult[y][z] for y in range(n))}
        assert group.is_abelian() == (len(centre) == n) == (group.conj is None), group.name


def test_census_family3_z3_only_trivial():
    c = census(family_sft(3, FiniteGroup.cyclic(3)))
    assert c.classification == "OnlyTrivial"
    assert c.count == 1


def test_census_infinite_zero_entropy():
    # two self-loops joined by a transit edge: countably many points
    # (eventually-constant rays), but no component carries two cycles
    g = graph_from_lists([[0, 1], [1]])
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


def _product_table(a, b):
    """The table of Z/a x Z/b, the pair (x, y) numbered x b + y."""
    n = a * b
    rows = [" ".join(str((u // b + v // b) % a * b + (u + v) % b) for v in range(n)) for u in range(n)]
    return "\n".join([str(n), *rows])


def _random_abelian_template(rng, w, n):
    """A random freely reduced template of width at most w, offsets from 0:
    syllables a[off]^e, |e| up to 2n or, half the time, a multiple of a
    divisor of n, and at times a syllable at the last offset undone later,
    so that an end coefficient sums to zero."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    raw = [
        ("a", rng.randint(0, w), rng.choice([1, -1]) * rng.choice([rng.randint(1, 2 * n), rng.choice(divisors)]))
        for _ in range(rng.randint(1, 4))
    ]
    if rng.random() < 0.3:
        e = rng.randint(1, n)
        raw = [("a", w, e), *raw, ("a", w, -e)]
    tpl = _reduce_indexed(raw)
    base = min((off for _, off, _ in tpl), default=0)
    return tuple((sym, off - base, e) for sym, off, e in tpl)


def test_abelian_census_by_counting_equals_the_census_of_the_whole_graph():
    # Cyclic groups up to Z36, prime powers to 32 among them, and four
    # tables that are not cyclic; one to three random templates of width
    # 0 to 3, end coefficients that sum to zero among them.  The census
    # from the counted windows gives every field of the census of the
    # whole graph, the entropy to the last bit, and never zero entropy on
    # infinitely many points.
    rng = random.Random(2336)
    groups = [FiniteGroup.cyclic(n) for n in range(1, 37)]
    groups += [FiniteGroup.from_table(_product_table(a, b)) for a, b in ((2, 2), (2, 4), (3, 3), (2, 6))]
    kinds = Counter()
    for case in range(1500):
        group = groups[case % len(groups)]
        n = group.order
        w = rng.choice([w for w in range(4) if n ** max(w, 1) <= 2500])
        templates = tuple(_random_abelian_template(rng, w, n) for _ in range(rng.randint(1, 3)))
        sp = ShiftPresentation(symbols=("a",), templates=templates)
        got = census(build_sft(sp, group))
        want = abelian_graph_census(sp, group)
        fields = ("classification", "count", "entropy", "state_count", "essential_count")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields], (group, sp.templates)
        kinds[got.classification] += 1
    assert "InfiniteZeroEntropy" not in kinds
    assert min(kinds.values()) >= 100, kinds


def test_abelian_census_reaches_no_integer_echelon(monkeypatch):
    # The counts read the Smith form over Z/|F| alone: no Bareiss echelon,
    # no kernel vector and no integer Smith form, at a prime order, at a
    # composite one and over a table that is not cyclic.
    calls = Counter()
    for name in ("bareiss_echelon", "echelon_kernel", "smith_diagonal"):
        real = getattr(words, name)
        monkeypatch.setattr(words, name, lambda *a, name=name, real=real: calls.update([name]) or real(*a))
    chi = {"t": 1, "a": 0}
    cases = [
        ("<t,a | a^-2 t^4 a t^-4>", FiniteGroup.cyclic(31), ("Finite", 923521, 0.0)),
        (
            "<t, a | a^7 t a^2 t^-1 t^2 a^4 t^-2 t^3 a^-2 t^-3>",
            FiniteGroup.cyclic(12),
            ("Finite", 27, 0.0),
        ),
        ("<t, a | t a^2 t^-1 a^-2>", FiniteGroup.from_table(KLEIN_TABLE), ("PositiveEntropy", None, math.log(4))),
    ]
    for text, group, want in cases:
        c = census(sft(parse_presentation(text), chi, group))
        assert (c.classification, c.count, c.entropy) == want, text
    assert not calls, calls


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
    # self-loops joined by transit edges: no cycle shares a component with
    # another, so the entropy is exactly zero, not a power-iteration residue
    for lists in ([[0, 1], [1]], [[0, 1], [1, 2], [2]]):
        g = graph_from_lists(lists)
        assert entropy(g) == census(g).entropy == 0.0, lists


def test_entropy_renormalizes_on_chained_golden_mean_components():
    # two golden-mean components, one feeding the other: the iteration
    # converges slowly enough at tol = 1e-9 that the vector is scaled down
    g = graph_from_lists([[0, 1], [0, 2], [2, 3], [2]])
    assert abs(entropy(g, tol=1e-9) - perron_entropy(g)) < 1e-4


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


def test_periodic_cap_counts_the_walks_of_every_orbit(monkeypatch):
    # family(3) over S3 has 82 labelings of period 9, 738 labels, found from
    # one state per orbit and conjugated into the rest: the cap is passed
    # exactly when their labels exceed it, before the search (a period
    # above the cap), during it or when conjugating.
    g = family_sft(3, FiniteGroup.symmetric(3))
    for cap in (0, 9, 45, 360, 729):
        monkeypatch.setattr(repshift, "STATE_CAP", cap)
        with pytest.raises(CapExceeded):
            enumerate_periodic(g, 9)
    monkeypatch.setattr(repshift, "STATE_CAP", 82 * 9)
    assert len(enumerate_periodic(g, 9)) == 82


def test_periodic_count_over_z_p_is_read_from_delta():
    # A one-relator form's kernel abelianizes to A = Z[t, t^-1]/(delta), so
    # the points of period N over Z/p are Hom(A/(t^N - 1)A, Z/p), of order
    # p^deg gcd(delta mod p, t^N - 1): the Fox path against the walks,
    # which over an abelian group read the derived per-state view.  Graphs
    # past 20,000 states are left out: there the search spends seconds on
    # walks that never close.
    from cycover.alexander import alexander_polynomial
    from cycover.rscover import UnsupportedWeighting

    forms = [(pres, chi) for _, pres, chi in knotlike_corpus()]
    forms += [weight_zero_form(p, q) for p, q in two_bridge_pairs(11)]
    checked = 0
    for pres, chi in forms:
        try:
            sp = reidemeister_schreier(pres, chi)
        except UnsupportedWeighting:
            continue
        delta = alexander_polynomial(pres, chi).delta
        for p in (2, 3, 5, 7):
            if p ** max(sp.width, 1) > 20000:
                continue
            g = build_sft(sp, FiniteGroup.cyclic(p))
            reduced = delta.reduce_mod(p).dense()
            for N in range(1, 7):
                g_N = gcd_mod_p(reduced, [-1] + [0] * (N - 1) + [1], p) if reduced else [0] * N + [1]
                assert len(enumerate_periodic(g, N)) == p ** (len(g_N) - 1), (pres.to_text(), p, N)
                checked += 1
    assert checked >= 800, checked


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
