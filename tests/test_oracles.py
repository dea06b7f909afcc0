"""The oracles must agree with the library on everything both can do."""

import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from corpus import two_bridge_pairs, weight_zero_form
from cycover.laurent import LaurentPoly, factor_over_Z
from cycover.recurrence import (
    AuxPolynomial,
    Direction,
    SequenceWindow,
    minimal_recurrence,
    propagate,
)
from cycover import repshift
from cycover.repshift import (
    FiniteGroup,
    build_sft,
    census,
    entropy,
    enumerate_periodic,
)
from cycover.rscover import abelianized_recurrence, reidemeister_schreier
from cycover.words import bareiss_echelon, echelon_kernel
from cycover.twobridge import family_presentation
from oracles import (
    _frac_nullspace,
    box_factor,
    census_class,
    closed_walks,
    essential_fixed_point,
    fraction_minimal_recurrence,
    fraction_propagate,
    graph_from_lists,
    perron_entropy,
    propagation_box_verdict,
    sccs_by_reachability,
    window_rank_count,
)

L = LaurentPoly.from_coeffs


# -- box factorization --------------------------------------------------


def test_box_splits_known_products():
    assert box_factor(L([2, -3, 1])) == [(L([-2, 1]), 1), (L([-1, 1]), 1)]
    assert box_factor(L([1, -2, 1])) == [(L([-1, 1]), 2)]
    assert box_factor(L([2, -5, 2])) == [(L([-2, 1]), 1), (L([-1, 2]), 1)]
    assert box_factor(L([1, -1, 1])) == [(L([1, -1, 1]), 1)]
    assert box_factor(L([2, -7, 9, -7, 2])) == [
        (L([-2, 1]), 1),
        (L([-1, 2]), 1),
        (L([1, -1, 1]), 1),
    ]


def test_box_ignores_units_and_content():
    shifted = LaurentPoly({-1: 2, 0: -6, 1: 4})  # 2 t^-1 (t - 1)(2t - 1) ... check
    assert box_factor(L([-6, 6])) == [(L([-1, 1]), 1)]
    assert box_factor(shifted) == box_factor(L([2, -6, 4]))
    assert box_factor(L([7])) == []
    with pytest.raises(ValueError):
        box_factor(LaurentPoly.zero())


def test_box_agrees_with_factorizer_exhaustively():
    for a0 in range(-2, 3):
        for a1 in range(-2, 3):
            for a2 in range(-2, 3):
                for a3 in range(-2, 3):
                    if a0 == 0 or a3 == 0:
                        continue
                    f = L([a0, a1, a2, a3])
                    assert box_factor(f) == list(factor_over_Z(f).factors), f


def test_box_agrees_on_quartic_products():
    rng = random.Random(7)
    for _ in range(12):
        g = L([rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-3, 3), rng.randint(1, 3)])
        h = L([rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-3, 3), rng.randint(1, 3)])
        f = g * h
        assert dict(box_factor(f)) == dict(factor_over_Z(f).factors), (g, h)


# -- window-rank counting -----------------------------------------------


def test_window_rank_known_stencils():
    doubling = [(0, -2), (1, 1)]
    assert window_rank_count(doubling, 2) == 1
    assert window_rank_count(doubling, 3) == 3
    assert window_rank_count(doubling, 5) == 5
    trefoil = [(0, 1), (1, -1), (2, 1)]
    assert window_rank_count(trefoil, 2) == 4
    assert window_rank_count(trefoil, 3) == 9
    assert window_rank_count(trefoil, 5) == 25
    fam3 = [(0, 3), (1, -5), (2, 3)]
    assert window_rank_count(fam3, 3) == 1
    assert window_rank_count(fam3, 2) == 4


def test_window_rank_rejects_vanishing_stencil():
    with pytest.raises(ValueError):
        window_rank_count([(0, 2), (1, -2)], 2)


def test_window_rank_matches_census_on_affordable_cases():
    cases = [(family_presentation(n), {"u": 1, "a": 0}) for n in (1, 2, 3)]
    cases += [weight_zero_form(p, q) for p, q in two_bridge_pairs(9)]
    for pres, chi in cases:
        sp = reidemeister_schreier(pres, chi)
        (row,) = abelianized_recurrence(sp)
        for p in (2, 3):
            c = census(build_sft(sp, FiniteGroup.cyclic(p)))
            assert c.classification in ("OnlyTrivial", "Finite")
            assert window_rank_count(row.coefficients, p) == c.count


# -- propagation box ----------------------------------------------------


def test_propagation_known_answers():
    assert propagation_box_verdict((-1, -1, 1)) is True  # golden ratio pair
    assert propagation_box_verdict((-2, 1)) is False
    assert propagation_box_verdict((2, -3, 1)) is True  # unit factor t - 1
    assert propagation_box_verdict((2, -5, 2)) is False
    assert propagation_box_verdict((1, -3, 1)) is True
    assert propagation_box_verdict((-1, 0, 0, 1)) is True  # period three
    assert propagation_box_verdict((-3, 0, 0, 2)) is False


def test_propagation_handles_overflow_staging():
    # 5^40 overflows int64; the exact-integer finish must not wrap
    assert propagation_box_verdict((-5, 1), box=10, steps=40) is False
    assert propagation_box_verdict((5, -6, 1), box=10, steps=40) is True


# -- spectral radius ----------------------------------------------------


def test_perron_against_power_iteration():
    for n, group in [(1, FiniteGroup.cyclic(2)), (3, FiniteGroup.symmetric(3))]:
        sp = reidemeister_schreier(family_presentation(n), {"u": 1, "a": 0})
        g = build_sft(sp, group)
        assert abs(perron_entropy(g) - entropy(g, tol=1e-9)) < 1e-5


def test_perron_full_shift():
    from cycover.rscover import ShiftPresentation

    sp = ShiftPresentation(symbols=("a",), templates=())
    g = build_sft(sp, FiniteGroup.cyclic(3))
    assert abs(perron_entropy(g) - math.log(3)) < 1e-9


# -- essential states, closed walks and census class --------------------


def _random_graph(rng):
    """Successor sets with sources, sinks, dead chains and self-loops.

    A random core, a chain that starts at a source and runs into it, and
    a chain that leaves it and ends at a sink; at most 64 states, so a
    cyclic group can label them.
    """
    n = rng.randrange(1, 30)
    succ = [set() for _ in range(n)]
    for s in range(n):
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            succ[s].add(rng.randrange(n))
        if rng.random() < 0.2:
            succ[s].add(s)
    into = list(range(n, n + rng.randrange(4)))
    for a, b in zip(into, into[1:] + [rng.randrange(n)]):
        succ.append({b})
    out_of = list(range(len(succ), len(succ) + rng.randrange(4)))
    if out_of:
        succ[rng.randrange(n)].add(out_of[0])
        succ.extend({b} for b in out_of[1:])
        succ.append(set())
    return [sorted(t) for t in succ]


def _edges(g):
    return [(s, t) for s, targets in enumerate(g.successors) for t in targets]


def test_random_graphs_cover_every_kind_of_dead_state():
    rng = random.Random(6)
    seen = {"source": 0, "sink": 0, "chain": 0, "loop": 0}
    for _ in range(100):
        lists = _random_graph(rng)
        has_in = {t for targets in lists for t in targets}
        live = essential_fixed_point(len(lists), [(s, t) for s, ts in enumerate(lists) for t in ts])
        seen["source"] += any(s not in has_in for s in range(len(lists)))
        seen["sink"] += any(not ts for ts in lists)
        # dropped only once a neighbour was dropped
        seen["chain"] += any(not live[s] and ts and s in has_in for s, ts in enumerate(lists))
        seen["loop"] += any(s in ts for s, ts in enumerate(lists))
    assert min(seen.values()) >= 30, seen


def test_essential_matches_fixed_point_on_random_graphs():
    rng = random.Random(6)
    for _ in range(100):
        lists = _random_graph(rng)
        g = graph_from_lists(lists)
        assert [list(t) for t in g.successors] == lists
        want = essential_fixed_point(len(lists), _edges(g))
        assert [bool(x) for x in g.essential] == want, lists


def test_sccs_match_reachability_on_random_graphs():
    rng = random.Random(8)
    kinds = set()
    for _ in range(200):
        lists = _random_graph(rng)
        g = graph_from_lists(lists)
        comp = repshift._sccs(g.successors.offsets, g.successors.targets)
        parts = defaultdict(set)
        for s, c in enumerate(comp):
            parts[c].add(s)
        assert sorted(parts) == list(range(len(parts))), lists
        assert {frozenset(p) for p in parts.values()} == sccs_by_reachability(lists), lists
        # numbered in reverse topological order
        assert all(comp[u] <= comp[v] for v, u in _edges(g)), lists
        if g.essential[0]:
            c = census(g)
            zero = c.count is None and perron_entropy(g) < 1e-9
            assert (c.classification == "InfiniteZeroEntropy") == zero, lists
            kinds.add(c.classification)
    assert kinds == {"OnlyTrivial", "Finite", "InfiniteZeroEntropy", "PositiveEntropy"}, kinds


def _census_graphs():
    """family(1-4) over S3 and Z5, and random graphs whose state 0 is on
    a loop, as census requires of the all-identity state."""
    for n in range(1, 5):
        sp = reidemeister_schreier(family_presentation(n), {"u": 1, "a": 0})
        for group in (FiniteGroup.symmetric(3), FiniteGroup.cyclic(5)):
            yield f"family({n})/{group.name}", build_sft(sp, group)
    rng = random.Random(7)
    for i in range(100):
        lists = _random_graph(rng)
        lists[0] = sorted(set(lists[0]) | {0})
        yield f"random {i}: {lists}", graph_from_lists(lists)


def test_periodic_counts_equal_closed_walks():
    for name, g in _census_graphs():
        edges = _edges(g)
        for period in range(2, 6):
            assert len(enumerate_periodic(g, period)) == closed_walks(
                g.state_count, edges, period
            ), (name, period)


def test_census_matches_degree_counts():
    kinds = set()
    for name, g in _census_graphs():
        c = census(g)
        want = census_class(g.state_count, _edges(g))
        assert (c.classification, c.count) == want, name
        assert c.essential_count == sum(essential_fixed_point(g.state_count, _edges(g)))
        kinds.add(c.classification)
    assert kinds == {"OnlyTrivial", "Finite", "InfiniteZeroEntropy", "PositiveEntropy"}


# -- recurrences in integers against Fraction arithmetic ----------------

RATIONAL_ROOTS = sorted({Fraction(p, q) for p in range(-5, 6) if p for q in (1, 2, 3)})


def _closed_form_window(rng):
    """x_n = sum of c_i r_i^n with rational r_i and c_i, from a negative index."""
    roots = rng.sample(RATIONAL_ROOTS, rng.randint(1, 3))
    cs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in roots]
    dmax = len(roots) + rng.randint(0, 1)
    base = -rng.randint(1, 6)
    n = 2 * dmax + 1 + rng.randint(0, 3)
    values = tuple(sum(c * r**i for r, c in zip(roots, cs)) for i in range(base, base + n))
    return SequenceWindow(base, values), dmax


def _impulse_window(rng):
    """Zeros, then an impulse run forward through a random recurrence, then maybe zeros."""
    d = rng.randint(1, 3)
    ends = [rng.choice((-3, -2, -1, 1, 2)) for _ in range(2)]
    asc = [ends[0]] + [rng.randint(-3, 3) for _ in range(d - 1)] + [ends[1]]
    dmax = rng.randint(d, 4)
    run = [0] * (d - 1) + [1]
    if rng.random() < 0.7:
        run += fraction_propagate(asc, run, True, 2 * dmax + 1)
    values = (0,) * rng.choice((0, rng.randint(1, 2 * dmax))) + tuple(run)
    values += (0,) * rng.choice((0, 0, 1, 2))
    values += (0,) * max(0, 2 * dmax + 1 - len(values))
    return SequenceWindow(-rng.randint(0, 4), values), dmax


def _sparse_window(rng):
    """Mostly zeros and small values at the shortest length, so Hankel kernels are often wide."""
    dmax = rng.randint(2, 4)
    values = tuple(rng.choice((0, 0, 0, 0, 1, -1, 2, Fraction(-1, 2))) for _ in range(2 * dmax + 1))
    return SequenceWindow(0, values), dmax


def _kernel_dims(w, dmax):
    """Dimension of the Hankel kernel at each degree 1..dmax."""
    vals = [Fraction(v) for v in w.values]
    return [
        len(_frac_nullspace([vals[n : n + d + 1] for n in range(len(vals) - d)], d + 1))
        for d in range(1, dmax + 1)
    ]


def test_minimal_recurrence_matches_fraction_gauss_jordan():
    rng = random.Random(15)
    seen = {"found": 0, "none": 0, "wide kernel": 0}
    for make in (_closed_form_window, _impulse_window, _sparse_window):
        for _ in range(150):
            w, dmax = make(rng)
            got = minimal_recurrence(w, dmax)
            want = fraction_minimal_recurrence(w.values, dmax)
            assert (got and got.ascending) == want, (w.base, w.values, dmax)
            seen["found" if got else "none"] += 1
            seen["wide kernel"] += max(_kernel_dims(w, dmax)) >= 2
    assert min(seen.values()) >= 30, seen


def _zero_end_window(rng):
    """A free first value, then a run of a recurrence with nonzero ends and
    a fractional seed: the window satisfies that recurrence times t, whose
    constant coefficient is zero, and maybe no other."""
    d = rng.randint(1, 3)
    ends = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2)]
    asc = [ends[0]] + [rng.randint(-3, 3) for _ in range(d - 1)] + [ends[1]]
    dmax = rng.randint(d + 1, 4)
    seed = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
    values = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)), *seed)
    values += fraction_propagate(asc, seed, True, 2 * dmax + 1 - len(values) + rng.randint(0, 2))
    return SequenceWindow(-rng.randint(0, 3), values), dmax


def _minimal_recurrence_every_free_column(w, dmax, free_calls):
    """`minimal_recurrence` solving for every free column of each degree,
    as it once did; free_calls counts the solves of a column left of the
    last."""
    den = math.lcm(*(Fraction(v).denominator for v in w.values))
    xs = [int(v * den) for v in w.values]
    if not any(xs):
        return None
    for d in range(1, dmax + 1):
        rows = [xs[n : n + d + 1] for n in range(len(xs) - d)]
        pivots, _ = bareiss_echelon(rows, d + 1)
        for free in range(d + 1):
            if free not in pivots:
                free_calls[0] += free < d
                v = echelon_kernel(rows, d + 1, pivots, free)
                if v[0] and v[d]:
                    return AuxPolynomial(v).primitive().ascending
    return None


def test_minimal_recurrence_solves_only_the_last_free_column():
    # On rank-deficient windows the kernel has free columns left of the
    # last; their vectors end in 0, so skipping them changes no answer.
    rng = random.Random(42)
    free_calls, found = [0], 0
    for make in (_sparse_window, _zero_end_window, _closed_form_window):
        for _ in range(200):
            w, dmax = make(rng)
            got = minimal_recurrence(w, dmax)
            want = _minimal_recurrence_every_free_column(w, dmax, free_calls)
            assert (got and got.ascending) == want, (w.base, w.values, dmax)
            found += got is not None
    assert free_calls[0] >= 100 and found >= 100, (free_calls, found)


def test_minimal_recurrence_on_wide_kernels_and_the_zero_window():
    # degree 2 on (1, 0, 0, 0, 0): a two-dimensional kernel, every vector with a_0 = 0
    w = SequenceWindow(-2, (1, 0, 0, 0, 0))
    assert _kernel_dims(w, 2) == [1, 2]
    assert minimal_recurrence(w, 2) is None is fraction_minimal_recurrence(w.values, 2)
    zero = SequenceWindow(-3, (Fraction(0),) * 7)
    assert minimal_recurrence(zero, 3) is None is fraction_minimal_recurrence(zero.values, 3)


def test_propagate_matches_fraction_steps():
    rng = random.Random(16)
    nonintegral = 0
    for _ in range(200):
        d = rng.randint(1, 4)
        ends = [rng.choice((-6, -4, -3, -2, 2, 3, 5)) for _ in range(2)]
        asc = [ends[0]] + [rng.randint(-5, 5) for _ in range(d - 1)] + [ends[1]]
        seed = [
            rng.choice((0, 1, -1, 4, Fraction(rng.randint(-9, 9), rng.randint(1, 7))))
            for _ in range(d)
        ]
        for direction in Direction:
            steps = rng.randint(1, 30)
            got = propagate(AuxPolynomial(asc), seed, direction, steps)
            want = fraction_propagate(asc, seed, direction is Direction.FORWARD, steps)
            assert got.values == want and all(type(v) is Fraction for v in got.values)
            assert got.integral == tuple(v.denominator == 1 for v in want)
            flags = [i + 1 for i, v in enumerate(want) if v.denominator != 1]
            assert got.first_nonintegral == (flags[0] if flags else None)
            nonintegral += bool(flags)
    assert nonintegral >= 100
