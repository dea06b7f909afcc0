"""Zassenhaus factorization over Z: pruning soundness, cost guards, oracles, and
van Hoeij's knapsack against the subset search and an LLL oracle."""

import math
import random
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cycover import _intfactor, _knapsack, _numbers
from cycover.alexander import alexander_polynomial
from cycover.laurent import LaurentPoly, factor_over_Z
from cycover.twobridge import TwoBridgeParams, presentation
from oracles import (
    _rank_mod_p,
    gram_determinant,
    gram_schmidt,
    lll_is_reduced,
    box_factor,
    cyclotomic,
    cyclotomic_divisors,
    divmod_mod_m,
    frobenius_rows,
    gcd_mod_p,
    gcd_over_Q,
    gf_factor_bruteforce,
    minimal_polynomial_mod_p,
    multiply_back,
    padic_root,
    primes_by_trial_division,
    schoolbook_mul,
    totients_upto,
)


def swinnerton_dyer(k):
    """SD(k): the monic polynomial whose roots are all the sums of +-sqrt(p)
    over the first k primes.

    Each prime p takes P(t) to P(t + sqrt p) P(t - sqrt p) = A^2 - p B^2,
    where P(t + sqrt p) = A(t) + sqrt(p) B(t) with A, B over Z.
    """
    f = [0, 1]
    for p in (2, 3, 5, 7, 11, 13)[:k]:
        a, b = [0] * len(f), [0] * len(f)
        for n, c in enumerate(f):
            for j in range(n + 1):
                (b if j % 2 else a)[n - j] += c * math.comb(n, j) * p ** (j // 2)
        aa, bb = schoolbook_mul(a, a), schoolbook_mul(b, b)
        f = [x - p * y for x, y in zip_longest(aa, bb, fillvalue=0)]
    return f


def t_power_minus_one(n):
    return [-1] + [0] * (n - 1) + [1]


# -- primality ----------------------------------------------------------


def test_is_prime_matches_trial_division():
    want = primes_by_trial_division(200_000)
    assert [_numbers.is_prime(n) for n in range(200_000)] == want


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the first k prime bases, k = 1, ..., 9
    # (one number serves k = 8 and 9)
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051):
        assert not _numbers.is_prime(n), n
    assert _numbers.is_prime(2**61 - 1)
    assert _numbers.is_prime(2**31 - 1) and not _numbers.is_prime((2**31 - 1) * 1_000_000_007)
    for n in (2**89 - 1, _numbers.SPRP_BOUND):
        with pytest.raises(ValueError, match=str(_numbers.SPRP_BOUND)):
            _numbers.is_prime(n)


def product(*polys):
    out = [1]
    for g in polys:
        out = _intfactor.mul(out, g)
    return out


def eisenstein(rng, p, degree, size):
    """A random primitive irreducible polynomial (Eisenstein at p), lead > 0.

    The lead is prime to p, the other coefficients are multiples of p, and
    the constant term is p times a number prime to p, of absolute value up to
    p * size.
    """
    lead = rng.choice([c for c in range(1, 60) if c % p])
    middle = [p * rng.randint(-size, size) for _ in range(degree - 1)]
    const = p
    while const % (p * p) == 0:
        const = p * rng.randint(size // 2, size) * rng.choice((1, -1))
    return _intfactor.primitive([const] + middle + [lead])


def canonical(polys):
    return sorted(map(tuple, polys))


def shifted(f, c):
    """f(t + c)."""
    out = [0] * len(f)
    for n, a in enumerate(f):
        for k in range(n + 1):
            out[k] += a * math.comb(n, k) * c ** (n - k)
    return out


def delta(p, q):
    pres = presentation(TwoBridgeParams(p, q))
    return alexander_polynomial(pres, {"u": 1, "v": 1}).delta.dense()


# -- soundness of the recombination pre-tests ---------------------------


def eisenstein_products():
    """12 products of 2 to 4 distinct non-monic Eisenstein factors, with large
    values at 0 and 1: [(product, factors)]."""
    rng = random.Random(20261018)
    out = []
    for trial in range(12):
        parts = []
        while len(parts) < rng.randint(2, 4):
            g = eisenstein(rng, rng.choice((2, 3, 5, 7)), rng.randint(1, 5), 10**6)
            if tuple(g) not in map(tuple, parts):
                parts.append(g)
        out.append((product(*parts), parts))
    return out


def test_non_monic_factors_with_large_values_at_zero_and_one():
    for trial, (f, parts) in enumerate(eisenstein_products()):
        assert canonical(_intfactor.factor_squarefree(f)) == canonical(parts), trial


def test_squarefree_input_vanishing_at_one():
    # f(1) = 0, so recombination skips its t = 1 pre-test: factor_squarefree
    # does not split cyclotomic factors off, and t - 1 is found by lifting.
    for n in (12, 30, 36):
        f = t_power_minus_one(n)
        expect = [cyclotomic(d) for d in range(1, n + 1) if n % d == 0]
        assert canonical(_intfactor.factor_squarefree(f)) == canonical(expect), n
    rng = random.Random(7)
    parts = [[-1, 1], eisenstein(rng, 3, 3, 10**4), eisenstein(rng, 5, 4, 10**4)]
    assert canonical(_intfactor.factor_squarefree(product(*parts))) == canonical(parts)


def test_value_at_one_test_skipped_when_it_could_wrap(monkeypatch):
    # lc(h2)/lc(h1) * h1 and lc(h1)/lc(h2) * h2 have coefficients of at most
    # 15, as do the quotients of f by h1 and h2, so B = 15 keeps the lift
    # exact while p^l stays below 2 |lc * f(1)|.  A t = 1 test run anyway
    # would reduce G(1) = 85 mod p^l and reject the true factor h1.
    h1 = [3, 3, 3, 3, 3, 2]  # Eisenstein at 3
    h2 = [2, 2, 2, 2, 2, 2, 5]  # Eisenstein at 2
    f = product(h1, h2)
    monkeypatch.setattr(_intfactor, "_mignotte_bound", lambda g: 15)
    lifts = []
    real_lift = _intfactor.hensel_lift

    def spy(p, g, modular, l):
        lifts.append(p**l)
        return real_lift(p, g, modular, l)

    monkeypatch.setattr(_intfactor, "hensel_lift", spy)
    assert canonical(_intfactor.factor_squarefree(f)) == canonical([h1, h2])
    assert 2 * abs(f[-1] * sum(f)) >= lifts[0]


def test_non_squarefree_input_goes_through_yun(monkeypatch):
    gcds = []
    real_gcd = _intfactor.int_poly_gcd
    monkeypatch.setattr(_intfactor, "int_poly_gcd", lambda f, g: gcds.append(1) or real_gcd(f, g))
    # The cyclotomic split takes Phi_25 off; the square left goes to Yun.
    square, phi25 = [1, -3, 1], cyclotomic(25)
    f = product(square, square, phi25)
    assert sorted(_intfactor.factor_primitive(f)) == sorted([(phi25, 1), (square, 2)])
    assert gcds
    # A squarefree cofactor is recognised mod a small prime and skips Yun.
    gcds.clear()
    sd3 = swinnerton_dyer(3)
    f = product(square, sd3, phi25)
    assert sorted(_intfactor.factor_primitive(f)) == sorted([(phi25, 1), (square, 1), (sd3, 1)])
    assert len(_intfactor.factor_primitive(t_power_minus_one(60))) == 12
    assert not gcds


# -- kernels against their oracles ---------------------------------------


def _random_poly(rng, n, bits, negative=False):
    """n coefficients of up to `bits` bits, nonzero lead; all <= 0 if negative."""
    f = [rng.randint(-(2**bits), 2**bits) for _ in range(n)]
    if negative:
        f = [-abs(c) for c in f]
    f[-1] = f[-1] or (-1 if negative else 1)
    return f


def test_mul_matches_schoolbook():
    rng = random.Random(71)
    cut = _intfactor._KRONECKER_MIN
    lengths = (1, 2, cut - 1, cut, cut + 1, 27, 28, 40, 130)
    for trial in range(300):
        m, n = rng.choice(lengths), rng.choice(lengths)
        bits = rng.choice((1, 3, 30, 64, 500, 3000))
        negative = trial % 5 == 0
        f, g = _random_poly(rng, m, bits, negative), _random_poly(rng, n, bits, negative)
        assert _intfactor.mul(f, g) == schoolbook_mul(f, g), (m, n, bits)
    # Cancellation: internal zeros, zeros at the low end, high zeros in an input.
    for n in (cut - 1, cut, 3 * cut):
        alt = [(-1) ** i for i in range(n)]
        assert _intfactor.mul([1, 1] + [0] * cut, alt) == [1] + [0] * (n - 1) + [(-1) ** (n - 1)]
        assert _intfactor.mul([1] * n, [-1, 1] + [0] * n) == [-1] + [0] * (n - 1) + [1]
        low = [0] * n + [3 * 2**3000, -1]
        assert _intfactor.mul(low, low) == schoolbook_mul(low, low)
        assert _intfactor.mul([0] * n, alt) == []


def test_mul_matches_schoolbook_at_wide_coefficients():
    # Shapes on both sides of the length cut-off, with coefficients of 300-500 bits.
    rng = random.Random(75)
    for m, n in ((64, 16), (64, 20), (300, 16), (64, 27), (64, 28), (300, 28)):
        for bits in (300, 380, 384, 500):
            f, g = _random_poly(rng, m, bits), _random_poly(rng, n, bits)
            assert _intfactor.mul(f, g) == schoolbook_mul(f, g), (m, n, bits)
            assert _intfactor.mul(g, f) == schoolbook_mul(g, f), (n, m, bits)


@given(
    st.lists(st.integers(-(2**200), 2**200), max_size=40),
    st.lists(st.integers(-(2**200), 2**200), max_size=40),
)
def test_mul_matches_schoolbook_on_any_lists(f, g):
    assert _intfactor.mul(f, g) == schoolbook_mul(f, g)


def test_int_poly_gcd_matches_euclid_over_Q():
    rng = random.Random(72)
    for trial in range(200):
        if trial % 10 == 0:
            common = [rng.choice((1, -1, 6))]
        else:
            common = _random_poly(rng, rng.randint(1, 6), rng.choice((1, 4, 40)))
        f = _intfactor.mul(common, _random_poly(rng, rng.randint(1, 7), 5))
        g = _intfactor.mul(common, _random_poly(rng, rng.randint(1, 7), 5))
        if trial % 25 == 1:
            g = []
        elif trial % 25 == 2:
            f = [rng.randint(1, 30)]
        assert _intfactor.int_poly_gcd(f, g) == gcd_over_Q(f, g), trial
    assert _intfactor.int_poly_gcd([], []) == gcd_over_Q([], []) == []
    assert _intfactor.int_poly_gcd([0, -4, -6], []) == [0, 2, 3]


def _squarefree_mod_p(rng, p, max_degree):
    """A random monic squarefree f over GF(p) of degree 1..max_degree, factored."""
    while True:
        f = [rng.randrange(p) for _ in range(rng.randint(1, max_degree))] + [1]
        facs = gf_factor_bruteforce(f, p)
        if len(set(map(tuple, facs))) == len(facs):
            return f, facs


def _equal_degree_product(rng, p, d, k):
    """A product of k distinct monic irreducibles of degree d over GF(p)."""
    found = set()
    while len(found) < k:
        g = [rng.randrange(p) for _ in range(d)] + [1]
        if gf_factor_bruteforce(g, p) == [g]:
            found.add(tuple(g))
    facs = sorted(map(list, found))
    f = [1]
    for g in facs:
        f = [c % p for c in schoolbook_mul(f, g)]
    return f, facs


def test_berlekamp_matches_trial_division():
    rng = random.Random(73)
    for trial in range(300):
        p = (2, 3, 5, 7, 11)[trial % 5]
        if trial % 3 == 0:
            d = rng.randint(1, 3)
            irreducibles = {1: p, 2: (p * p - p) // 2, 3: (p**3 - p) // 3}[d]
            k = min(rng.randint(2, 10 // d), irreducibles)
            f, facs = _equal_degree_product(rng, p, d, k)
        else:
            f, facs = _squarefree_mod_p(rng, p, 10)
        assert _intfactor.berlekamp(f, p) == facs, (p, f)


def _low_rank_matrix(rng, p, n):
    """A random n x n matrix of rank at most k, k random, entries not reduced mod p."""
    k = rng.randint(0, n)
    a = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(n)], dtype=np.int64)
    b = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(k)], dtype=np.int64)
    m = (a @ b % p if k else np.zeros((n, n), dtype=np.int64)).tolist()
    for row in m:  # representatives outside [0, p) as well
        j = rng.randrange(n)
        row[j] += p * rng.randint(-3, 3)
    return m


def test_left_nullspace_matches_elimination_oracle():
    # n from 1 to 130 at these primes puts the slot bound p + n p^2 on both
    # sides of every width: 1, 2, 4 and 8 bytes.
    rng = random.Random(76)
    widths = set()
    for p in (2, 3, 13, 251, 257, 4093, 19997):
        for n in (1, 2, 11, 29, 64, 130):
            widths.add(_intfactor._slots(p + n * p * p).bits)
            m = _low_rank_matrix(rng, p, n)
            basis = list(_intfactor._left_nullspace(m, n, n, p))
            # v*M = 0 for each v, independent, and n - rank of them: exactly
            # a basis of the left null space.
            for v in basis:
                assert all(sum(x * y for x, y in zip(v, col)) % p == 0 for col in zip(*m)), (p, n)
            assert _rank_mod_p(basis, p) == len(basis), (p, n)
            assert len(basis) == n - _rank_mod_p(m, p), (p, n)
    assert widths == {8, 16, 32, 64}


def test_minimal_polynomial_matches_power_oracle(monkeypatch):
    products = []
    real_mul = _intfactor.gf_mul

    def counting(f, g, p):
        products.append(p)
        return real_mul(f, g, p)

    monkeypatch.setattr(_intfactor, "gf_mul", counting)
    rng = random.Random(446)
    for p in (2, 3, 5, 13, 251, 19997):
        for _ in range(60):
            d = rng.randint(1, 12)
            u = [rng.randrange(p) for _ in range(d)] + [1]
            a = _intfactor.strip([rng.randrange(p) for _ in range(rng.randint(0, d))])
            products.clear()
            m = _intfactor._minimal_polynomial(a, u, p)
            assert m == minimal_polynomial_mod_p(a, u, p), (a, u, p)
            # the powers 1, a, ..., a^deg m and no more
            assert len(products) <= len(m) - 1, (a, u, p)


def _random_monic(rng, p, n):
    """A random monic f of degree n over GF(p)."""
    return [rng.randrange(p) for _ in range(n)] + [1]


def test_frobenius_rows_match_oracle_without_products(monkeypatch):
    # For p < n every row comes from the one before by p shifts of a packed
    # row, with no polynomial product or division.
    def forbidden(*args):
        raise AssertionError("a polynomial product or division in a Q row for p < n")

    rng = random.Random(77)
    expected = {}
    for p, n in ((2, 3), (2, 64), (3, 40), (7, 8), (13, 50), (61, 62), (127, 130)):
        f = _random_monic(rng, p, n)
        expected[p, n] = f, frobenius_rows(f, p)
    with monkeypatch.context() as patch:
        patch.setattr(_intfactor, "gf_mul", forbidden)
        patch.setattr(_intfactor, "gf_divmod", forbidden)
        for (p, n), (f, rows) in expected.items():
            assert _intfactor._frobenius_rows(f, p) == rows, (p, n)
    # p >= n: one product with x^p mod f a row.
    for p, n in ((2, 2), (13, 13), (101, 30), (19997, 12)):
        f = _random_monic(rng, p, n)
        assert _intfactor._frobenius_rows(f, p) == frobenius_rows(f, p), (p, n)


def _irreducibles(rng, p, linear, quadratic):
    """Distinct monic x - a and x^2 + bx + c with b^2 - 4c a non-square mod p, p odd."""
    lin = {(-a % p, 1) for a in rng.sample(range(p), linear)}
    quad = set()
    while len(quad) < quadratic:
        b, c = rng.randrange(p), rng.randrange(p)
        if pow((b * b - 4 * c) % p, (p - 1) // 2, p) == p - 1:
            quad.add((c, b, 1))
    return sorted(map(list, lin | quad))


def test_berlekamp_for_primes_above_the_degree():
    # The values of a basis vector are the roots of its minimal polynomial,
    # found by evaluating it at 0, 1, ..., so a large p costs no gcd per value.
    rng = random.Random(78)
    for p, trials in ((13, 12), (101, 12), (19997, 12)):
        for trial in range(trials):
            linear, quadratic = rng.randint(0, 4), rng.randint(0, 3)
            if linear + quadratic == 0:
                linear = 1
            facs = _irreducibles(rng, p, linear, quadratic)
            f = [1]
            for g in facs:
                f = [c % p for c in schoolbook_mul(f, g)]
            assert len(f) - 1 < p
            assert _intfactor.berlekamp(f, p) == facs, (p, f)


# -- packed GF(p) kernels against list oracles ----------------------------

# Primes, and the moduli 5^8 and 3^20 that Hensel steps divide by.
_KERNEL_MODULI = (2, 3, 5, 7, 251, 65521, 2**31 - 1, 5**8, 3**20)


def _mod(f, m):
    """f reduced mod m, high zeros dropped."""
    return divmod_mod_m(f, [1], m)[0]


def _poly_mod(rng, m, n, monic=False):
    """A random polynomial of degree n over Z/m, monic or with any nonzero lead."""
    return [rng.randrange(m) for _ in range(n)] + [1 if monic else rng.randrange(1, m)]


def _largest_prime_below(n):
    while not _numbers.is_prime(n - 1):
        n -= 1
    return n - 1


def _slot_widths(monkeypatch):
    """Rebind _intfactor._slots to record the width of each packed attempt, None for none."""
    widths = []
    real = _intfactor._slots

    def spy(bound):
        slots = real(bound)
        widths.append(slots and slots.bits)
        return slots

    monkeypatch.setattr(_intfactor, "_slots", spy)
    return widths


def test_gf_kernels_match_list_oracles():
    rng = random.Random(34)
    for m in _KERNEL_MODULI:
        prime = _numbers.is_prime(m)
        for trial in range(30):
            # Unreduced coefficients too: the kernels take any ints.
            f = [c + m * rng.randint(-2, 2) for c in _poly_mod(rng, m, rng.randint(0, 80))]
            g = _poly_mod(rng, m, rng.randint(0, 80), monic=not prime)
            assert _intfactor.gf_divmod(f, g, m) == divmod_mod_m(f, g, m), (m, trial)
            assert _intfactor.gf_mul(f, g, m) == _mod(schoolbook_mul(f, g), m), (m, trial)
            if prime:
                assert _intfactor.gf_gcd(f, g, m) == gcd_mod_p(f, g, m), (m, trial)
                # A common factor h of degree 1 to 6 divides the gcd.
                h = _poly_mod(rng, m, rng.randint(1, 6), monic=True)
                a, b = (_mod(schoolbook_mul(h, _poly_mod(rng, m, rng.randint(0, 74))), m) for _ in "ab")
                d = _intfactor.gf_gcd(a, b, m)
                assert d == gcd_mod_p(a, b, m) and not divmod_mod_m(d, h, m)[1], (m, trial)
    # The degree-300 gcd of the squarefree test of Delta of T(2, 301) mod 2.
    d = [(-1) ** i for i in range(301)]
    d2 = [i * c for i, c in enumerate(d)][1:]
    assert _intfactor.gf_gcd(d, d2, 2) == gcd_mod_p(d, d2, 2) == [1]


def test_gf_kernels_at_each_slot_width_limit(monkeypatch):
    # (kernel, modulus, the largest operand size whose slot bound fits `bits`)
    # for each width: at that size the kernel packs into slots of `bits`
    # bits, one past it into the next width, or onto lists past 8 bytes.
    big_mul = _largest_prime_below(2**32 // 6)
    big_gcd = _largest_prime_below(2**30 // 6)
    cases = [("divmod", p, bits, (2**bits - 1 - p) // (p - 1) ** 2) for p, bits in ((3, 8), (31, 16), (8191, 32), (2**31 - 1, 64), (3**20, 64))]
    cases += [("mul", p, bits, (2**bits - 1) // (p - 1) ** 2) for p, bits in ((3, 8), (31, 16), (8191, 32), (big_mul, 64))]
    cases += [("gcd", p, bits, ((2**bits - 1) // 16 - p) // (p - 1) ** 2) for p, bits in ((4093, 32), (big_gcd, 64))]
    rng = random.Random(35)
    widths = _slot_widths(monkeypatch)
    seen = set()
    for kernel, m, bits, n in cases:
        assert 1 <= n <= 80, (kernel, m, bits, n)
        for size, want in ((n, bits), (n + 1, 2 * bits if bits < 64 else None)):
            widths.clear()
            if kernel == "divmod":  # size quotient terms by a monic divisor of 24 terms
                g = _poly_mod(rng, m, 23, monic=True)
                f = _poly_mod(rng, m, 23 + size - 1)
                assert _intfactor.gf_divmod(f, g, m) == divmod_mod_m(f, g, m), (m, size)
            elif kernel == "mul":  # two factors of size terms
                f, g = _poly_mod(rng, m, size - 1), _poly_mod(rng, m, size - 1)
                assert _intfactor.gf_mul(f, g, m) == _mod(schoolbook_mul(f, g), m), (m, size)
            else:  # gcd of size terms and 8 terms, with a common quadratic factor
                h = _poly_mod(rng, m, 2, monic=True)
                f = _mod(schoolbook_mul(h, _poly_mod(rng, m, size - 3)), m)
                g = _mod(schoolbook_mul(h, _poly_mod(rng, m, 5)), m)
                assert _intfactor.gf_gcd(f, g, m) == gcd_mod_p(f, g, m), (m, size)
            assert widths == [want], (kernel, m, size, widths)
            seen.add((kernel, want))
    assert {w for k, w in seen if k == "divmod"} == {8, 16, 32, 64, None}
    assert {w for k, w in seen if k == "mul"} == {8, 16, 32, 64, None}
    assert {w for k, w in seen if k == "gcd"} == {32, 64, None}


# -- Hensel lifting --------------------------------------------------------


def _irreducible_mod_p(rng, p, d, taken):
    """A random monic irreducible polynomial of degree d over GF(p), not in taken."""
    while True:
        u = [rng.randrange(p) for _ in range(d)] + [1]
        if u not in taken and gf_factor_bruteforce(u, p) == [u]:
            return u


def test_hensel_lift_matches_padic_roots_on_every_pattern():
    # sqrt(2) in the 7-adic integers is 3 + 1*7 + 2*7^2 + 6*7^3 + ...
    assert padic_root([-2, 0, 1], 3, 7, 4) == 2166 and 2166**2 % 7**4 == 2
    # Every modular pattern of 0, 1, 2 or 3 linear factors and 0, 1, 2 or 3
    # nonlinear ones, in random order, of f = lc * (their product) + p * h.
    rng = random.Random(3535)
    seen = set()
    for trial in range(75):
        linear, nonlinear = trial % 4, trial // 4 % 4
        if not linear and not nonlinear:
            continue
        p = rng.choice((3, 5, 7, 11, 13))
        modular = [[-r % p, 1] for r in rng.sample(range(p), linear)]
        for _ in range(nonlinear):
            modular.append(_irreducible_mod_p(rng, p, rng.choice((2, 3)), modular))
        rng.shuffle(modular)
        lc = rng.choice([c for c in range(1, 30) if c % p])
        f = product([lc], *modular)
        f = [c + p * rng.randint(-9, 9) for c in f[:-1]] + f[-1:]
        l = rng.randint(1, 9)
        pl = p**l
        lifted = _intfactor.hensel_lift(p, f, modular, l)
        assert [[c % p for c in g] for g in lifted] == modular, trial
        for u, g in zip(modular, lifted):
            if len(u) == 2:
                assert g == [-padic_root(f, -u[0], p, l) % pl, 1], trial
        inv = pow(lc, -1, pl)
        assert [c % pl for c in product(*lifted)] == [c * inv % pl for c in f], trial
        seen.add((min(linear, 2), min(nonlinear, 2)))
    assert len(seen) == 8


# -- the cyclotomic split -------------------------------------------------


def test_cyclotomic_candidates_are_every_m_with_small_totient():
    limit = 400
    phi = totients_upto(2 * limit * limit)
    by_phi = sorted((phi[m], m) for m in range(1, len(phi)) if phi[m] <= limit)
    table = _numbers._CyclotomicTable()
    for n in range(limit + 1):
        brute = sorted(m for ph, m in by_phi if ph <= n)
        rows = _numbers._totients(n)
        assert [m for m, _, _ in rows] == brute, n
        assert all(ph == phi[m] for m, ph, _ in rows), n
        assert [row[0] for row in table.cover(n) if row[1] <= n] == brute, n
    for m, _, primes in rows:
        assert primes == tuple(q for q in range(2, m + 1) if m % q == 0 and phi[q] == q - 1), m


def test_cyclotomic_split_matches_rational_division():
    rng = random.Random(74)
    phi = totients_upto(200)
    others = ([1, -3, 1], [-1, 2], swinnerton_dyer(3))
    for trial in range(16):
        # Up to four distinct Phi_m, m <= 200, each to a power of at most 3,
        # of total degree at most 48.
        ms, budget = {}, 48
        for _ in range(trial % 5):
            choices = [m for m in range(1, 201) if phi[m] <= budget and m not in ms]
            if not choices:
                break
            m = rng.choice(choices)
            ms[m] = rng.randint(1, min(3, budget // phi[m]))
            budget -= ms[m] * phi[m]
        rest = rng.sample(others, rng.randint(1, 2))
        parts = [cyclotomic(m) for m, k in ms.items() for _ in range(k)] + rest
        rng.shuffle(parts)
        f = product(*parts)
        found, cofactor = _intfactor._split_cyclotomic(f)
        assert cyclotomic_divisors(f) == sorted(ms), trial
        assert found == [(cyclotomic(m), ms[m]) for m in sorted(ms)], trial
        assert cofactor == product(*rest) and cyclotomic_divisors(cofactor) == [], trial


def test_cyclotomic_split_falls_back_on_a_false_hit():
    # f(256) = Phi_3(256) = 65,793, yet Phi_3 does not divide f = (t - 15)(t + 17).
    f = [-255, 2, 1]
    assert _intfactor._split_cyclotomic(f) == ([], f)
    assert canonical(_intfactor.factor_squarefree(f)) == canonical([[-15, 1], [17, 1]])
    # A true hit, Phi_1, with the false one: the product of both does not
    # divide, and confirming hit by hit keeps Phi_1 alone, to its power.
    assert _intfactor._split_cyclotomic(product([-1, 1], f)) == ([([-1, 1], 1)], f)
    assert _intfactor._split_cyclotomic(product([-1, 1], [-1, 1], f)) == ([([-1, 1], 2)], f)


def test_cyclotomic_inputs_skip_the_modular_path(monkeypatch):
    def modular(*args):
        raise AssertionError("modular path on a product of cyclotomic polynomials")

    monkeypatch.setattr(_intfactor, "_choose_prime", modular)
    monkeypatch.setattr(_intfactor, "hensel_lift", modular)
    torus = [(-1) ** i for i in range(301)]  # Delta of T(2,301)
    expect = [(cyclotomic(14), 1), (cyclotomic(86), 1), (cyclotomic(602), 1)]
    assert _intfactor.factor_primitive(torus) == expect
    expect = [(cyclotomic(d), 1) for d in range(1, 121) if 120 % d == 0]
    assert _intfactor.factor_primitive(t_power_minus_one(120)) == expect
    f = product(cyclotomic(1), cyclotomic(1), cyclotomic(6), torus)
    expect = [(cyclotomic(m), k) for m, k in ((1, 2), (6, 1), (14, 1), (86, 1), (602, 1))]
    assert _intfactor.factor_primitive(f) == expect


def test_cyclotomic_inputs_skip_the_squarefree_tests(monkeypatch):
    # The split comes before any squarefree test: t^n - 1 is not squarefree
    # modulo a prime dividing n, and a power of Phi_m modulo none.
    squarefree = record_calls(monkeypatch, "gf_is_squarefree")
    gcds = record_calls(monkeypatch, "int_poly_gcd")
    for n in (60, 120):
        expect = [(cyclotomic(d), 1) for d in range(1, n + 1) if n % d == 0]
        assert _intfactor.factor_primitive(t_power_minus_one(n)) == expect
    products = [(1, 3), (2, 2), (12, 2), (25, 2), (27, 2), (60, 1)], [(25, 2), (27, 2), (33, 2), (35, 2)]
    for powers in products:
        f = product(*(cyclotomic(m) for m, k in powers for _ in range(k)))
        assert _intfactor.factor_primitive(f) == [(cyclotomic(m), k) for m, k in powers]
    assert squarefree == [] and gcds == []


def test_lift_precision_exceeds_twice_the_bound(monkeypatch):
    # Monic, coefficients in {-1, 0, 1}, degree 52, no cyclotomic factor:
    # B = 8 * 2^52, and a float logarithm gave p^l = 2^56 = 2B at p = 2.
    f = [-1, -1, 0, 0, 0, -1, 0, -1, -1, 1, -1, 1, 1, -1, 1, 1, -1, 1, -1, 0, 1, -1, 0, 0, 0, 0, 0]
    f += [0, 1, 1, -1, -1, -1, 0, -1, -1, -1, 1, -1, 1, 0, 1, 0, 1, -1, -1, 0, -1, -1, 1, -1, 0, 1]
    lifts = []
    real_lift = _intfactor.hensel_lift

    def spy(p, g, modular, l):
        lifts.append((p, l))
        return real_lift(p, g, modular, l)

    monkeypatch.setattr(_intfactor, "hensel_lift", spy)
    factors = _intfactor.factor_squarefree(f)
    assert product(*factors) == f and cyclotomic_divisors(f) == []
    p, l = lifts[0]
    assert p == 2 and p**l > 2 * _intfactor._mignotte_bound(f)


# -- cost guards (counts, not timings) ----------------------------------


def record_calls(monkeypatch, name):
    """Rebind _intfactor.<name> to record each call's arguments in the returned list."""
    calls = []
    real = getattr(_intfactor, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_intfactor, name, spy)
    return calls


def test_reducible_cubics_run_berlekamp_at_most_once(monkeypatch):
    # (t^2 - c t + 1)(a + b t): a quadratic and a linear factor, so no set
    # of factor degrees proves the cubic irreducible; two modular factors
    # end the prime search at once.
    calls = record_calls(monkeypatch, "berlekamp")
    for i in range(30):
        quadratic, linear = [1, -(1 + i % 4), 1], [1 + i % 5, 2 + i // 5 % 2]
        calls.clear()
        fac = factor_over_Z(LaurentPoly.from_coeffs(product(quadratic, linear)))
        linear = _intfactor.primitive(linear)
        expect = [(linear, 1), ([-1, 1], 2)] if i % 4 == 1 else [(linear, 1), (quadratic, 1)]
        assert sorted((g.dense(), m) for g, m in fac.factors) == sorted(expect), i
        assert len(calls) <= 1, i


def test_witness_cubics_lift_without_a_hensel_step(monkeypatch):
    # The cubics of the benchmark's witness operations, (t^2 - c t +- 1)
    # times a linear factor, with fixed signs.  A cubic has at most one
    # nonlinear modular factor, and its linear ones are lifted as roots.
    steps = record_calls(monkeypatch, "_hensel_step")
    lifts = record_calls(monkeypatch, "hensel_lift")
    for i in range(30):
        unit = [(-1) ** i, -(1 + i % 4), 1]
        other = [(-1) ** (i // 2) * (1 + i % 5), (-1) ** (i // 3) * (2 + i // 5 % 2)]
        f = LaurentPoly.from_coeffs(product(unit, other))
        fac = factor_over_Z(f)
        assert multiply_back(fac) == f, i
        mine = sorted((g.dense(), m) for g, m in fac.factors)
        assert mine == sorted((g.dense(), m) for g, m in box_factor(f)), i
    assert len(lifts) >= 10 and steps == []


def test_two_modular_factors_are_lifted_not_tried_at_more_primes(monkeypatch):
    d = delta(601, 5)  # degree 120, two factors modulo 2
    calls = record_calls(monkeypatch, "berlekamp")
    lifts = record_calls(monkeypatch, "hensel_lift")
    assert _intfactor.factor_squarefree(d) == [d]
    assert [p for _, p in calls] == [2]
    assert [len(modular) for _, _, modular, _ in lifts if len(modular) > 1] == [2]


def twobridge_deltas():
    """Two-bridge Deltas with no cyclotomic factor, p < 40 and q in 3, 5, 7."""
    inputs = [delta(p, q) for p in range(5, 40, 2) for q in (3, 5, 7) if math.gcd(p, q) == 1 and q < p]
    return [d for d in inputs if len(d) > 2 and not cyclotomic_divisors(d)]


def test_each_prime_is_tested_for_squarefreeness_once(monkeypatch):
    # The squarefree tests that factor_primitive makes at small primes are
    # passed on to the prime search, which repeats none of them: two-bridge
    # Deltas with no cyclotomic factor, squarefree modulo a small prime, and
    # SD(4) and SD(5), squarefree modulo none of the first five.
    inputs = twobridge_deltas() + [delta(601, 5), swinnerton_dyer(4), swinnerton_dyer(5)]
    expected = [[(g, 1) for g in _intfactor.factor_squarefree(f)] for f in inputs]
    calls = record_calls(monkeypatch, "gf_is_squarefree")
    for f, want in zip(inputs, expected):
        calls.clear()
        assert _intfactor.factor_primitive(f) == want, f
        primes = [p for _, p in calls]
        assert len(primes) == len(set(primes)), (f, primes)
    assert len(inputs) >= 30


def test_swinnerton_dyer_splits_with_few_gcds(monkeypatch):
    # Each Berlekamp factor is split once per basis vector, peeling one value
    # class per gcd, not tried against every (vector, value) pair.
    calls = []
    real_gcd = _intfactor.gf_gcd
    monkeypatch.setattr(_intfactor, "gf_gcd", lambda f, g, p: calls.append(p) or real_gcd(f, g, p))
    f = swinnerton_dyer(5)  # 16 quadratic factors modulo every good prime
    factors = _intfactor.factor_squarefree(f)
    assert factors == [f]
    assert len(calls) <= 400


def test_swinnerton_dyer_lifts_to_exactly_p_to_the_l(monkeypatch):
    d = swinnerton_dyer(5)
    targets, moduli = [], []
    real_lift, real_divmod = _intfactor.hensel_lift, _intfactor.gf_divmod

    def lift(p, g, modular, l):
        targets.append(p**l)
        return real_lift(p, g, modular, l)

    def divmod_spy(f, g, p):
        moduli.append(p)
        return real_divmod(f, g, p)

    monkeypatch.setattr(_intfactor, "hensel_lift", lift)
    monkeypatch.setattr(_intfactor, "gf_divmod", divmod_spy)
    factors = _intfactor.factor_squarefree(d)
    assert factors == [d]
    assert len(set(targets)) == 1
    assert max(moduli) == targets[0]


def test_irreducible_delta_needs_no_hensel_lift(monkeypatch):
    d = delta(1001, 3)

    def no_lift(*args):
        raise AssertionError("Hensel lifting on a polynomial proved irreducible")

    monkeypatch.setattr(_intfactor, "hensel_lift", no_lift)
    assert _intfactor.factor_squarefree(d) == [d]


def test_torus_delta_trial_divisions(monkeypatch):
    d = [(-1) ** i for i in range(301)]  # Delta of T(2,301) = Phi_14 Phi_86 Phi_602
    calls = []
    real_div = _intfactor.exact_div_int

    def counting(*args):
        calls.append(args)
        return real_div(*args)

    monkeypatch.setattr(_intfactor, "exact_div_int", counting)
    factors = _intfactor.factor_primitive(d)
    assert factors == [(cyclotomic(14), 1), (cyclotomic(86), 1), (cyclotomic(602), 1)]
    # One division by the product of the cyclotomic hits, not one a hit.
    assert len(calls) == 1
    calls.clear()
    factors = _intfactor.factor_primitive(t_power_minus_one(120))
    assert factors == [(cyclotomic(m), 1) for m in range(1, 121) if 120 % m == 0]
    assert len(calls) == 1


# -- sympy cross-checks at degree 50-300 --------------------------------


def _sympy_factors(dense):
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    _, parts = sympy.Poly(list(reversed(dense)), t).factor_list()
    out = []
    for poly, mult in parts:
        coeffs = [int(c) for c in reversed(poly.all_coeffs())]
        if coeffs[-1] < 0:
            coeffs = [-c for c in coeffs]
        out.append((tuple(coeffs), int(mult)))
    return sorted(out)


def _mine(dense):
    fac = factor_over_Z(LaurentPoly.from_coeffs(dense))
    assert multiply_back(fac) == LaurentPoly.from_coeffs(dense)
    return sorted((tuple(g.dense()), m) for g, m in fac.factors)


def random_products():
    """40 random factors and 200 products of 2 or 3 of them."""
    rng = random.Random(3301)

    def random_factor():
        """Degree 1-5, coefficients in [-9, 9], nonzero at both ends, primitive."""
        const = rng.choice((-1, 1)) * rng.randint(1, 9)
        middle = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
        return _intfactor.primitive([const] + middle + [rng.randint(1, 9)])

    inputs = [random_factor() for _ in range(40)]
    return inputs + [product(*(random_factor() for _ in range(rng.randint(2, 3)))) for _ in range(200)]


def test_random_products_match_sympy_and_stop_at_two_modular_factors(monkeypatch):
    # (input of _choose_prime, modular factors kept, primes Berlekamp ran at)
    searches = []
    tried = record_calls(monkeypatch, "berlekamp")
    real_choose = _intfactor._choose_prime

    def spy(f, *rest):
        tried.clear()
        out = real_choose(f, *rest)
        if out[2] != 1 | 1 << len(f) - 1:  # not proved irreducible by degree sets
            searches.append((f, len(out[1]), [p for _, p in tried]))
        return out

    monkeypatch.setattr(_intfactor, "_choose_prime", spy)
    # The lone factors are mostly irreducible over Z: those that split in two
    # modulo the kept prime make the recombination run out of candidates.
    inputs = random_products()
    two_factor_exits = irreducible_exits = 0
    for f in inputs:
        searches.clear()
        mine = _mine(f)
        assert mine == _sympy_factors(f), f
        for g, r, primes in searches:
            if r == 2 and len(primes) < 3:
                two_factor_exits += 1
                irreducible_exits += (tuple(g), 1) in mine
    assert two_factor_exits >= 50 and irreducible_exits >= 10, (two_factor_exits, irreducible_exits)


@pytest.mark.parametrize("n", [60, 96, 120])
def test_t_power_minus_one_matches_sympy(n):
    f = t_power_minus_one(n)
    assert _mine(f) == _sympy_factors(f)


@pytest.mark.parametrize("k", [4, 5])
def test_swinnerton_dyer_matches_sympy(k):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.specialpolys import swinnerton_dyer_poly

    x = sympy.symbols("x")
    f = [int(c) for c in reversed(sympy.Poly(swinnerton_dyer_poly(k, x), x).all_coeffs())]
    assert f == swinnerton_dyer(k)
    assert _mine(f) == _sympy_factors(f) == [(tuple(f), 1)]


def test_torus_delta_matches_sympy():
    # sympy factors t^301 + 1 = (t + 1) * Delta through its cyclotomic
    # shortcut in milliseconds, against ~13 s for Delta itself; by unique
    # factorization the factors of Delta are the rest.
    d = delta(301, 1)
    assert d == [(-1) ** i for i in range(301)]
    of_sum = _sympy_factors([1] + [0] * 300 + [1])
    assert ((1, 1), 1) in of_sum
    assert _mine(d) == [fm for fm in of_sum if fm != ((1, 1), 1)]


def test_squared_cyclotomic_product_matches_sympy():
    # Degree 164, not squarefree: Yun's gcds run on the dense input.
    f = product(*(cyclotomic(n) for n in (25, 25, 27, 27, 33, 33, 35, 35)))
    assert len(f) == 165
    assert _mine(f) == _sympy_factors(f)


def test_twobridge_1001_3_delta_matches_sympy():
    d = delta(1001, 3)
    assert len(d) == 335
    assert _mine(d) == _sympy_factors(d) == [(tuple(d), 1)]


# -- van Hoeij's knapsack -------------------------------------------------


def _spy_lll(monkeypatch):
    """Rebind _knapsack.lll to record (input, output) of each call."""
    calls = []
    real = _knapsack.lll

    def spy(basis):
        out = real(basis)
        calls.append((basis, out))
        return out

    monkeypatch.setattr(_knapsack, "lll", spy)
    return calls


def test_lll_matches_gram_schmidt_oracle():
    # Seeded random bases of 1-8 independent vectors of 1-8 entries in
    # [-50, 50]: the reduced basis spans a lattice of the same Gram
    # determinant, and each d_i / d_(i-1) is the oracle's |b*_i|^2.
    rng = random.Random(2209)
    tried = 0
    while tried < 150:
        n = rng.randint(1, 8)
        basis = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(rng.randint(1, n))]
        det = gram_determinant(basis)
        if not det:
            continue
        tried += 1
        reduced, d = _knapsack.lll(basis)
        assert lll_is_reduced(reduced), basis
        assert d[0] == 1 and len(d) == len(basis) + 1
        ratios = [Fraction(d[i], d[i - 1]) for i in range(1, len(d))]
        assert gram_schmidt(reduced)[1] == ratios, basis
        assert gram_determinant(reduced) == math.prod(ratios) == det, basis
    # Dependent vectors are refused, not reduced.
    with pytest.raises(_knapsack._Dependent):
        _knapsack.lll([[1, 2, 3], [2, 4, 6]])


def test_lattice_recombination_matches_subsets(monkeypatch):
    # With the cut-off at 3, every input with three or more lifted factors
    # takes the lattice; the factor lists, in order, are the subset search's.
    inputs = random_products() + [f for f, _ in eisenstein_products()] + twobridge_deltas()
    inputs += [swinnerton_dyer(3), swinnerton_dyer(4)]
    expected = [_intfactor.factor_primitive(f) for f in inputs]
    monkeypatch.setattr(_intfactor, "_KNAPSACK_MIN", 3)
    lifts = record_calls(monkeypatch, "hensel_lift")
    reductions = _spy_lll(monkeypatch)
    relifted, lattices = [], 0
    for f, want in zip(inputs, expected):
        lifts.clear()
        reductions.clear()
        assert _intfactor.factor_primitive(f) == want, f
        relifted.append(len({l for _, _, _, l in lifts}) > 1)
        lattices += bool(reductions)
    # 139 random products, 10 Eisenstein products, SD(3) and SD(4); no
    # two-bridge Delta leaves three modular factors unless its degree sets
    # prove it irreducible.  SD(3) and SD(4) run out of trace precision at
    # the first p^l.
    assert lattices >= 150
    assert relifted[-2] or relifted[-1]


def test_knapsack_factors_sd6_and_shifted_products(monkeypatch):
    # SD(6) is irreducible: its Galois group is (Z/2)^6.  The subset search
    # would try about 2^31 subsets of its 32 modular factors.  Every basis
    # that LLL returns on the way is checked against the oracle.
    calls = _spy_lll(monkeypatch)
    values = record_calls(monkeypatch, "_balanced_value")
    sd4, sd6 = swinnerton_dyer(4), swinnerton_dyer(6)
    parts = [sd4, shifted(sd4, 1), shifted(sd4, 2)]
    for f, want in ((swinnerton_dyer(5), [swinnerton_dyer(5)]), (sd6, [sd6]), (product(*parts), parts)):
        calls.clear()
        assert canonical(_intfactor.factor_squarefree(f)) == canonical(want)
        r = len(calls[0][0]) - 1
        assert r >= _intfactor._KNAPSACK_MIN
        # one LLL call with the trace column per column added
        assert len([1 for basis, _ in calls if len(basis[0]) > r]) <= 5
        for basis, (reduced, d) in calls:
            assert lll_is_reduced(reduced)
            assert gram_schmidt(reduced)[1] == [Fraction(d[i], d[i - 1]) for i in range(1, len(d))]
    assert values == []
