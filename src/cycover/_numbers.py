"""Primes and cyclotomic polynomials: the integer number theory of the factorization.

`is_prime` decides primality exactly below SPRP_BOUND, and `_primes` lists
the primes in increasing order for the prime searches of `_intfactor`.  The
cyclotomic split of `_intfactor` reads its candidates from `_CYCLOTOMIC`:
for every m with phi(m) up to a degree, Phi_m(b) at b = 2^_CYCLOTOMIC_BITS,
and Phi_m itself once a value has matched.
"""

from __future__ import annotations

import math
from itertools import combinations


# The first 13 primes.  As strong-probable-prime bases they decide primality
# for every n < SPRP_BOUND (Sorenson & Webster, Strong pseudoprimes to twelve
# prime bases, Math. Comp. 2017).
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
SPRP_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality for n < SPRP_BOUND; ValueError at or above it.

    Trial division by the bases comes first, which alone decides n < 41^2;
    then a strong-probable-prime test to each base.
    """
    if n < 2:
        return False
    for a in _SPRP_BASES:
        if n % a == 0:
            return n == a
    if n < _SPRP_BASES[-1] ** 2:
        return True
    if n >= SPRP_BOUND:
        raise ValueError(f"primality of {n} is decided only below {SPRP_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SPRP_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    n = 2
    while True:
        if is_prime(n):
            yield n
        n += 1


# The split evaluates at b = 2^_CYCLOTOMIC_BITS: a small b keeps f(b) and each
# Phi_m(b) short, and the rare false hit it lets through costs a second scan
# that confirms each hit by exact division.
_CYCLOTOMIC_BITS = 8


def _totients(n: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """(m, phi(m), the primes dividing m) for every m with phi(m) <= n, ascending m.

    A prime p dividing such an m has p - 1 <= n.  As phi is multiplicative,
    each m is built once, from powers of those primes taken in increasing order.
    """
    if n < 1:
        return []
    out: list[tuple[int, int, tuple[int, ...]]] = [(1, 1, ())]
    for p in _primes():
        if p - 1 > n:
            break
        for m, ph, ps in list(out):
            pk, phk = p, p - 1
            while ph * phk <= n:
                out.append((m * pk, ph * phk, ps + (p,)))
                pk *= p
                phk *= p
    return sorted(out)


def _moebius_divisors(primes: tuple[int, ...]) -> list[tuple[int, bool]]:
    """(d, mu(r/d) == -1) for each divisor d of r = prod(primes)."""
    r = math.prod(primes)
    subsets = (s for k in range(len(primes) + 1) for s in combinations(primes, k))
    return [(r // math.prod(s), len(s) % 2 == 1) for s in subsets]


def _cyclotomic_value(m: int, primes: tuple[int, ...], x: int) -> int:
    """Phi_m(x) = Phi_r(y), y = x^(m/r), r = prod(primes) the radical of m.

    Phi_r(y) is the product of (y^d - 1)^mu(r/d) over the divisors d of r.
    """
    y = x ** (m // math.prod(primes))
    num = den = 1
    for d, inverse in _moebius_divisors(primes):
        if inverse:
            den *= y**d - 1
        else:
            num *= y**d - 1
    return num // den


def _cyclotomic_poly(m: int, primes: tuple[int, ...]) -> list[int]:
    """Phi_m(t) = Phi_r(t^(m/r)), r = prod(primes) the radical of m.

    For r > 1, Phi_r is the product of (1 - t^d)^mu(r/d) over the divisors d
    of r, taken as a power series truncated at its degree phi(r).
    """
    if m == 1:
        return [-1, 1]
    r = math.prod(primes)
    n = math.prod(p - 1 for p in primes)
    c = [1] + [0] * n
    for d, inverse in _moebius_divisors(primes):
        if inverse:
            for i in range(d, n + 1):
                c[i] += c[i - d]
        else:
            for i in range(n, d - 1, -1):
                c[i] -= c[i - d]
    s = m // r
    out = [0] * (n * s + 1)
    out[::s] = c
    return out


class _CyclotomicTable:
    """Constants of the cyclotomic split for every m with phi(m) <= degree.

    rows holds (m, phi(m), Phi_m(b), the primes dividing m) in ascending m;
    polys holds each Phi_m the split has divided by.  The table grows with
    the largest degree split so far and is never trimmed.
    """

    def __init__(self) -> None:
        self.degree = 0
        self.rows: list[tuple[int, int, int, tuple[int, ...]]] = []
        self.polys: dict[int, list[int]] = {}

    def cover(self, n: int) -> list[tuple[int, int, int, tuple[int, ...]]]:
        if n > self.degree:
            b = 1 << _CYCLOTOMIC_BITS
            known = {row[0]: row for row in self.rows}
            self.rows = [
                known.get(m) or (m, ph, _cyclotomic_value(m, ps, b), ps)
                for m, ph, ps in _totients(n)
            ]
            self.degree = n
        return self.rows

    def poly(self, m: int, primes: tuple[int, ...]) -> list[int]:
        if m not in self.polys:
            self.polys[m] = _cyclotomic_poly(m, primes)
        return self.polys[m]


_CYCLOTOMIC = _CyclotomicTable()
