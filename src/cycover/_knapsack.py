"""Van Hoeij's knapsack: recombination of lifted modular factors by lattice reduction.

Internal helper of `_intfactor.factor_squarefree`, which imports it only for
an input with `_intfactor._KNAPSACK_MIN` or more lifted modular factors
(van Hoeij, J. Number Theory 95 (2002); the trace cut after Belabas, van
Hoeij, Klueners & Steel, J. Theor. Nombres Bordeaux 21 (2009); one column at
a time after van Hoeij & Novocin, LATIN 2010).  Integers only:

- f = lc * g_1 ... g_r mod p^l, the g_i monic.  A true factor h of f over Z
  is lc(h) times the product of the g_i over some subset S, so its 0/1
  vector w_S satisfies, for every j, sum over S of lc^j Tr_j(g_i) = lc^j
  times the j-th power sum of the roots of h, an integer of absolute value
  at most n (|lc| R)^j, R a bound on the roots of f (`root_bound`).  The
  power sums Tr_j(g_i) come from Newton's identities mod p^l;
- column j holds lc^j Tr_j(g_i) mod p^l with its p-adic digits below
  n (|lc| R)^j cut off, mod N = p^(l - a).  Each w_S then has a column
  entry of absolute value at most r + 1 (mod N), so a vector of norm^2 at
  most r + (r + 1)^2 over the r places and the column;
- the kept basis, starting from the identity, gets one column at a time:
  its vectors with the column appended, and the row N.  After `lll` every
  trailing vector whose Gram-Schmidt norm^2 exceeds that bound is dropped:
  a lattice vector no longer than it lies in the span of the vectors before
  (van Hoeij's lemma), so every w_S stays in the kept lattice.  The column
  is then dropped too; a column without which the kept vectors would be
  dependent, as when none was dropped, is passed over;
- once the kept vectors' columns group the factors into as many classes as
  there are vectors, the classes are a partition that every true factor's
  subset is a union of.  The caller confirms each class by exact division;
  a class that does not divide asks for more columns, and a column with too
  few digits left for a reduction to see asks for a further lift.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from operator import mul


class _Dependent(Exception):
    """The vectors given to `lll` are linearly dependent."""


def lll(basis: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """LLL-reduce independent integer vectors with delta = 3/4, exactly.

    Cohen's integral algorithm (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7): it keeps d_i, the Gram determinant of the first i
    vectors, and lambda_ij = d_j mu_ij, all integers, so no step rounds.
    Returns the reduced basis and [d_0 = 1, d_1, ..., d_k]; the Gram-Schmidt
    norm^2 of vector i (from 1) is d_i / d_(i-1).

    >>> lll([[1, 1, 1], [-1, 0, 2], [3, 5, 6]])
    ([[0, 1, 0], [1, 0, 1], [-1, 0, 2]], [1, 1, 2, 9])
    """
    b = [list(v) for v in basis]
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def reduce(k: int, j: int) -> None:
        # b_k -= q b_j, q the integer nearest mu_kj = lam[k][j] / d[j + 1]
        dj, lk = d[j + 1], lam[k]
        if 2 * abs(lk[j]) > dj:
            q = (2 * lk[j] + dj) // (2 * dj)
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            lk[j] -= q * dj
            lj = lam[j]
            for i in range(j):
                lk[i] -= q * lj[i]

    k, kmax = 1, 0
    d[1] = sum(map(mul, b[0], b[0])) if n else 1
    while k < n:
        if k > kmax:
            kmax = k
            lk = lam[k]
            for j in range(k + 1):
                u = sum(map(mul, b[k], b[j]))
                lj = lam[j]
                for i in range(j):
                    u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
                if j < k:
                    lk[j] = u
                elif u:
                    d[k + 1] = u
                else:
                    raise _Dependent
        reduce(k, k - 1)
        mu = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * mu * mu:
            b[k - 1], b[k] = b[k], b[k - 1]
            lk, lk1 = lam[k], lam[k - 1]
            for j in range(k - 1):
                lk[j], lk1[j] = lk1[j], lk[j]
            new = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
            for i in range(k + 1, kmax + 1):
                li = lam[i]
                t = li[k]
                li[k] = (d[k + 1] * li[k - 1] - mu * t) // d[k]
                li[k - 1] = (new * t + mu * li[k]) // d[k + 1]
            d[k] = new
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
    return b, d


def _root_at_least(num: int, den: int, i: int) -> int:
    """The least integer x >= 0 with x^i * den >= num, for den > 0."""
    lo, hi = 0, 1 << -(-(num // den).bit_length() // i) + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**i * den >= num:
            hi = mid
        else:
            lo = mid + 1
    return lo


def root_bound(f: list[int]) -> int:
    """An integer R with |z| <= R for every complex root z of f, deg f >= 1.

    Fujiwara's bound 2 max(|a_(n-i) / a_n|^(1/i), i < n; |a_0 / (2 a_n)|^(1/n)),
    each root taken up to an integer.

    >>> root_bound([-2, 0, 1]), root_bound([6, -5, 1]), root_bound([1, 0, 0, 1])
    (2, 10, 2)
    """
    n, lc = len(f) - 1, abs(f[-1])
    return 2 * max(_root_at_least(abs(f[n - i]), lc if i < n else 2 * lc, i) for i in range(1, n + 1))


def _next_power_sum(g: list[int], sums: list[int], m: int) -> int:
    """Tr_j(g) mod m, j = len(sums) + 1, the power sums Tr_1..Tr_(j-1) of the
    roots of the monic g given (Newton's identities)."""
    e, j = len(g) - 1, len(sums) + 1
    v = -j * g[e - j] if j <= e else 0
    for i in range(1, min(j - 1, e) + 1):
        v -= g[e - i] * sums[j - i - 1]
    return v % m


def partitions(
    f: list[int], p: int, l: int, lifted: list[list[int]], lift: Callable[[int], list[list[int]]]
) -> Iterator[tuple[int, list[list[int]], list[list[int]]]]:
    """Candidate partitions of the lifted factors of f into the true factors.

    lifted are the monic factors of f mod p^l, lc(f) times their product
    f; lift(l') lifts the same modular factors, in the same order, to p^l'.
    Yields (p^l, lifted, parts) with the current lift and the classes of
    factor indices, sorted by size and then by index as the subset search
    would find them.  Every true factor's subset is a union of classes;
    the caller divides, and resumes the generator for more columns when a
    class is not a factor.  A single class proves f irreducible.
    """
    n, r, lc = len(f) - 1, len(lifted), f[-1]
    scale = abs(lc) * root_bound(f)
    bound = r + (r + 1) ** 2
    basis = [[int(i == j) for j in range(r)] for i in range(r)]
    while True:
        pl = p**l
        sums: list[list[int]] = [[] for _ in lifted]
        j, cut = 0, n
        while True:
            j, cut = j + 1, cut * scale
            pa = 1
            while pa < cut:
                pa *= p
            N = pl // pa
            # Too few digits left: within LLL's factor 2^(k - 1) on norm^2,
            # the row N itself is as short as the bound.
            if N * N <= bound << len(basis):
                break
            col = []
            for g, s in zip(lifted, sums):
                s.append(_next_power_sum(g, s, pl))
                col.append(lc**j * s[-1] % pl // pa)
            half = N // 2
            rows = [v + [(sum(map(mul, v, col)) + half) % N - half] for v in basis]
            kept, d = lll([[0] * r + [N]] + rows)
            while d[-1] > bound * d[-2]:
                kept.pop()
                d.pop()
            try:
                basis = lll([v[:r] for v in kept])[0]
            except _Dependent:
                # The kept vectors need the column to stay independent, as
                # when none was dropped: the column is passed over.
                continue
            classes: dict[tuple[int, ...], list[int]] = {}
            for i in range(r):
                classes.setdefault(tuple(v[i] for v in basis), []).append(i)
            if len(classes) == len(basis):
                yield pl, lifted, sorted(classes.values(), key=lambda c: (len(c), c))
        l *= 2
        lifted = lift(l)
