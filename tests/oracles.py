"""Independent cross-checks used by the test suite.

Each oracle recomputes a result the library produces, by a different
mechanism: primality by trial division, factorization by bounded divisor
search, products term by term, determinants by the Leibniz expansion over plain dicts, gcds by
Euclid over the rationals, factorization over GF(p) by trial
division by every monic polynomial of low degree, cyclotomic polynomials by
rational division of t^m - 1 and the cyclotomic factors of a polynomial by
trying every one of small enough degree, divisions and gcds over Z/m by long
division on lists, p-adic roots by trying every digit at each power of p,
the rows of Berlekamp's matrix by
long division and convolution, biinfinite solution
counts by Gaussian elimination on stencil matrices, solvability by brute
seed propagation, minimal recurrences by Gauss-Jordan over the rationals
and propagation one Fraction per step, LLL reduction by the Gram-Schmidt
form over the rationals and Gram determinants by elimination, entropy by a dense eigenvalue call,
shift-graph edges by evaluating every template on every window, the
essential states of a graph by repeated degree counts, closed walks by an exact matrix power, the
census class by degree counts and reachability, strongly connected
components by a breadth-first search from every state, the census and the
periodic labelings of a shift graph from every essential state, not from
one state per conjugacy orbit (Kosaraju's components, the exact power
iteration over all states, a depth-first search from every start), the
census of an abelian shift from its whole graph, not from counted
windows, and Brown's
finite-generation verdict by a letter-by-letter walk.  None of them share code paths with the
implementations they audit.

Some are checkers that the program itself does not need: a factorization
multiplied back term by term, the centered symmetric form of a knot
polynomial and the index-2 criterion read from it (a second derivation of
`analyze`'s `index2`), equality of words up to cyclic permutation and
inversion letter by letter, the associativity of a group table by trying
every triple, the table of a symmetric group by composing every pair of
permutations, the digits of a shift-graph state by positional division,
and a shift graph built from plain lists of targets, or from rows
checked invariant under conjugation.

The parser of presentation text is checked against one that tries every
declared generator at each token, the cyclic reduction of a
word against stripping one pair of ends at a time, and the exponent matrix
against one pass over a relator per generator.  Powers and substitutions
are checked against multiplying one piece at a time, the Fox matrix against
one walk over a relator per column, and the echelon against the textbook
one that divides every row at every step.  The Alexander polynomial of a
closed braid is checked against the determinant of its Burau matrix.
"""

import math
import re
from fractions import Fraction
from itertools import permutations, product, repeat

import numpy as np

from cycover.laurent import LaurentPoly, ZeroPolynomial
from cycover.repshift import FiniteGroup, SftGraph, _allowed, _label_orbits, census
from cycover.rscover import abelianized_recurrence
from cycover.words import (
    DuplicateGenerator,
    FreeWord,
    ParseError,
    Presentation,
    UnknownGenerator,
)


# -- primality by trial division ----------------------------------------


def primes_by_trial_division(limit):
    """Flags prime[n] for n < limit, each n divided by the primes up to its square root."""
    primes, flags = [], [False] * limit
    k = 0  # primes[:k] are the primes p with p * p <= n
    for n in range(2, limit):
        while k < len(primes) and primes[k] ** 2 <= n:
            k += 1
        if all(n % p for p in primes[:k]):
            primes.append(n)
            flags[n] = True
    return flags


# -- factorization by box search ----------------------------------------


def _divisors(n):
    n = abs(n)
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _poly_div_exact(num, den):
    """Exact quotient of dense integer polynomials, else None."""
    num = [Fraction(c) for c in num]
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = num[i + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            num[i + j] -= q[i] * d
    if any(c != 0 for c in num):
        return None
    if any(c.denominator != 1 for c in q):
        return None
    return [int(c) for c in q]


def _primitive_positive(c):
    g = math.gcd(*(abs(x) for x in c))
    if c[-1] < 0:
        g = -g
    return tuple(x // g for x in c)


def _split(c):
    """Irreducible factors of a primitive poly with c[0] != 0, lc > 0."""
    n = len(c) - 1
    if n == 0:
        return []
    if n == 1:
        return [tuple(c)]
    bound = math.ceil(4 * math.isqrt(sum(x * x for x in c)) + 4)
    for m in range(1, n // 2 + 1):
        for lead in _divisors(c[-1]):
            for const in _divisors(c[0]):
                for signed_const in (const, -const):
                    middles = product(range(-bound, bound + 1), repeat=m - 1)
                    for mid in middles:
                        g = (signed_const,) + mid + (lead,)
                        q = _poly_div_exact(list(c), list(g))
                        if q is None:
                            continue
                        return sorted(
                            _split(_primitive_positive(g))
                            + _split(_primitive_positive(tuple(q)))
                        )
    return [tuple(c)]


def box_factor(f: LaurentPoly):
    """Multiset of irreducible factors as canonical LaurentPolys.

    Exhaustive search over divisor candidates whose end coefficients
    divide the input's and whose middle coefficients sit inside a norm
    box.  Exponential, fine for degree <= 4.
    """
    dense = f.shifted_to_zero().dense()
    if not dense:
        raise ValueError("zero polynomial")
    parts = _split(_primitive_positive(tuple(dense)))
    out = {}
    for part in parts:
        g = LaurentPoly.from_coeffs(part)
        out[g] = out.get(g, 0) + 1
    return sorted(out.items(), key=lambda kv: (kv[0].degree_span(), kv[0].dense()))


# -- products, gcds and factors over GF(p), the direct way ---------------


def schoolbook_mul(f, g):
    """Product of dense integer polynomials, term by term, high zeros dropped."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return out


def multiply_back(fac):
    """sign * t^unit_exp * content * prod(f^m) of a Factorization, term by term."""
    dense = [fac.sign * fac.content]
    for f, m in fac.factors:
        for _ in range(m):
            dense = schoolbook_mul(dense, f.dense())  # factors start at t^0
    return LaurentPoly.from_coeffs(dense, low=fac.unit_exp)


def _dict_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _dict_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def leibniz_det(rows):
    """Determinant of a square matrix of Laurent polynomials, each {exponent: coeff}.

    The sum over all permutations of the signed products of one entry per
    row and column, multiplied term by term in plain dicts.
    """
    k = len(rows)
    total = {}
    for perm in permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = {0: -1 if inversions % 2 else 1}
        for i, j in enumerate(perm):
            term = _dict_mul(term, rows[i][j])
        total = _dict_add(total, term)
    return total


# sigma_i and its inverse on strands i and i + 1 of the unreduced Burau matrix
_BURAU_BLOCKS = {
    1: (({0: 1, 1: -1}, {1: 1}), ({0: 1}, {})),
    -1: (({}, {0: 1}), ({-1: 1}, {0: 1, -1: -1})),
}


def burau_alexander(n, word):
    """Alexander polynomial of a closed braid, from its Burau matrix, normalized.

    `word` lists the letters of a braid b in B_n as in `corpus.artin_presentation`.
    sigma_i acts on strands i and i + 1 by the block [[1 - t, t], [1, 0]],
    its inverse by [[0, 1], [t^-1, 1 - t^-1]], and up to a unit +-t^k the
    Alexander polynomial of the closure is det(I - B(b)) with the last row
    and column deleted (Birman, *Braids, Links and Mapping Class Groups*,
    ch. 3).  The matrix is a product of blocks in plain dicts, and the
    determinant is `leibniz_det`: no Fox calculus and no Smith form.
    """
    b = [[{0: 1} if i == j else {} for j in range(n)] for i in range(n)]
    for letter in word:
        i = abs(letter) - 1
        (a00, a01), (a10, a11) = _BURAU_BLOCKS[1 if letter > 0 else -1]
        for row in b:
            u, v = row[i], row[i + 1]
            row[i] = _dict_add(_dict_mul(u, a00), _dict_mul(v, a10))
            row[i + 1] = _dict_add(_dict_mul(u, a01), _dict_mul(v, a11))
    minor = [
        [_dict_add({0: 1} if i == j else {}, {e: -c for e, c in b[i][j].items()}) for j in range(n - 1)]
        for i in range(n - 1)
    ]
    return LaurentPoly(leibniz_det(minor)).normalize()


def gcd_over_Q(f, g):
    """Primitive gcd with positive lead, by Euclid's algorithm over Fraction."""
    a = [Fraction(c) for c in f]
    b = [Fraction(c) for c in g]
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    while b:
        rem = list(a)
        while len(rem) >= len(b):
            coef = rem[-1] / b[-1]
            shift = len(rem) - len(b)
            for j, c in enumerate(b):
                rem[shift + j] -= coef * c
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        a, b = b, rem
    if not a:
        return []
    den = math.lcm(*(c.denominator for c in a))
    return list(_primitive_positive([int(c * den) for c in a]))


def gf_factor_bruteforce(f, p):
    """Monic irreducible factors of f over GF(p), with multiplicity, sorted.

    Trial division by every monic polynomial of degree 1, 2, ... in turn,
    up to half the degree of what is left: a divisor found at the lowest
    degree still possible is irreducible.  All candidates of one degree are
    divided at once, as rows of an integer array.
    """
    rest = [c % p for c in f]
    while rest and rest[-1] == 0:
        rest.pop()
    inv = pow(rest[-1], -1, p)
    rest = [c * inv % p for c in rest]
    out = []
    d = 1
    while 2 * d <= len(rest) - 1:
        # Rows: the monic candidates of degree d, low coefficients first.
        low = np.array(list(product(range(p), repeat=d)), dtype=np.int64).reshape(-1, d)
        cands = np.hstack([low, np.ones((len(low), 1), dtype=np.int64)])
        rem = np.tile(np.array(rest, dtype=np.int64), (len(cands), 1))
        for k in range(len(rest) - 1, d - 1, -1):
            rem[:, k - d : k + 1] = (rem[:, k - d : k + 1] - rem[:, k : k + 1] * cands) % p
        for c, r in zip(cands, rem):
            if r.any():
                continue
            g = [int(x) for x in c]
            while (q := _gf_exact_quotient(rest, g, p)) is not None:
                out.append(g)
                rest = q
        d += 1
    if len(rest) > 1:
        out.append(rest)
    return sorted(out)


def _gf_exact_quotient(f, g, p):
    """f / g over GF(p) for monic g when g divides f, else None."""
    rem = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = rem[k + len(g) - 1] % p
        for j, c in enumerate(g):
            rem[k + j] = (rem[k + j] - q[k] * c) % p
    return None if any(rem) else q


def divmod_mod_m(f, g, m):
    """Quotient and remainder of f by g modulo m, one coefficient at a time,
    high zeros dropped.  lc(g) must be a unit mod m: g monic when m is
    composite."""

    def reduced(h):
        h = [c % m for c in h]
        while h and h[-1] == 0:
            h.pop()
        return h

    f, g = reduced(f), reduced(g)
    inv = pow(g[-1], -1, m)
    rem = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = rem[k + len(g) - 1] * inv % m
        for j, c in enumerate(g):
            rem[k + j] = (rem[k + j] - q[k] * c) % m
    return reduced(q), reduced(rem[: len(g) - 1])


def gcd_mod_p(f, g, p):
    """Monic gcd over GF(p) by Euclid's algorithm, remainders by divmod_mod_m."""
    a, b = divmod_mod_m(f, [1], p)[0], divmod_mod_m(g, [1], p)[0]
    while b:
        a, b = b, divmod_mod_m(a, b, p)[1]
    return [c * pow(a[-1], -1, p) % p for c in a] if a else []


def padic_root(f, r, p, l):
    """The root of the integer polynomial f modulo p^l above its simple root r mod p.

    Lifted one p-adic digit at a time: the root mod p^(k+1) is r + d p^k, r
    the root mod p^k, for the one digit d of the p tried that makes f vanish
    mod p^(k+1).  f is evaluated exactly, term by term.
    """
    r %= p
    for k in range(1, l):
        pk = p**k
        value = [sum(c * (r + d * pk) ** i for i, c in enumerate(f)) for d in range(p)]
        digits = [d for d in range(p) if value[d] % (pk * p) == 0]
        assert len(digits) == 1, f"{r} is not a simple root mod {p}"
        r += digits[0] * pk
    return r


def frobenius_rows(f, p):
    """Rows x^(p*i) mod f over GF(p), i < deg f, for monic f, as lists of ints.

    x^p mod f by long division of the monomial, then each row as the product
    of the one before with it (numpy convolution) reduced by long division.
    """
    n = len(f) - 1
    fa = np.array(f, dtype=np.int64)

    def rem(g):
        g = g % p
        for k in range(len(g) - 1, n - 1, -1):
            g[k - n : k + 1] = (g[k - n : k + 1] - g[k] * fa) % p
        return np.concatenate([g[:n], np.zeros(max(0, n - len(g)), dtype=np.int64)])

    xp = rem(np.array([0] * p + [1], dtype=np.int64))
    row = np.zeros(n, dtype=np.int64)
    row[0] = 1
    rows = []
    for _ in range(n):
        rows.append([int(c) for c in row])
        row = rem(np.convolve(row, xp))
    return rows


# -- cyclotomic factors by rational division -----------------------------


def totients_upto(n):
    """[phi(0), phi(1), ..., phi(n)] by a sieve, phi(0) = 0."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


_CYCLOTOMIC = {}


def cyclotomic(m):
    """Phi_m, dividing t^m - 1 by Phi_d for each divisor d < m of m in turn."""
    if m not in _CYCLOTOMIC:
        f = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                f = _poly_div_exact(f, cyclotomic(d))
        _CYCLOTOMIC[m] = f
    return list(_CYCLOTOMIC[m])


def cyclotomic_divisors(f):
    """Ascending m with Phi_m dividing f, trying every m with phi(m) <= deg f.

    phi(m) >= sqrt(m / 2) for every m, so no such m exceeds 2 deg(f)^2.
    """
    n = len(f) - 1
    phi = totients_upto(2 * n * n)
    candidates = [m for m in range(1, len(phi)) if phi[m] <= n]
    return [m for m in candidates if _poly_div_exact(f, cyclotomic(m)) is not None]


# -- biinfinite solution counts mod p -----------------------------------


def _nullspace_mod_p(rows, ncols, p):
    a = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                c = a[i][col]
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = (-a[ri][fc]) % p
        basis.append(v)
    return basis


def _rank_mod_p(rows, p):
    a = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                c = a[i][col]
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def minimal_polynomial_mod_p(a, u, p):
    """The monic minimal polynomial of a in GF(p)[x]/(u), u monic, ascending.

    The powers 1, a, a^2, ... mod u, by schoolbook products and long
    division, are the columns of a matrix over GF(p); at the first k for
    which the columns of a^0 to a^k have a null space it is one vector, with
    1 at the place of a^k.
    """
    d = len(u) - 1

    def rem(g):
        g = [c % p for c in g]
        for top in range(len(g) - 1, d - 1, -1):
            c = g[top]
            for i, b in enumerate(u):
                g[top - d + i] = (g[top - d + i] - c * b) % p
        return (g + [0] * d)[:d]

    powers = [rem([1])]
    while True:
        powers.append(rem(schoolbook_mul(powers[-1], a)))
        basis = _nullspace_mod_p([list(r) for r in zip(*powers)], len(powers), p)
        if basis:
            return basis[0]


def window_rank_count(coeff_pairs, p, inner=24):
    """Number of biinfinite solutions mod p of one recurrence stencil.

    Builds every shift of the stencil inside a padded window, solves for
    the nullspace by elimination, and counts the dimension left after
    projecting onto the inner window, discarding boundary-only freedom.
    Returns p ** dimension.
    """
    if all(c % p == 0 for _, c in coeff_pairs):
        raise ValueError("stencil vanishes mod p, count is not finite")
    offsets = [o for o, _ in coeff_pairs]
    w = max(offsets) - min(offsets) if offsets else 0
    length = inner + 2 * (w + 1)
    rows = []
    for i in range(length - w):
        row = [0] * length
        for off, c in coeff_pairs:
            row[i + off - min(offsets)] += c
        rows.append(row)
    basis = _nullspace_mod_p(rows, length, p)
    if not basis:
        return 1
    start = (length - inner) // 2
    projected = [v[start : start + inner] for v in basis]
    return p ** _rank_mod_p(projected, p)


# -- brute-force solvability over a seed box ----------------------------


def _seeds_survive(asc, seeds, steps):
    """Seeds (rows) whose forward propagation stays integral for `steps`.

    Stages int64 vector arithmetic while values are provably inside the
    safe range, then finishes the survivors with exact Python integers.
    Dead rows are compacted away each step; row identity is preserved by
    returning the surviving seed rows themselves.
    """
    d = len(asc) - 1
    lead = asc[-1]
    seeds = np.asarray(seeds, dtype=np.int64)
    if abs(lead) == 1:
        return seeds  # division by a unit never fails
    window = seeds.copy()
    safe_steps = 0
    limit = 2**62 // (sum(abs(c) for c in asc) + 1)
    while safe_steps < steps and len(seeds):
        if int(np.abs(window).max(initial=1)) >= limit:
            break
        s = np.zeros(len(seeds), dtype=np.int64)
        for k in range(d):
            s += asc[k] * window[:, k]
        alive = s % lead == 0
        seeds = seeds[alive]
        window = np.concatenate(
            [window[alive, 1:], (-s[alive] // lead)[:, None]], axis=1
        )
        safe_steps += 1
    if safe_steps < steps and len(seeds):
        keep = []
        for idx in range(len(seeds)):
            vals = [int(x) for x in window[idx]]
            ok = True
            for _ in range(steps - safe_steps):
                s = sum(asc[k] * vals[k] for k in range(d))
                if s % lead:
                    ok = False
                    break
                vals = vals[1:] + [-s // lead]
            if ok:
                keep.append(idx)
        seeds = seeds[keep]
    return seeds


def _seed_grid(box, d):
    if (box, d) not in _GRIDS:
        grid = np.array(
            list(product(range(-box, box + 1), repeat=d)), dtype=np.int64
        )
        _GRIDS[(box, d)] = grid[~np.all(grid == 0, axis=1)]
    return _GRIDS[(box, d)]


_GRIDS = {}


def propagation_box_verdict(asc, box=10, steps=40):
    """True iff some nonzero seed in [-box, box]^d propagates integrally
    for `steps` steps in both directions."""
    d = len(asc) - 1
    fwd = _seeds_survive(tuple(asc), _seed_grid(box, d), steps)
    if not len(fwd):
        return False
    # backward propagation is forward propagation of the reversed stencil
    # applied to the reversed seed; only forward survivors need it
    bwd = _seeds_survive(tuple(reversed(asc)), fwd[:, ::-1].copy(), steps)
    return bool(len(bwd))


# -- recurrences over the rationals -------------------------------------


def _frac_nullspace(rows, ncols):
    a = [row[:] for row in rows]
    nrows = len(a)
    where = [-1] * ncols
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][col] != 0:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[r])]
        where[col] = r
        r += 1
    basis = []
    for col in range(ncols):
        if where[col] != -1:
            continue
        v = [Fraction(0)] * ncols
        v[col] = Fraction(1)
        for c2 in range(ncols):
            if where[c2] != -1:
                v[c2] = -a[where[c2]][col]
        basis.append(v)
    return basis


def fraction_minimal_recurrence(values, dmax):
    """`recurrence.minimal_recurrence` by Gauss-Jordan over Fractions, degree by degree.

    Returns the primitive ascending coefficients, leading one positive, or None.
    """
    vals = [Fraction(v) for v in values]
    if all(v == 0 for v in vals):
        return None
    for d in range(1, dmax + 1):
        rows = [vals[n : n + d + 1] for n in range(len(vals) - d)]
        for v in _frac_nullspace(rows, d + 1):
            if v[0] == 0 or v[d] == 0:
                continue
            den = 1
            for x in v:
                den = den * x.denominator // math.gcd(den, x.denominator)
            ints = [int(x * den) for x in v]
            g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
            return tuple(x // g for x in ints)
    return None


def fraction_propagate(a, seed, forward, steps):
    """`recurrence.propagate` with a Fraction window: the values produced, outward.

    a holds the ascending coefficients; forward divides by a[-1], backward by a[0].
    """
    d = len(a) - 1
    window = [Fraction(v) for v in seed]
    produced = []
    for _ in range(steps):
        if forward:
            s = sum(a[k] * window[-d + k] for k in range(d))
            window.append(Fraction(-s, a[d]))
            produced.append(window[-1])
        else:
            s = sum(a[k] * window[k - 1] for k in range(1, d + 1))
            window.insert(0, Fraction(-s, a[0]))
            produced.append(window[0])
    return tuple(produced)


# -- lattice reduction over the rationals ---------------------------------


def gram_schmidt(basis):
    """(mu, norms): the Gram-Schmidt coefficients mu[i][j], j < i, and the
    squared norms |b*_i|^2 of the rows of basis, over Fraction."""
    ortho, mu, norms = [], [], []
    for b in basis:
        v = [Fraction(x) for x in b]
        row = []
        for u, nu in zip(ortho, norms):
            m = sum(x * y for x, y in zip(b, u)) / nu if nu else Fraction(0)
            row.append(m)
            v = [x - m * y for x, y in zip(v, u)]
        ortho.append(v)
        mu.append(row)
        norms.append(sum(x * x for x in v))
    return mu, norms


def lll_is_reduced(basis, delta=Fraction(3, 4)):
    """True when the rows of basis are independent and LLL-reduced: every
    |mu_ij| <= 1/2, and Lovasz's condition |b*_i|^2 >= (delta - mu_(i,i-1)^2)
    |b*_(i-1)|^2 holds at each i."""
    mu, norms = gram_schmidt(basis)
    if not all(norms):
        return False
    if any(abs(m) > Fraction(1, 2) for row in mu for m in row):
        return False
    return all(norms[i] >= (delta - mu[i][i - 1] ** 2) * norms[i - 1] for i in range(1, len(basis)))


def gram_determinant(basis):
    """det(B B^T) for the rows B of basis, by Gaussian elimination over Fraction."""
    a = [[Fraction(sum(x * y for x, y in zip(u, v))) for v in basis] for u in basis]
    det = Fraction(1)
    for col in range(len(a)):
        piv = next((i for i in range(col, len(a)) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, len(a)):
            c = a[i][col] / a[col][col]
            a[i] = [x - c * y for x, y in zip(a[i], a[col])]
    return det


# -- shift graphs from plain lists --------------------------------------


def graph_from_lists(lists):
    """The window-1 SftGraph over Z/len(lists) in which state s has the targets lists[s].

    At window 1 a state's targets are its digits; each state's are made
    ascending and distinct, as a shift graph's are.
    """
    return SftGraph(window=1, group=FiniteGroup.cyclic(len(lists)), digits=[sorted(set(t)) for t in lists])


def abelian_graph_census(sp, group):
    """The census of a shift over an abelian group from its whole graph,
    not from counted windows: every window solved for its digits, and the
    census of a graph given those, which builds it in CSR form, trims it
    and reads the essential subgraph (Tarjan's components, the power
    iteration)."""
    templates = [list(r.coefficients) for r in abelianized_recurrence(sp)]
    windows = range(group.order ** max(sp.width, 1))
    digits = list(_allowed(templates, group, sp.width, windows))
    return census(SftGraph(window=sp.width, group=group, digits=digits))


def graph_from_invariant_rows(group, rows):
    """The window-1 SftGraph over a non-abelian group in which state x has the targets rows[x].

    The rows must be invariant under conjugation, as a shift graph's are:
    conjugating x and its targets by a generator gives the row of the
    conjugate of x.  The graph is then built as `build_sft` builds it, from
    the orbits of the group's elements and the representatives' rows.
    """
    for g in group.generators:
        row = group.conj[g]
        for x, targets in enumerate(rows):
            assert sorted(row[y] for y in targets) == sorted(rows[row[x]]), (g, x)
    orbits = _label_orbits(group, 1)
    digits = [sorted(rows[r]) for r in orbits.reps]
    return SftGraph(window=1, group=group, orbits=orbits, digits=digits)


# -- spectral radius ----------------------------------------------------


def perron_entropy(graph):
    """log of the spectral radius of the essential adjacency matrix."""
    nodes = [s for s in range(graph.state_count) if graph.essential[s]]
    if not nodes:
        return 0.0
    pos = {s: i for i, s in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)))
    for s in nodes:
        for t in graph.successors[s]:
            if graph.essential[t]:
                a[pos[s], pos[t]] = 1.0
    rho = max(abs(np.linalg.eigvals(a)))
    return float(np.log(rho)) if rho > 1.0 else 0.0


# -- essential states, closed walks and census class --------------------


def essential_fixed_point(n, edges):
    """Flags of the states on a biinfinite path of the graph (n, edges).

    Every round drops each state with no live in-edge or no live
    out-edge, counting only edges between live states, until a round
    drops nothing.
    """
    live = [True] * n
    while True:
        has_in, has_out = [False] * n, [False] * n
        for s, t in edges:
            if live[s] and live[t]:
                has_out[s] = has_in[t] = True
        nxt = [live[s] and has_in[s] and has_out[s] for s in range(n)]
        if nxt == live:
            return live
        live = nxt


def _essential_matrix(n, edges):
    live = essential_fixed_point(n, edges)
    index = {s: i for i, s in enumerate(s for s in range(n) if live[s])}
    a = [[0] * len(index) for _ in index]
    for s, t in edges:
        if s in index and t in index:
            a[index[s]][index[t]] = 1
    return a


def closed_walks(n, edges, length):
    """trace(A^length) of the essential adjacency matrix, in exact integers."""
    a = _essential_matrix(n, edges)
    k = len(a)
    power = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(length):
        power = [[sum(row[m] * a[m][j] for m in range(k)) for j in range(k)] for row in power]
    return sum(power[i][i] for i in range(k))


def census_class(n, edges):
    """(classification, count) from degree counts and reachability.

    OnlyTrivial: one essential state.  Finite: every essential in- and
    out-degree is 1, so the points are the essential states.  Otherwise
    the entropy is positive iff some state has two out-edges to states
    from which it can be reached again (transitive closure by Warshall).
    """
    a = _essential_matrix(n, edges)
    k = len(a)
    if k == 1:
        return "OnlyTrivial", 1
    out_deg = [sum(row) for row in a]
    in_deg = [sum(a[i][j] for i in range(k)) for j in range(k)]
    if all(d == 1 for d in out_deg + in_deg):
        return "Finite", k
    reach = [[bool(a[i][j]) or i == j for j in range(k)] for i in range(k)]
    for m in range(k):
        for i in range(k):
            if reach[i][m]:
                reach[i] = [x or y for x, y in zip(reach[i], reach[m])]
    if any(sum(1 for j in range(k) if a[i][j] and reach[j][i]) >= 2 for i in range(k)):
        return "PositiveEntropy", None
    return "InfiniteZeroEntropy", None


# -- census and periodic points over every essential state ---------------


def _essential_lists(graph):
    """(nodes, succ): the essential states in state order, and for each the
    positions of its essential successors, ascending."""
    ess = graph.essential
    nodes = [s for s in range(graph.state_count) if ess[s]]
    pos = {s: i for i, s in enumerate(nodes)}
    return nodes, [[pos[t] for t in graph.successors[s] if ess[t]] for s in nodes]


def _components_kosaraju(succ):
    """The strongly connected component of each state, by Kosaraju's two
    passes: depth-first finishing order, then reachability over the
    reversed edges in reverse finishing order."""
    n = len(succ)
    seen, order = [False] * n, []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for u in it:
                if not seen[u]:
                    seen[u] = True
                    stack.append((u, iter(succ[u])))
                    break
            else:
                stack.pop()
                order.append(v)
    pred = [[] for _ in range(n)]
    for v in range(n):
        for u in succ[v]:
            pred[u].append(v)
    comp, count = [-1] * n, 0
    for root in reversed(order):
        if comp[root] >= 0:
            continue
        comp[root] = count
        stack = [root]
        while stack:
            v = stack.pop()
            for u in pred[v]:
                if comp[u] < 0:
                    comp[u] = count
                    stack.append(u)
        count += 1
    return comp


def perron_log_over_states(succ, tol, max_iter=100000):
    """The power iteration that `repshift._perron_log` runs on the orbit
    graph, run here over every essential state: exact integer vectors
    v <- (I + A^T) v from v = 1, the vector sum's growth ratio compared from
    step to step, and every entry floored by the same power of two once the
    sum passes 4000 bits.  `_perron_log`'s u[O] is |O| times the v of each
    state of orbit O, so every sum here is one of its sums."""
    n = len(succ)
    v = [1] * n
    prev_ratio = None
    total = n
    for _ in range(max_iter):
        nxt = list(v)
        for s, targets in enumerate(succ):
            for t in targets:
                nxt[t] += v[s]
        new_total = sum(nxt)
        ratio = new_total / total
        if prev_ratio is not None and abs(ratio - prev_ratio) < tol:
            return math.log(ratio - 1.0) if ratio > 1.0 else 0.0
        prev_ratio = ratio
        v, total = nxt, new_total
        if total.bit_length() > 4000:
            shift = total.bit_length() - 2000
            v = [max(x >> shift, 1) for x in v]
            total = sum(v)
            prev_ratio = None
    raise ArithmeticError("entropy iteration did not converge")


def census_over_states(graph, tol=1e-6):
    """(classification, count, entropy) of a shift graph from every
    essential state: one state is OnlyTrivial, one essential successor each
    is Finite, no state with two successors in its own component (by
    Kosaraju) has zero entropy, and otherwise `perron_log_over_states`."""
    nodes, succ = _essential_lists(graph)
    if len(nodes) == 1:
        return "OnlyTrivial", 1, 0.0
    if all(len(targets) == 1 for targets in succ):
        return "Finite", len(nodes), 0.0
    comp = _components_kosaraju(succ)
    if all(sum(comp[t] == comp[s] for t in targets) < 2 for s, targets in enumerate(succ)):
        return "InfiniteZeroEntropy", None, 0.0
    return "PositiveEntropy", None, perron_log_over_states(succ, tol)


def periodic_by_search_from_every_state(graph, length):
    """The labelings of the closed walks of the given length, sorted: a
    depth-first search from every essential state over all walks, each
    labeled by the first coordinates of its states."""
    nodes, succ = _essential_lists(graph)
    scale = graph.group.order ** (max(graph.window, 1) - 1)
    first = [s // scale for s in nodes]
    found = []

    def walk(path):
        if len(path) == length:
            if path[0] in succ[path[-1]]:
                found.append(tuple(first[v] for v in path))
            return
        for u in succ[path[-1]]:
            walk(path + [u])

    for start in range(len(nodes)):
        walk([start])
    labels = graph.group.labels
    return [tuple(labels[x] for x in tup) for tup in sorted(found)]


def orbits_by_conjugator_search(group, window):
    """The orbits of the windows of max(window, 1) digits under conjugation,
    as (orbit, carry) over the states: a search from each state not yet
    reached, in state order, conjugates windows digit by digit by the
    group's generators (their conjugations generate the inner automorphisms;
    a central one moves nothing), and numbers the orbits as it finds them.
    Conjugating each digit of the first state of orbit orbit[s] by carry[s]
    gives the window of s."""
    n, mult, inv = group.order, group.mult, group.inv
    w = max(window, 1)
    count = n**w
    moves = []  # (x, the state of each state's window conjugated by x)
    for x in group.generators:
        row, x_inv = mult[x], inv[x]
        conj = [mult[row[y]][x_inv] for y in range(n)]
        image = [0] * count
        for s in range(count):
            t = 0
            for k in range(w):
                t = t * n + conj[s // n ** (w - 1 - k) % n]
            image[s] = t
        moves.append((x, image))
    orbit = [-1] * count
    carry = [0] * count
    found = 0
    for s in range(count):
        if orbit[s] >= 0:
            continue
        orbit[s] = found
        todo = [s]
        for u in todo:  # grows as the search finds the orbit
            for x, image in moves:
                v = image[u]
                if orbit[v] < 0:
                    orbit[v] = found
                    carry[v] = mult[x][carry[u]]
                    todo.append(v)
        found += 1
    return orbit, carry


def sccs_by_reachability(successors):
    """The strongly connected components of a graph, as a set of frozensets
    of states: two states share one iff each reaches the other, with the
    states each one reaches found by breadth-first search from it."""
    reach = []
    for s in range(len(successors)):
        seen, frontier = {s}, [s]
        while frontier:
            frontier = {t for v in frontier for t in successors[v]} - seen
            seen.update(frontier)
        reach.append(seen)
    return {frozenset(t for t in reach[s] if s in reach[t]) for s in range(len(successors))}


# -- group tables ---------------------------------------------------------


def first_non_associative_triple(rows):
    """The first triple (a, b, c), in lexicographic order, with
    (ab)c != a(bc) in the multiplication table rows, or None: the full scan,
    every triple tried entry by entry."""
    n = len(rows)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    return a, b, c
    return None


def _cycle_text(perm):
    """perm in cycle notation on the points 1..k, each cycle from its least
    point, fixed points dropped, and "id" for the identity."""
    cycles, seen = [], set()
    for start in range(len(perm)):
        if start not in seen and perm[start] != start:
            cyc = [start]
            while perm[cyc[-1]] != start:
                cyc.append(perm[cyc[-1]])
            seen.update(cyc)
            cycles.append("(" + "".join(str(x + 1) for x in cyc) + ")")
    return "".join(cycles) or "id"


def symmetric_table_by_composition(k):
    """(labels, mult) of the permutations of k points in lexicographic
    order: every product f*g, (f*g)(x) = f(g(x)), composed as a tuple and
    looked up in a dict, not grown from the rows of generators."""
    perms = sorted(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    mult = tuple(
        tuple(map(index.__getitem__, map(tuple, map(map, repeat(f.__getitem__), perms))))
        for f in perms
    )
    return tuple(map(_cycle_text, perms)), mult


# -- shift-graph successors by brute force ------------------------------


def _power_by_multiplication(mult, x, e):
    """x^e by repeated multiplication, e reduced mod the order of x."""
    order, acc = 1, x
    while acc != 0:
        acc = mult[acc][x]
        order += 1
    acc = 0
    for _ in range(e % order):
        acc = mult[acc][x]
    return acc


def state_digits(graph, s):
    """The window of group elements that state s of an SftGraph encodes, first to last."""
    n, w = graph.group.order, max(graph.window, 1)
    return tuple(s // n ** (w - 1 - k) % n for k in range(w))


def inner_tuple_counts(segments, mult_table, windows):
    """For each rotation i of the cyclic word S0 y^e1 S1 ... S(k-1) y^ek,
    the number of distinct tuples of its inner segment values,
    (S(i+1), ..., S(k-1), S0, ..., S(i-1)), over the given windows.  A
    segment is a list of (offset, exponent) syllables, read on a window of
    digits by repeated multiplication."""

    def value(seg, win):
        acc = 0
        for off, e in seg:
            acc = mult_table[acc][_power_by_multiplication(mult_table, win[off], e)]
        return acc

    counts = []
    for i in range(len(segments)):
        inner = segments[i + 1 :] + segments[:i]
        counts.append(len({tuple(value(seg, win) for seg in inner) for win in windows}))
    return counts


def brute_successors(templates, mult_table, w):
    """Successor lists of the window graph over a group given by its table.

    States are windows of max(w, 1) elements, big-endian; appending y to a
    state and dropping its first element gives the target.  An edge is kept
    when every template, a list of (offset, exponent) syllables read at
    offset 0 of the extended window, multiplies out to the identity 0.
    """
    n = len(mult_table)
    k = max(w, 1)
    powers = {}

    def value(tpl, win):
        acc = 0
        for off, e in tpl:
            key = (win[off], e)
            if key not in powers:
                powers[key] = _power_by_multiplication(mult_table, *key)
            acc = mult_table[acc][powers[key]]
        return acc

    out = []
    for src in product(range(n), repeat=k):
        succ = []
        for y in range(n):
            win = src + (y,)
            if all(value(tpl, win) == 0 for tpl in templates):
                succ.append(sum(d * n**i for i, d in enumerate(reversed(win[1:]))))
        out.append(succ)
    return out


# -- symmetric form and the index-2 criterion ---------------------------


class NotSymmetric(ValueError):
    pass


class NotAKnotPolynomial(ValueError):
    """The polynomial does not evaluate to +-1 at t = 1."""


def symmetric_form(f):
    """Centered coefficients (c_0, ..., c_n) with f ~ c_n(t^n + t^-n) + ... + c_0.

    Requires f(t) = t^k f(1/t) up to the canonical unit; raises NotSymmetric
    otherwise (including for the strictly antisymmetric case, which the
    centered template cannot express).
    """
    if not f:
        raise ZeroPolynomial("zero polynomial has no symmetric form")
    c = f.normalize().dense()
    span = len(c) - 1
    if span % 2 != 0 or c != c[::-1]:
        raise NotSymmetric(f"{f} is not symmetric under t -> 1/t")
    return tuple(c[span // 2 :])


def index2_criterion(delta):
    """Index-2 subgroups of the kernel exist iff some c_i (i >= 1) is odd.

    Requires a knot polynomial: symmetric with delta(1) = +-1.  In the
    symmetric form c_n(t^n + t^-n) + ... + c_1(t + 1/t) + c_0, evenness
    of every c_i with i >= 1 is exactly d(2) = 0.
    """
    if sum(delta.coeffs.values()) not in (1, -1):
        raise NotAKnotPolynomial(f"({delta})(1) != +-1")
    return any(c % 2 != 0 for c in symmetric_form(delta)[1:])


# -- words letter by letter ---------------------------------------------


def letters(w):
    """Yield the single letters (generator, +1/-1) of a FreeWord, left to right."""
    for gen, exp in w.syllables:
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            yield gen, step


def equal_up_to_cycling(w1, w2):
    """True if w1 equals some cyclic permutation of w2 or of its inverse."""
    a = list(letters(w1))
    for cand in (w2, w2.inverse()):
        b = list(letters(cand))
        if len(a) != len(b):
            continue
        if not a:
            return True
        if any(a == b[k:] + b[:k] for k in range(len(b))):
            return True
    return False


# -- Brown's criterion by letters ---------------------------------------


def brown_by_letters(relator_letters, chi):
    """Brown's verdict from the height before every single letter.

    relator_letters yields (generator, +1/-1); returns "FG", "OneSided",
    "NotFG", or "Inapplicable" for the empty word.
    """
    heights, h = [], 0
    for g, sgn in relator_letters:
        heights.append(h)
        h += sgn * chi[g]
    if not heights:
        return "Inapplicable"
    unique = [heights.count(max(heights)) == 1, heights.count(min(heights)) == 1]
    return {2: "FG", 1: "OneSided", 0: "NotFG"}[sum(unique)]


# -- words and presentations, one step at a time -------------------------


def cyclic_reduce_by_ends(w):
    """w cyclically reduced by stripping or folding one pair of ends per step."""
    syl = w.syllables
    while len(syl) > 1 and syl[0][0] == syl[-1][0] and (syl[0][1] > 0) != (syl[-1][1] > 0):
        (g, e0), (_, e1), inner = syl[0], syl[-1], syl[1:-1]
        if e0 + e1 == 0:
            syl = inner
        elif abs(e0) > abs(e1):
            syl = ((g, e0 + e1),) + inner
        else:
            syl = inner + ((g, e0 + e1),)
    return FreeWord(syl)


def exponent_matrix_by_columns(p):
    """The exponent matrix of a Presentation, one pass per relator and generator."""
    return [[r.exponent_sum(g) for g in p.generators] for r in p.relators]


def power_by_multiplication(w, n):
    """w ** n as |n| products, each freely reduced."""
    if n < 0:
        return power_by_multiplication(w.inverse(), -n)
    out = FreeWord()
    for _ in range(n):
        out = out * w
    return out


def substitute_piece_by_piece(w, gen, replacement):
    """w with gen replaced, one product per syllable of w."""
    out = FreeWord()
    for g, e in w.syllables:
        out = out * (power_by_multiplication(replacement, e) if g == gen else FreeWord(((g, e),)))
    return out


def fox_derivative_by_column(w, gen, chi):
    """The abelianized Fox derivative of w by gen, one walk over w for gen alone."""
    coeffs = {}
    h = 0
    for x, e in w.syllables:
        cx = chi[x]
        if x == gen:
            if cx == 0:
                coeffs[h] = coeffs.get(h, 0) + e
            elif e > 0:
                for k in range(e):
                    coeffs[h + k * cx] = coeffs.get(h + k * cx, 0) + 1
            else:
                for k in range(1, -e + 1):
                    coeffs[h - k * cx] = coeffs.get(h - k * cx, 0) - 1
        h += e * cx
    return LaurentPoly(coeffs)


def alexander_matrix_by_columns(p, chi, delete_column=None):
    """The Fox matrix of a Presentation, one walk per relator and kept column."""
    columns = [g for g in p.generators if g != delete_column]
    return tuple(tuple(fox_derivative_by_column(r, g, chi) for g in columns) for r in p.relators)


def bareiss_echelon_any_sign(rows, ncols):
    """The textbook fraction-free echelon (Bareiss 1968), pivots of any sign.

    Every row below the pivot row is divided by the last pivot at every
    step, unless it is unchanged (0 in the pivot column and a pivot equal to
    the last one).
    """
    nrows = len(rows)
    pivots = []
    sign, m = 1, 1
    for j in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, nrows) if rows[i][j]), None)
        if i is None:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            sign = -sign
        top = rows[r]
        p = top[j]
        for row in rows[r + 1 :]:
            c = row[j]
            if c or p != m:
                for k in range(j + 1, ncols):
                    q, rem = divmod(p * row[k] - c * top[k], m)
                    if rem:
                        raise ArithmeticError("Bareiss division must be exact")
                    row[k] = q
        m = p
        pivots.append(j)
    return pivots, sign


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_INT_RE = re.compile(r"[+-]?\d+")


class _TokenScanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def loc(self):
        consumed = self.text[: self.pos]
        line = consumed.count("\n") + 1
        col = self.pos - (consumed.rfind("\n") + 1) + 1
        return line, col

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            line, col = self.loc()
            got = self.peek() or "end of input"
            raise ParseError(f"expected '{ch}', got '{got}'", line, col)
        self.pos += 1

    def name(self):
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            line, col = self.loc()
            raise ParseError("expected a generator name", line, col)
        self.pos = m.end()
        return m.group()


def _parse_word_by_tokens(sc, generators):
    # Each token is compared with every generator, longest first.
    by_len = sorted(generators, key=len, reverse=True)
    syllables = []
    first = True
    while True:
        sc.skip_ws()
        ch = sc.text[sc.pos] if sc.pos < len(sc.text) else ""
        if ch in ("", "|", ">", ",", "="):
            break
        if first and ch == "1":
            nxt = sc.text[sc.pos + 1 : sc.pos + 2]
            if not nxt or not (nxt.isalnum()):
                sc.pos += 1
                sc.skip_ws()
                break
        first = False
        matched = None
        for g in by_len:
            if sc.text.startswith(g, sc.pos):
                matched = g
                break
        if matched is None:
            line, col = sc.loc()
            m = _NAME_RE.match(sc.text, sc.pos)
            bad = m.group() if m else ch
            raise UnknownGenerator(f"unknown generator '{bad}'", line, col)
        sc.pos += len(matched)
        exp = 1
        if sc.peek() == "^":
            sc.pos += 1
            sc.skip_ws()
            paren = sc.peek() == "("
            if paren:
                sc.pos += 1
                sc.skip_ws()
            m = _INT_RE.match(sc.text, sc.pos)
            if not m:
                line, col = sc.loc()
                raise ParseError("expected an integer exponent after '^'", line, col)
            sc.pos = m.end()
            exp = int(m.group())
            if paren:
                sc.expect(")")
        syllables.append((matched, exp))
    return FreeWord.make(syllables)


def parse_by_tokens(text):
    """The Presentation that text reads as, or the ParseError it raises.

    Every token is compared with every declared generator, longest first,
    and each relator is reduced by `cyclic_reduce_by_ends`.
    """
    sc = _TokenScanner(text)
    sc.expect("<")
    generators = []
    generators.append(sc.name())
    while sc.peek() == ",":
        sc.pos += 1
        generators.append(sc.name())
    seen = set()
    for g in generators:
        if g in seen:
            raise DuplicateGenerator(f"duplicate generator '{g}'", *sc.loc())
        seen.add(g)
    gens = tuple(generators)

    relators = []
    if sc.peek() == "|":
        sc.pos += 1
        if sc.peek() != ">":
            while True:
                lhs = _parse_word_by_tokens(sc, gens)
                if sc.peek() == "=":
                    sc.pos += 1
                    rhs = _parse_word_by_tokens(sc, gens)
                    relators.append(cyclic_reduce_by_ends(lhs * rhs.inverse()))
                else:
                    relators.append(cyclic_reduce_by_ends(lhs))
                if sc.peek() == ",":
                    sc.pos += 1
                    continue
                break
    sc.expect(">")
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError("trailing text after '>'", *sc.loc())
    return Presentation(gens, tuple(relators))
