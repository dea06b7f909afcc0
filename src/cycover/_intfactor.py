"""Dense integer polynomial arithmetic and factorization over Z.

Internal helper for the laurent module.  Polynomials are lists of int
coefficients in ascending order of exponent, with no high-order zeros;
[] is the zero polynomial.  Products of two polynomials of 16 or more terms
each (28 or more when the coefficients are wide) are taken by Kronecker
substitution: one integer product of the two polynomials packed into
byte-aligned slots by the `Kronecker` codec, which the Alexander determinant
also uses.  Factorization follows the classical route (von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 14-15), after an exact
cyclotomic split:

- squarefree decomposition: when f is squarefree modulo one of the first
  few primes not dividing its leading coefficient it is squarefree over Z
  and Yun's algorithm is skipped; otherwise Yun's algorithm runs on gcds
  taken by a primitive remainder sequence over Z;
- cyclotomic split (cf. Bradford & Davenport, Effective tests for
  cyclotomic polynomials, ISSAC 1988): for every m with phi(m) <= deg f, in
  increasing order, Phi_m can divide f only if Phi_m(b) divides f(b),
  b = 2^8; each hit is confirmed by exact division and divided out, and
  the cofactor, which has no cyclotomic factor left, goes on to the steps
  below unless it is constant or linear;
- Berlekamp factorization modulo the first three good primes, keeping the
  prime with the fewest factors; each factor found so far is split by one
  basis vector of the Berlekamp algebra at a time, peeling off one value
  class per gcd; the subset sums of the factor degrees at each prime are
  intersected (Musser's degree-set test), and f is proved irreducible as
  soon as only 0 and deg f remain;
- quadratic Hensel lifting to exactly p^l > 2B, B a Mignotte-style
  coefficient bound;
- subset recombination: a subset is trial-divided only when its degree sum
  is a possible factor degree and its candidate's values at t = 0 and
  t = 1, read off the lifted factors, divide those of lc * f; the trial
  division stops as soon as a quotient coefficient exceeds B.

Everything is deterministic.
"""

from __future__ import annotations

import math
from itertools import combinations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _primes():
    n = 2
    while True:
        if is_prime(n):
            yield n
        n += 1


# -- dense arithmetic over Z -------------------------------------------


def strip(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def degree(f: list[int]) -> int:
    return len(f) - 1


def add(f: list[int], g: list[int]) -> list[int]:
    n = max(len(f), len(g))
    return strip([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def sub(f: list[int], g: list[int]) -> list[int]:
    n = max(len(f), len(g))
    return strip([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)])


# Products with a factor shorter than _KRONECKER_MIN terms are multiplied
# term by term, longer ones by Kronecker substitution.  Its slots are twice a
# coefficient's width, so once the product's coefficient bound passes
# _WIDE_BITS (coefficients of about 380 bits) the term-by-term loop stays
# faster up to _KRONECKER_MIN_WIDE terms.
_KRONECKER_MIN = 16
_KRONECKER_MIN_WIDE = 28
_WIDE_BITS = 768


class Kronecker:
    """Kronecker substitution t = 2^(8w) for integer polynomials, w bytes a slot.

    Built for a bound B on the absolute value of every coefficient packed or
    unpacked, with the least w such that half a slot, 2^(8w - 1), exceeds B.
    pack(f) is f(2^(8w)); unpack(x, n) reads back the n balanced slots of such
    a value.  Each packed coefficient gets half a slot added, which makes every
    slot nonnegative, and that offset is then taken off again; unpacking adds it
    back, so each slot holds c + 2^(8w - 1) with no carry into the next.
    """

    __slots__ = ("w", "half", "_halves")

    def __init__(self, bound: int) -> None:
        self.w = bound.bit_length() // 8 + 1
        self.half = 1 << (8 * self.w - 1)
        self._halves = bytes(self.w - 1) + b"\x80"

    def pack(self, f: list[int]) -> int:
        w, half = self.w, self.half
        x = int.from_bytes(b"".join([(a + half).to_bytes(w, "little") for a in f]), "little")
        return x - int.from_bytes(self._halves * len(f), "little")

    def unpack(self, x: int, n: int) -> list[int]:
        w, half = self.w, self.half
        z = (x + int.from_bytes(self._halves * n, "little")).to_bytes(n * w, "little")
        return strip([int.from_bytes(z[i : i + w], "little") - half for i in range(0, n * w, w)])


def mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    short = min(len(f), len(g))
    if short >= _KRONECKER_MIN:
        bound = max(map(abs, f)) * max(map(abs, g)) * short
        if short >= _KRONECKER_MIN_WIDE or bound.bit_length() <= _WIDE_BITS:
            # Every coefficient of the product is at most bound in absolute value.
            k = Kronecker(bound)
            return k.unpack(k.pack(f) * k.pack(g), len(f) + len(g) - 1)
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return strip(out)


def mul_ground(f: list[int], c: int) -> list[int]:
    if c == 0:
        return []
    return [a * c for a in f]


def derivative(f: list[int]) -> list[int]:
    return strip([i * f[i] for i in range(1, len(f))])


def content(f: list[int]) -> int:
    if not f:
        return 0
    return math.gcd(*(abs(c) for c in f))


def primitive(f: list[int]) -> list[int]:
    c = content(f)
    if c == 0:
        return []
    if f[-1] < 0:
        c = -c
    return [a // c for a in f]


def exact_div_int(f: list[int], g: list[int], bound: int | None = None) -> list[int] | None:
    """Quotient f/g over Z when exact, else None.  g must be nonzero.

    With a bound, also None as soon as a quotient coefficient exceeds it in
    absolute value; the caller vouches that an exact quotient never does.
    """
    f = strip(list(f))
    g = strip(list(g))
    if not g:
        raise ZeroDivisionError
    if not f:
        return []
    if len(f) < len(g):
        return None
    lead = g[-1]
    rem = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(g) - 1]
        if c % lead != 0:
            return None
        q[k] = c // lead
        if bound is not None and abs(q[k]) > bound:
            return None
        if q[k]:
            for j in range(len(g)):
                rem[k + j] -= q[k] * g[j]
    if any(rem):
        return None
    return strip(q)


def int_poly_gcd(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd over Z with positive leading coefficient.

    Primitive remainder sequence: each pseudo-remainder is replaced by its
    primitive part, which keeps the coefficients as small as the gcd allows.
    """
    a, b = primitive(strip(list(f))), primitive(strip(list(g)))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive_prem(a, b)
    return a


def _primitive_prem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of the pseudo-remainder of a by b, len(a) >= len(b) > 0."""
    r = list(a)
    lb = b[-1]
    nb = len(b)
    while len(r) >= nb:
        # r <- (lb/d) r - (c/d) t^shift b, d = gcd(lb, c), drops the top term.
        c = r[-1]
        d = math.gcd(lb, c)
        x, y = lb // d, c // d
        shift = len(r) - nb
        r = [x * v for v in r[:-1]]
        for j in range(nb - 1):
            r[shift + j] -= y * b[j]
        r = strip(r)
    return primitive(r)


def squarefree_decomposition(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm for primitive f with positive lead: [(part, multiplicity)]."""
    f = strip(list(f))
    assert f and f[-1] > 0
    if degree(f) == 0:
        return []
    if _squarefree_mod_small_prime(f):
        return [(f, 1)]
    a = int_poly_gcd(f, derivative(f))
    b = exact_div_int(f, a)
    c = exact_div_int(derivative(f), a)
    assert b is not None and c is not None
    d = sub(c, derivative(b))
    out: list[tuple[list[int], int]] = []
    i = 1
    while degree(b) > 0:
        part = int_poly_gcd(b, d)
        if degree(part) > 0:
            out.append((part, i))
        b2 = exact_div_int(b, part)
        c2 = exact_div_int(d, part)
        assert b2 is not None and c2 is not None
        b, d = b2, sub(c2, derivative(b2))
        i += 1
    return out


_SQUAREFREE_PRIMES = 5


def _squarefree_mod_small_prime(f: list[int]) -> bool:
    """True when f is squarefree mod one of the first few primes not dividing lc(f).

    Such a prime keeps the degree of every factor of f, so a square factor
    over Z would stay a square factor mod p: f is then squarefree over Z.
    """
    tried = 0
    for p in _primes():
        if f[-1] % p == 0:
            continue
        if gf_is_squarefree(f, p):
            return True
        tried += 1
        if tried == _SQUAREFREE_PRIMES:
            return False


# -- GF(p) arithmetic ---------------------------------------------------


def gf_trunc(f: list[int], p: int) -> list[int]:
    return strip([c % p for c in f])


def gf_balanced(f: list[int], m: int) -> list[int]:
    """Symmetric representative in (-m/2, m/2]."""
    out = []
    for c in f:
        c %= m
        if c > m // 2:
            c -= m
        out.append(c)
    return strip(out)


def gf_sub(f, g, p):
    return gf_trunc(sub(f, g), p)


def gf_mul(f, g, p):
    return gf_trunc(mul(f, g), p)


def gf_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Division in (Z/p)[x]; also valid mod a composite when g is monic."""
    f = gf_trunc(f, p)
    g = gf_trunc(g, p)
    if not g:
        raise ZeroDivisionError
    inv = pow(g[-1], -1, p)
    rem = list(f)
    if len(rem) < len(g):
        return [], rem
    # rem is reduced mod p only as each top coefficient is read, and at the end.
    q = [0] * (len(rem) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = rem.pop() % p
        if c:
            coef = (c * inv) % p
            q[k] = coef
            rem[k:] = [a - coef * b for a, b in zip(rem[k:], g)]
    return strip(q), strip([c % p for c in rem])


def gf_monic(f: list[int], p: int) -> list[int]:
    f = gf_trunc(f, p)
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [(c * inv) % p for c in f]


def gf_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    a, b = gf_trunc(f, p), gf_trunc(g, p)
    while b:
        a, b = b, gf_divmod(a, b, p)[1]
    return gf_monic(a, p)


def gf_gcdex(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s*f + t*g = 1 for coprime f, g in (Z/p)[x]."""
    r0, r1 = gf_trunc(f, p), gf_trunc(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gf_sub(s0, gf_mul(q, s1, p), p)
        t0, t1 = t1, gf_sub(t0, gf_mul(q, t1, p), p)
    assert len(r0) == 1, "gf_gcdex requires coprime inputs"
    inv = pow(r0[0], -1, p)
    return gf_trunc(mul_ground(s0, inv), p), gf_trunc(mul_ground(t0, inv), p)


def gf_pow_mod(f: list[int], e: int, mod: list[int], p: int) -> list[int]:
    out = [1]
    base = gf_divmod(f, mod, p)[1]
    while e:
        if e & 1:
            out = gf_divmod(gf_mul(out, base, p), mod, p)[1]
        base = gf_divmod(gf_mul(base, base, p), mod, p)[1]
        e >>= 1
    return out


def gf_is_squarefree(f: list[int], p: int) -> bool:
    f = gf_monic(f, p)
    return len(gf_gcd(f, gf_trunc(derivative(f), p), p)) == 1


def berlekamp(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors of a monic squarefree f over GF(p).

    The r vectors of a basis of {v : v^p = v mod f} are taken in turn.  Each
    factor u found so far is split by v: gcd(u, v - s) for s = 0, 1, ...
    peels off the irreducible factors of u on which v takes the value s,
    with v reduced mod what is left of u, until what is left is one class
    (v constant on it).  The walk stops as soon as there are r factors.
    """
    f = gf_monic(f, p)
    n = degree(f)
    if n <= 1:
        return [f]
    # Rows of Q: x^(p*i) mod f for i = 0..n-1.
    xp = gf_pow_mod([0, 1], p, f, p)
    rows = [[1] + [0] * (n - 1)]
    cur = [1]
    for _ in range(1, n):
        cur = gf_divmod(gf_mul(cur, xp, p), f, p)[1]
        rows.append([cur[i] if i < len(cur) else 0 for i in range(n)])
    # Left null space of (Q - I): vectors v with v(x)^p = v(x) mod f.
    m = [[(rows[i][j] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]
    basis = _left_nullspace(m, p)
    r = len(basis)
    if r == 1:
        return [f]
    factors = [f]
    for v in basis:
        v = strip(v)
        if len(v) <= 1:
            continue  # the constant vector never splits anything
        done: list[list[int]] = []
        for i, u in enumerate(factors):
            left = len(factors) - i  # u and the factors after it
            vu = gf_divmod(v, u, p)[1]
            s = 0
            # v constant mod u (always so for linear u) means u is one class.
            while len(vu) > 1 and len(done) + left < r:
                g = gf_gcd(u, [(vu[0] - s) % p] + vu[1:], p)
                if len(g) > 1:
                    done.append(g)
                    u = gf_divmod(u, g, p)[0]
                    vu = gf_divmod(vu, u, p)[1]
                s += 1
            done.append(u)
        factors = done
        if len(factors) == r:
            break
    return sorted(factors)


def _left_nullspace(m: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {v : v*M = 0} over GF(p)."""
    n = len(m)
    # Row-reduce M^T, tracking combinations: solve M^T v^T = 0.
    a = [[m[j][i] % p for j in range(n)] for i in range(n)]  # M^T
    pivots = []
    row = 0
    where = [-1] * n
    for col in range(n):
        sel = None
        for i in range(row, n):
            if a[i][col] % p:
                sel = i
                break
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        # Columns left of col are already zero in the pivot row.
        piv = a[row]
        inv = pow(piv[col], -1, p)
        piv[col:] = [(x * inv) % p for x in piv[col:]]
        tail = piv[col:]
        for i in range(n):
            c = a[i][col]
            if i != row and c:
                a[i][col:] = [(x - c * y) % p for x, y in zip(a[i][col:], tail)]
        where[col] = row
        pivots.append(col)
        row += 1
    basis = []
    for col in range(n):
        if where[col] != -1:
            continue
        v = [0] * n
        v[col] = 1
        for c2 in range(n):
            if where[c2] != -1:
                v[c2] = (-a[where[c2]][col]) % p
        basis.append(v)
    return basis


# -- Hensel lifting -----------------------------------------------------


def _hensel_step(M, f, g, h, s, t):
    """One quadratic lift from mod m to mod M, M dividing m*m.

    h monic; f = g*h and s*g + t*h = 1 (mod m).
    """
    e = gf_trunc(sub(f, mul(g, h)), M)
    q, r = gf_divmod(mul(s, e), h, M)
    G = gf_trunc(add(add(g, mul(t, e)), mul(q, g)), M)
    H = gf_trunc(add(h, r), M)
    b = gf_trunc(sub(add(mul(s, G), mul(t, H)), [1]), M)
    c, d = gf_divmod(mul(s, b), H, M)
    S = gf_trunc(sub(s, d), M)
    T = gf_trunc(sub(sub(t, mul(t, b)), mul(c, G)), M)
    return G, H, S, T


def hensel_lift(p: int, f: list[int], modular: list[list[int]], l: int) -> list[list[int]]:
    """Lift the monic mod-p factors of f (up to lc) to monic factors mod p^l.

    The factors are split into two halves; f = g*h is lifted from mod p by
    quadratic steps, each to min(m^2, p^l), so the last step stops at exactly
    p^l; then each half is lifted the same way from its own product.
    """
    r = len(modular)
    lc = f[-1]
    pl = p**l
    if r == 1:
        inv = pow(lc % pl, -1, pl)
        return [gf_trunc(mul_ground(f, inv), pl)]
    k = r // 2
    g = gf_trunc([lc], p)
    for fi in modular[:k]:
        g = gf_mul(g, fi, p)
    h = [1]
    for fi in modular[k:]:
        h = gf_mul(h, fi, p)
    s, t = gf_gcdex(g, h, p)
    m = p
    while m < pl:
        m = min(m * m, pl)
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
    return hensel_lift(p, g, modular[:k], l) + hensel_lift(p, h, modular[k:], l)


# -- cyclotomic factors -------------------------------------------------

# The split evaluates at b = 2^_CYCLOTOMIC_BITS: a small b keeps f(b) and each
# Phi_m(b) short, and the rare false hit it lets through costs one exact division.
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


def _split_cyclotomic(f: list[int]) -> tuple[list[list[int]], list[int]]:
    """The cyclotomic factors Phi_m of a squarefree f, ascending m, and the cofactor.

    If Phi_m divides f then Phi_m(b) divides f(b), b = 2^_CYCLOTOMIC_BITS, so
    f(b) is formed once and every m with phi(m) <= deg f costs one integer
    remainder.  Each hit is confirmed by exact division before it is divided
    out; the cofactor has no cyclotomic factor left.
    """
    n = degree(f)
    rows = _CYCLOTOMIC.cover(n)
    fb = 0
    for c in reversed(f):
        fb = (fb << _CYCLOTOMIC_BITS) + c
    found = []
    for m, ph, at_b, primes in rows:
        if ph > n or fb % at_b:
            continue
        phi_m = _CYCLOTOMIC.poly(m, primes)
        q = exact_div_int(f, phi_m)
        if q is not None:
            found.append(list(phi_m))
            f, fb, n = q, fb // at_b, n - ph
    return found, f


# -- Zassenhaus ---------------------------------------------------------


def _degree_sums(factors: list[list[int]]) -> int:
    """Bit mask of the degrees of the products of subsets of factors."""
    mask = 1
    for g in factors:
        mask |= mask << degree(g)
    return mask


def _choose_prime(f: list[int]) -> tuple[int, list[list[int]], int]:
    """First few good primes; keep the one giving the fewest modular factors.

    Also returns the bit mask of the degrees a factor of f over Z can have:
    the intersection of the subset-sum degree sets at the primes tried.  The
    search stops early once that leaves only 0 and deg f, which proves f
    irreducible.
    """
    lc, tc = f[-1], f[0]
    irreducible = 1 | 1 << degree(f)
    best: tuple[int, list[list[int]]] | None = None
    degrees = -1
    good_seen = 0
    for p in _primes():
        if p > 20000:
            raise RuntimeError("no good prime found (unexpected at this scale)")
        if lc % p == 0 or tc % p == 0:
            continue
        if not gf_is_squarefree(f, p):
            continue
        facs = berlekamp(gf_monic(f, p), p)
        degrees &= _degree_sums(facs)
        if best is None or len(facs) < len(best[1]):
            best = (p, facs)
        good_seen += 1
        if good_seen >= 3 or degrees == irreducible:
            break
    assert best is not None
    return best[0], best[1], degrees


def _mignotte_bound(f: list[int]) -> int:
    n = degree(f)
    a = max(abs(c) for c in f)
    return (math.isqrt(n + 1) + 1) * 2**n * a * abs(f[-1])


def _balanced_value(lc: int, values: list[int], subset: tuple[int, ...], m: int) -> int:
    """lc * prod(values[i] for i in subset), symmetric representative mod m."""
    v = lc
    for i in subset:
        v = v * values[i] % m
    return v - m if v > m // 2 else v


def factor_squarefree(f: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive squarefree f, positive lead, deg >= 1.

    f(0) must be nonzero.  The cyclotomic factors come first, in ascending m.
    """
    f = strip(list(f))
    assert f and f[-1] > 0 and degree(f) >= 1
    out, f = _split_cyclotomic(f)
    if degree(f) <= 1:
        return out + [f] if degree(f) == 1 else out
    p, modular, degrees = _choose_prime(f)
    if degrees == 1 | 1 << degree(f):
        return out + [f]
    B = _mignotte_bound(f)
    # The least l with p^l > 2B, in integers: a float logarithm can round
    # p^l down to 2B itself.
    l, pl = 1, p
    while pl <= 2 * B:
        l, pl = l + 1, pl * p
    lifted = hensel_lift(p, f, modular, l)
    deg = [degree(g) for g in lifted]
    at0 = [g[0] for g in lifted]
    at1 = [sum(g) % pl for g in lifted]

    # A subset belongs to a factor h of current only if its candidate
    # G = balanced(lc * prod lifted), lc = lc(current), equals lc * h / lc(h);
    # then G(t) divides lc * current(t) for every integer t.  At t = 0 the
    # balanced value is G(0) itself, as |G(0)| <= B < p^l / 2, and it is
    # nonzero since p divides neither lc nor f(0); at t = 1 it is G(1) only
    # when 0 < 2 |lc * current(1)| < p^l.  An exact quotient is a factor of
    # f, so its coefficients are at most B too.
    remaining = list(range(len(lifted)))
    current = f
    s = 1
    while 2 * s <= len(remaining):
        found = False
        lc = current[-1]
        lc0 = lc * current[0]
        lc1 = lc * sum(current)
        test1 = lc1 != 0 and 2 * abs(lc1) < pl
        for subset in combinations(remaining, s):
            if not degrees >> sum(deg[i] for i in subset) & 1:
                continue
            if lc0 % _balanced_value(lc, at0, subset, pl):
                continue
            if test1:
                g1 = _balanced_value(lc, at1, subset, pl)
                if g1 == 0 or lc1 % g1:
                    continue
            g = [lc]
            for i in subset:
                g = gf_balanced(mul(g, lifted[i]), pl)
            cand = primitive(g)
            q = exact_div_int(current, cand, B)
            if q is not None:
                out.append(cand)
                current = primitive(q)
                remaining = [i for i in remaining if i not in subset]
                found = True
                break
        if not found:
            s += 1
    if degree(current) >= 1:
        out.append(current)
    return out


def factor_primitive(f: list[int]) -> list[tuple[list[int], int]]:
    """Factor a primitive polynomial with positive lead and nonzero constant term.

    Returns [(irreducible primitive factor, multiplicity)], unsorted.
    """
    f = strip(list(f))
    assert f and f[-1] > 0 and f[0] != 0 and content(f) == 1
    if degree(f) == 0:
        return []
    out: list[tuple[list[int], int]] = []
    for part, mult in squarefree_decomposition(f):
        for irr in factor_squarefree(part):
            out.append((irr, mult))
    return out
