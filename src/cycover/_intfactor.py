"""Dense integer polynomial arithmetic and factorization over Z.

Internal helper for the laurent module.  Polynomials are lists of int
coefficients in ascending order of exponent, with no high-order zeros;
[] is the zero polynomial.  Products of two polynomials of 16 or more terms
each are taken by Kronecker substitution: one integer product of the two
polynomials packed into byte-aligned slots by the `Kronecker` codec, which
the Alexander determinant also uses.  Primes and cyclotomic polynomials
come from `_numbers`.  Factorization follows the classical route (von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 14-15), each step run once
and only on what the steps before it leave:

- cyclotomic split first (cf. Bradford & Davenport, Effective tests for
  cyclotomic polynomials, ISSAC 1988): for every m with phi(m) <= deg f, in
  increasing order, Phi_m^k can divide f only if Phi_m(b)^k divides f(b),
  b = 2^8; f is divided once by the product of the hits with their
  multiplicities, and hit by hit only when a false hit makes that fail.
  Only the cofactor, which has no cyclotomic factor left, goes on to the
  steps below;
- squarefree decomposition: when the cofactor is squarefree modulo one of
  the first few primes not dividing its leading coefficient it is
  squarefree over Z and Yun's algorithm is skipped, and the prime search
  below repeats none of those tests; otherwise Yun's algorithm runs on gcds
  taken by a primitive remainder sequence over Z;
- GF(p) arithmetic on packed integers (Kronecker substitution, ibid.
  ch. 8): a division, gcd or product past a few terms packs each
  polynomial into one int, a slot of 1, 2, 4 or 8 bytes a coefficient
  (`_Slots`), so a quotient step is one multiply-add of ints and a product
  one int product; a gcd keeps its remainders packed and reduces them mod
  p only before a division that could overflow a slot.  Small inputs and
  moduli too wide for 8-byte slots, such as the later Hensel moduli, stay
  on lists;
- Berlekamp factorization modulo good primes in increasing order, keeping
  the prime with the fewest factors: the search stops after three of them,
  or at the first that leaves at most two factors, as one lift and at most
  two trial divisions then decide f.  Each row x^(p*i) mod f of the matrix Q
  is the one before times x^p: p shifts of a row packed into one integer
  when p < deg f, one product with x^p mod f otherwise.  One elimination
  mod p, `_left_nullspace`, gives both the null space of Q - I and each
  minimal polynomial: a row packed the same way, with a unit vector that
  records its combination, takes one multiply-add a pivot row, and each
  row that vanishes yields its combination.  Each factor found so far is
  split by one basis vector at a time, one gcd per root but the last of
  the vector's minimal polynomial; the subset sums of the factor degrees
  at each prime are intersected (Musser's degree-set test), and f is
  proved irreducible as soon as only 0 and deg f remain;
- lifting to exactly p^l > 2B, B a Mignotte-style coefficient bound: each
  linear modular factor t - r as a simple root of f by Newton's iteration
  (ibid. 9.4), which needs no Bezout coefficients; one nonlinear factor
  left is the quotient of lc^-1 f by the lifted linear ones, and two or
  more are lifted from their product by quadratic Hensel steps.  The last
  quadratic step lifts the factors only, not the Bezout coefficients,
  which nothing reads at p^l;
- recombination of the r lifted factors.  With r < _KNAPSACK_MIN, by
  subsets: a subset is trial-divided only when its degree sum is a
  possible factor degree and its candidate's values at t = 0 and t = 1,
  read off the lifted factors, divide those of lc * f; the trial division
  stops as soon as a quotient coefficient exceeds B.  With more, by van
  Hoeij's knapsack (`_knapsack`, imported only then): lattice reduction on
  the power sums of the factors' roots, one column at a time, proposes a
  partition of the factors, and each part's candidate is confirmed by
  trial division here; a part that does not divide asks for more columns,
  and columns with too few digits left for a further lift.  Subsets are
  never tried on such an input, whose search would be exponential in r.

Everything is deterministic.
"""

from __future__ import annotations

import functools
import math
import struct
from collections.abc import Iterable, Iterator
from itertools import combinations, zip_longest

from ._numbers import _CYCLOTOMIC, _CYCLOTOMIC_BITS, _primes


# -- dense arithmetic over Z -------------------------------------------


def strip(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def degree(f: list[int]) -> int:
    return len(f) - 1


def add(f: list[int], g: list[int]) -> list[int]:
    return strip([a + b for a, b in zip_longest(f, g, fillvalue=0)])


def sub(f: list[int], g: list[int]) -> list[int]:
    return strip([a - b for a, b in zip_longest(f, g, fillvalue=0)])


# Products with a factor shorter than _KRONECKER_MIN terms are multiplied
# term by term, longer ones by Kronecker substitution.
_KRONECKER_MIN = 16
# GF(p) products, divisions and gcds smaller than these stay on lists, where
# packing into `_Slots` would cost more than it saves: a product with a factor
# shorter than _PACKED_MUL_MIN terms, a division of fewer than
# _PACKED_DIV_MIN quotient terms times divisor terms, and a gcd whose smaller
# operand is shorter than _PACKED_GCD_MIN terms.
_PACKED_MUL_MIN = 8
_PACKED_DIV_MIN = 24
_PACKED_GCD_MIN = 6


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
        # Every coefficient of the product is at most bound in absolute value.
        bound = max(map(abs, f)) * max(map(abs, g)) * short
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


def _squarefree_mod_small_prime(f: list[int]) -> dict[int, bool]:
    """Whether f is squarefree mod p, for the primes p not dividing lc(f) in
    increasing order up to the first that answers True, or the first few.

    Such a prime keeps the degree of every factor of f, so a square factor
    over Z would stay a square factor mod p: f is squarefree over Z when
    one answers True.
    """
    tested: dict[int, bool] = {}
    for p in _primes():
        if f[-1] % p == 0:
            continue
        tested[p] = gf_is_squarefree(f, p)
        if tested[p] or len(tested) == _SQUAREFREE_PRIMES:
            return tested


# -- GF(p) arithmetic ---------------------------------------------------


def gf_trunc(f: list[int], p: int) -> list[int]:
    return strip([c % p for c in f])


def gf_balanced(f: list[int], m: int) -> list[int]:
    """Symmetric representative in (-m/2, m/2]: (c + h) mod m - h, h = (m - 1) // 2."""
    h = (m - 1) // 2
    return strip([(c + h) % m - h for c in f])


def gf_mul(f, g, p):
    """Product in (Z/p)[x].  From _PACKED_MUL_MIN terms a factor, and while a
    slot of 8 bytes holds min(len) (p - 1)^2, one product of packed ints."""
    if len(f) >= _PACKED_MUL_MIN <= len(g):
        f, g = gf_trunc(f, p), gf_trunc(g, p)
        slots = _slots(min(len(f), len(g)) * (p - 1) ** 2)
        if f and g and slots:
            return gf_trunc(slots.unpack(slots.pack(f) * slots.pack(g), len(f) + len(g) - 1), p)
    return gf_trunc(mul(f, g), p)


def gf_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Division in (Z/p)[x]; also valid mod a composite when g is monic.

    From _PACKED_DIV_MIN quotient terms times divisor terms, and while a slot
    of 8 bytes holds p + (deg f - deg g + 1)(p - 1)^2, f and g are packed
    once into `_Slots` and divided by `_packed_divide`; otherwise by the list
    loop `_list_divmod`.
    """
    f = gf_trunc(f, p)
    g = gf_trunc(g, p)
    if not g:
        raise ZeroDivisionError
    steps = len(f) - len(g) + 1
    if steps <= 0:
        return [], f
    if steps * len(g) >= _PACKED_DIV_MIN:
        slots = _slots(p + steps * (p - 1) ** 2)
        if slots:
            q, r = _packed_divide(slots.pack(f), len(f), slots.pack(g), len(g) - 1, slots.bits, p)
            return strip(q), gf_trunc(slots.unpack(r, len(g) - 1), p)
    return _list_divmod(f, g, p)


def _list_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """gf_divmod of f and g reduced mod p, len(f) >= len(g) > 0, on lists."""
    inv = pow(g[-1], -1, p)
    rem = list(f)
    # rem is reduced mod p only as each top coefficient is read, and at the end.
    q = [0] * (len(rem) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = rem.pop() % p
        if c:
            coef = (c * inv) % p
            q[k] = coef
            rem[k:] = [a - coef * b for a, b in zip(rem[k:], g)]
    return strip(q), strip([c % p for c in rem])


def _packed_divide(x: int, n: int, y: int, d: int, bits: int, p: int) -> tuple[list[int], int]:
    """Quotient and remainder of x by y, packed into slots of `bits` bits.

    x has n slots; y has degree d < n, a unit mod p in its top slot, and both
    may hold values not reduced mod p.  Quotient term k, top first, is c =
    (slot k + d of x) / lc(y) mod p, and x gains (p - c) times y less its top
    slot, shifted k slots: slots k up to k + d - 1 each gain less than p times
    the largest slot of y, which the caller keeps within the slot width.
    Slot k + d is never read again.  Returns the quotient, reduced and
    ascending, and the remainder: the low d slots of x, not reduced.
    """
    inv = pow((y >> d * bits) % p, -1, p)
    low = y & ((1 << d * bits) - 1)
    slot = (1 << bits) - 1
    q = [0] * (n - d)
    for k in range(n - d - 1, -1, -1):
        c = (x >> (k + d) * bits & slot) % p
        if c:
            c = c * inv % p
            q[k] = c
            x += (p - c) * low << k * bits
    return q, x & ((1 << d * bits) - 1)


def _gf_eval(f: list[int], x: int, m: int) -> int:
    """f(x) mod m, by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def gf_monic(f: list[int], p: int) -> list[int]:
    f = gf_trunc(f, p)
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [(c * inv) % p for c in f]


def gf_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd in (Z/p)[x], p prime, by Euclid's algorithm.

    When the smaller operand has _PACKED_GCD_MIN terms or more, and a slot of
    8 bytes holds 16 (p + n (p - 1)^2), n = the larger length, both operands
    are packed once into `_Slots` of at least 32 bits and each remainder comes
    from `_packed_divide`, never unpacked: its degree is that of its top slot
    not divisible by p.  Slot values are not reduced mod p after a division;
    a bound on each operand's slots is carried along instead, and both are
    reduced (unpacked, reduced, packed) only before a division that could
    overflow a slot, which the 16-fold headroom makes rare.
    """
    a, b = gf_trunc(f, p), gf_trunc(g, p)
    if len(a) < len(b):
        a, b = b, a
    # max(..., 2^31): slots of at least 32 bits.
    slots = _slots(max(16 * (p + len(a) * (p - 1) ** 2), 1 << 31)) if len(b) >= _PACKED_GCD_MIN else None
    if slots is None:
        while b:
            a, b = b, _list_divmod(a, b, p)[1]
        return gf_monic(a, p)
    bits = slots.bits
    x, y, dx, dy = slots.pack(a), slots.pack(b), len(a) - 1, len(b) - 1
    bx = by = p - 1  # bounds on the slots of x and y
    while dy >= 0:
        steps = (dx - dy + 1) * (p - 1)
        if bx + steps * by >> bits:
            x = slots.pack([c % p for c in slots.unpack(x, dx + 1)])
            y = slots.pack([c % p for c in slots.unpack(y, dy + 1)])
            bx = by = p - 1
        x, y = y, _packed_divide(x, dx + 1, y, dy, bits, p)[1]
        dx, dy, bx, by = dy, dy - 1, by, bx + steps * by
        while dy >= 0 and (y >> dy * bits) % p == 0:
            y &= (1 << dy * bits) - 1
            dy -= 1
    return gf_monic(slots.unpack(x, dx + 1), p)


def gf_gcdex(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s*f + t*g = 1 for coprime f, g in (Z/p)[x]."""
    r0, r1 = gf_trunc(f, p), gf_trunc(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gf_trunc(sub(s0, gf_mul(q, s1, p)), p)
        t0, t1 = t1, gf_trunc(sub(t0, gf_mul(q, t1, p)), p)
    assert len(r0) == 1, "gf_gcdex requires coprime inputs"
    inv = pow(r0[0], -1, p)
    return gf_trunc(mul_ground(s0, inv), p), gf_trunc(mul_ground(t0, inv), p)


def gf_is_squarefree(f: list[int], p: int) -> bool:
    f = gf_monic(f, p)
    return len(gf_gcd(f, gf_trunc(derivative(f), p), p)) == 1


def berlekamp(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors of a monic squarefree f over GF(p), sorted.

    The vectors v with v^p = v mod f are the left null space of Q - I; its r
    basis vectors, one for each row of Q - I that `_left_nullspace` finds
    dependent on the rows before it, are taken in turn.  The minimal
    polynomial m of v mod u, u a factor found so far, is the product of
    y - s over the values s of v on the irreducible factors of u.  While m
    has two roots or more, a root s found by evaluation at 0, 1, ... is
    divided out of m, and gcd(u, v - s) peels off its factors.

    >>> berlekamp([1, 0, 0, 0, 1], 5)  # x^4 + 1 = (x^2 + 2)(x^2 + 3) mod 5
    [[2, 0, 1], [3, 0, 1]]
    """
    f = gf_monic(f, p)
    n = degree(f)
    if n <= 1:
        return [f]
    m = _frobenius_rows(f, p)
    for i, row in enumerate(m):
        row[i] -= 1
    basis = list(_left_nullspace(m, n, n, p))
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
            # v constant mod u (always so for linear u) means u is one class.
            if len(vu) > 1 and len(done) + left < r:
                m = _minimal_polynomial(vu, u, p)
                s = 0
                while len(m) > 2:  # the last value's class is what is left of u
                    if not _gf_eval(m, s, p):
                        g = gf_gcd(u, [(vu[0] - s) % p] + vu[1:], p)
                        done.append(g)
                        u = gf_divmod(u, g, p)[0]
                        m = gf_divmod(m, [-s % p, 1], p)[0]
                    s += 1
            done.append(u)
        factors = done
        if len(factors) == r:
            break
    return sorted(factors)


def _minimal_polynomial(a: list[int], u: list[int], p: int) -> list[int]:
    """The monic minimal polynomial of a in GF(p)[x]/(u), ascending: the
    first combination of 1, a, a^2, ... mod u that vanishes.  Each power is
    computed only when `_left_nullspace` asks for it, so no more than
    deg m + 1 of them."""
    d = degree(u)

    def powers():
        power = [1]
        while True:
            yield power + [0] * (d - len(power))
            power = gf_divmod(gf_mul(power, a, p), u, p)[1]

    return strip(next(_left_nullspace(powers(), d, d + 1, p)))


class _Slots:
    """Rows of ints in [0, 2^bits), each packed into one int, a fixed-width slot an entry.

    Entry j of a row sits in bits j * bits up to (j + 1) * bits of its packed
    value.  pack and unpack go through the little-endian bytes of the row
    (`struct`), so neither costs a Python step per entry; the codec of each
    row length is built once.
    """

    __slots__ = ("bits", "_code")

    def __init__(self, code: str) -> None:
        self._code = code
        self.bits = 8 * struct.calcsize("<" + code)

    def pack(self, row: list[int]) -> int:
        return int.from_bytes(_row_codec(len(row), self._code).pack(*row), "little")

    def unpack(self, x: int, n: int) -> tuple[int, ...]:
        codec = _row_codec(n, self._code)
        return codec.unpack(x.to_bytes(codec.size, "little"))


@functools.lru_cache(maxsize=1024)
def _row_codec(n: int, code: str) -> struct.Struct:
    return struct.Struct(f"<{n}{code}")


_WIDTHS = tuple(_Slots(code) for code in "BHIQ")  # slots of 1, 2, 4 and 8 bytes


def _slots(bound: int) -> _Slots | None:
    """The narrowest `_Slots` that hold every int in [0, bound]; None past 8 bytes."""
    return next((s for s in _WIDTHS if bound >> s.bits == 0), None)


def _frobenius_rows(f: list[int], p: int) -> list[list[int]]:
    """Berlekamp's matrix Q of a monic f of degree n >= 2: rows x^(p*i) mod f, i < n.

    Each row holds n ints in [0, p) and is row i - 1 times x^p.  For p < n
    that takes p shifts of the row packed into `_Slots`: a shift moves every
    coefficient up one slot and takes the c that reaches x^n back down by
    adding (-c mod p) times the low part of f, less than p^2 a slot.  The row
    is reduced mod p after its p shifts, so no slot exceeds p + p^3.  For
    p >= n it is one product with x^p mod f, which squarings and shifts give.
    """
    n = degree(f)
    rows = [[1] + [0] * (n - 1)]
    if p < n:
        slots = _slots(p + p**3)
        bits, top = slots.bits, n * slots.bits
        low, below = slots.pack(f[:n]), (1 << top) - 1
        x = 1
        for _ in range(1, n):
            for _ in range(p):
                x <<= bits
                x = (x & below) + (-(x >> top) % p) * low
            rows.append([c % p for c in slots.unpack(x, n)])
            x = slots.pack(rows[-1])
        return rows
    xp = [1]
    for bit in bin(p)[2:]:
        xp = gf_divmod(gf_mul(xp, xp, p), f, p)[1]
        if bit == "1":
            xp = gf_divmod([0] + xp, f, p)[1]
    cur = [1]
    for _ in range(1, n):
        cur = gf_divmod(gf_mul(cur, xp, p), f, p)[1]
        rows.append(cur + [0] * (n - len(cur)))
    return rows


def _left_nullspace(rows: Iterable[list[int]], n: int, k: int, p: int) -> Iterator[list[int]]:
    """The combination v, v*M = 0 over GF(p), of each row of M that is a
    combination mod p of the rows before it; M has at most k rows of n ints,
    read lazily, and v[i] = 1 for row i with 0 after it.

    Row i, reduced mod p, is packed into `_Slots` before the unit vector e_i
    of length k, which carries its combination, and reduced by the pivot
    rows in order: with c in a pivot's column it becomes row + (p - c) *
    pivot row, one multiply-add that leaves a multiple of p there.  Pivot
    rows are reduced mod p with the pivot made 1, so each of at most k
    additions is less than p^2 a slot and no slot exceeds p + k p^2.  A row
    that vanishes mod p yields its combination; any other becomes a pivot.

    >>> list(_left_nullspace([[1, 2], [2, 4], [0, 1]], 2, 3, 5))
    [[3, 1, 0]]
    """
    slots = _slots(p + k * p * p)
    if slots is None:
        raise ValueError(f"a slot of {(p + k * p * p).bit_length()} bits is wider than 8 bytes")
    bits = slots.bits
    unit = [0] * k
    # (shift of the pivot column, mask of the slots up to it, pivot row)
    pivots: list[tuple[int, int, int]] = []
    for i, row in enumerate(rows):
        unit[i] = 1
        x = slots.pack([c % p for c in row] + unit)
        unit[i] = 0
        for shift, low, piv in pivots:
            c = ((x & low) >> shift) % p
            if c:
                x += (p - c) * piv
        e = slots.unpack(x, n + k)
        j = next((j for j in range(n) if e[j] % p), None)
        if j is None:
            yield [c % p for c in e[n:]]
        else:
            inv = pow(e[j], -1, p)
            low = (1 << (j + 1) * bits) - 1
            pivots.append((j * bits, low, slots.pack([c * inv % p for c in e])))


# -- Hensel lifting -----------------------------------------------------


def _hensel_step(M, f, g, h, s, t):
    """One quadratic lift of the factors from mod m to mod M, M dividing m*m.

    h monic; f = g*h and s*g + t*h = 1 (mod m).  Returns G, H with f = G*H
    (mod M), H monic; `hensel_lift` lifts s and t to go with them.
    """
    e = gf_trunc(sub(f, mul(g, h)), M)
    q, r = gf_divmod(mul(s, e), h, M)
    G = gf_trunc(add(add(g, mul(t, e)), mul(q, g)), M)
    H = gf_trunc(add(h, r), M)
    return G, H


def hensel_lift(p: int, f: list[int], modular: list[list[int]], l: int) -> list[list[int]]:
    """Lift the monic mod-p factors of f (up to lc) to monic factors mod p^l, in their order.

    A linear factor t - r is lifted as a simple root of f by Newton's
    iteration r <- r - f(r)/f'(r), which needs no Bezout coefficients.  The
    quotient g of lc^-1 f by the lifted linear factors is the product of the
    others: with one left, g is that factor; with two or more, they are
    split into two halves, g = G*H is lifted from mod p by quadratic steps,
    and each half is lifted the same way from its own product.  Every lift
    squares its modulus up to min(m^2, p^l), so the last step stops at
    exactly p^l.  The Bezout coefficients s, t are lifted after every step
    but the last, as nothing reads them at p^l.
    """
    pl = p**l
    df = derivative(f)
    g = gf_trunc(mul_ground(f, pow(f[-1], -1, pl)), pl)
    lifted = []
    for u in modular:
        if len(u) == 2:
            r, m = -u[0] % p, p
            while m < pl:
                m = min(m * m, pl)
                r = (r - _gf_eval(f, r, m) * pow(_gf_eval(df, r, m), -1, m)) % m
            u = [-r % pl, 1]
            g = gf_divmod(g, u, pl)[0]
        lifted.append(u)
    rest = [u for u in modular if len(u) > 2]
    nonlinear = [g]
    if len(rest) > 1:
        k = len(rest) // 2
        G = H = [1]
        for u in rest[:k]:
            G = gf_mul(G, u, p)
        for u in rest[k:]:
            H = gf_mul(H, u, p)
        s, t = gf_gcdex(G, H, p)
        m = p
        while m < pl:
            m = min(m * m, pl)
            G, H = _hensel_step(m, g, G, H, s, t)
            if m < pl:
                # Lift s, t to s*G + t*H = 1 (mod m) for the next step.
                b = gf_trunc(sub(add(mul(s, G), mul(t, H)), [1]), m)
                c, d = gf_divmod(mul(s, b), H, m)
                s, t = gf_trunc(sub(s, d), m), gf_trunc(sub(sub(t, mul(t, b)), mul(c, G)), m)
        nonlinear = hensel_lift(p, G, rest[:k], l) + hensel_lift(p, H, rest[k:], l)
    lifts = iter(nonlinear)
    return [u if len(u) == 2 else next(lifts) for u in lifted]


# -- cyclotomic factors -------------------------------------------------

def _split_cyclotomic(f: list[int], confirm: bool = False) -> tuple[list[tuple[list[int], int]], list[int]]:
    """The cyclotomic factors (Phi_m, multiplicity) of f, ascending m, and the cofactor.

    If Phi_m^k divides f then Phi_m(b)^k divides f(b), b = 2^_CYCLOTOMIC_BITS,
    so f(b) is formed once and every m with phi(m) <= deg f costs one integer
    remainder, and one more for each time Phi_m(b) divides again.  The hits
    are collected by value, each divided out of f(b), and f is divided once
    by their product.  Only when that division fails, as a false hit makes
    it, is the scan run again with confirm set: each hit is then confirmed
    by its own exact division before it is divided out.  The cofactor has
    no cyclotomic factor left.
    """
    n = degree(f)
    fb = 0
    for c in reversed(f):
        fb = (fb << _CYCLOTOMIC_BITS) + c
    found, cofactor = [], f
    for m, ph, at_b, primes in _CYCLOTOMIC.cover(n):
        k = 0
        while ph <= n and fb % at_b == 0:
            if confirm:
                q = exact_div_int(cofactor, _CYCLOTOMIC.poly(m, primes))
                if q is None:
                    break
                cofactor = q
            fb, n, k = fb // at_b, n - ph, k + 1
        if k:
            found.append((list(_CYCLOTOMIC.poly(m, primes)), k))
    if found and not confirm:
        cofactor = exact_div_int(f, functools.reduce(mul, (phi for phi, k in found for _ in range(k))))
        if cofactor is None:
            return _split_cyclotomic(f, confirm=True)
    return found, cofactor


# -- Zassenhaus ---------------------------------------------------------


def _degree_sums(factors: list[list[int]]) -> int:
    """Bit mask of the degrees of the products of subsets of factors."""
    mask = 1
    for g in factors:
        mask |= mask << degree(g)
    return mask


def _choose_prime(f: list[int], tested: dict[int, bool] | None = None) -> tuple[int, list[list[int]], int]:
    """First few good primes; keep the one giving the fewest modular factors.

    Also returns the bit mask of the degrees a factor of f over Z can have:
    the intersection of the subset-sum degree sets at the primes tried.  The
    search stops after three good primes, once that mask leaves only 0 and
    deg f, which proves f irreducible, or once a prime leaves at most two
    modular factors: their recombination is one complementary pair, decided
    by one lift and at most two trial divisions, and another prime could
    only save that lift.  A bad prime divides lc * f(0) or the discriminant
    of the squarefree f, so the search always ends.  f is not tested for
    squarefreeness again at a prime that `tested` already answers for.
    """
    lc, tc = f[-1], f[0]
    tested = tested or {}
    irreducible = 1 | 1 << degree(f)
    best: tuple[int, list[list[int]]] | None = None
    degrees = -1
    good_seen = 0
    for p in _primes():
        if lc % p == 0 or tc % p == 0:
            continue
        if not (tested[p] if p in tested else gf_is_squarefree(f, p)):
            continue
        facs = berlekamp(gf_monic(f, p), p)
        degrees &= _degree_sums(facs)
        if best is None or len(facs) < len(best[1]):
            best = (p, facs)
        good_seen += 1
        if good_seen >= 3 or degrees == irreducible or len(best[1]) <= 2:
            break
    assert best is not None
    return best[0], best[1], degrees


def _mignotte_bound(f: list[int]) -> int:
    n = degree(f)
    a = max(abs(c) for c in f)
    return (math.isqrt(n + 1) + 1) * 2**n * a * abs(f[-1])


# With _KNAPSACK_MIN or more lifted modular factors, `factor_squarefree`
# recombines them by van Hoeij's knapsack (`_knapsack`), below it by subsets.
# Measured on products of shifted Swinnerton-Dyer polynomials: up to 14
# factors the subsets won on every input, while at 16 their worst case,
# SD(5)'s 2^15 subsets, costs about ten times the lattice.
_KNAPSACK_MIN = 16


def _balanced_value(lc: int, values: list[int], subset: tuple[int, ...], m: int) -> int:
    """lc * prod(values[i] for i in subset), symmetric representative mod m."""
    v = lc
    for i in subset:
        v = v * values[i] % m
    return v - m if v > m // 2 else v


def factor_squarefree(f: list[int], tested: dict[int, bool] | None = None) -> list[list[int]]:
    """Irreducible factors of a primitive squarefree f, positive lead, deg >= 1.

    f(0) must be nonzero.  `factor_primitive` splits off the cyclotomic
    factors before it calls this; any left in f go through the modular path
    like every other factor.  tested, if given, says whether f is squarefree
    mod p at some primes p not dividing lc(f), as
    `_squarefree_mod_small_prime` found; the prime search does not test
    those again.
    """
    f = strip(list(f))
    assert f and f[-1] > 0 and degree(f) >= 1
    if degree(f) == 1:
        return [f]
    p, modular, degrees = _choose_prime(f, tested)
    if degrees == 1 | 1 << degree(f):
        return [f]
    B = _mignotte_bound(f)
    # The least l with p^l > 2B, in integers: a float logarithm can round
    # p^l down to 2B itself.
    l, pl = 1, p
    while pl <= 2 * B:
        l, pl = l + 1, pl * p
    lifted = hensel_lift(p, f, modular, l)
    if len(lifted) >= _KNAPSACK_MIN:
        from ._knapsack import partitions

        for pl, lifted, parts in partitions(f, p, l, lifted, lambda m: hensel_lift(p, f, modular, m)):
            out, current = [], f
            for part in parts[:-1]:
                g = [current[-1]]
                for i in part:
                    g = gf_balanced(mul(g, lifted[i]), pl)
                out.append(primitive(g))
                q = exact_div_int(current, out[-1], B)
                if q is None:
                    break
                current = primitive(q)
            else:
                return out + [current]
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
    out = []
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

    Returns [(irreducible primitive factor, multiplicity)], unsorted.  The
    cyclotomic factors, with their multiplicities, are split off first; only
    the cofactor is tested for squarefreeness at small primes, goes through
    Yun's algorithm when none of them proves it squarefree, and is factored
    by `factor_squarefree`.
    """
    f = strip(list(f))
    assert f and f[-1] > 0 and f[0] != 0 and content(f) == 1
    out, f = _split_cyclotomic(f)
    if degree(f) == 0:
        return out
    tested = _squarefree_mod_small_prime(f)
    parts = [(f, 1)] if True in tested.values() else squarefree_decomposition(f)
    for part, mult in parts:
        # The squarefree tests of f hold for a part only when it is f itself.
        out += [(irr, mult) for irr in factor_squarefree(part, tested if part == f else None)]
    return out
