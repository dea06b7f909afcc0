"""Shared presentations and weightings used across the test modules."""

from math import gcd

from cycover.twobridge import TwoBridgeParams, family_presentation, presentation
from cycover.words import FreeWord, Presentation, parse_presentation

# kernel of the weighting is the dyadic rationals
DYADIC = parse_presentation("<t, a | t a t^-1 a^-2>")
BS23 = parse_presentation("<x, y | x y^2 x^-1 y^-3>")
# one-relator group whose kernel has no proper finite-index subgroups
NOCOVER = parse_presentation(
    "<t, a | t a^-2 t^-1 a^-1 t a^-1 t^-1 a t a t^-1 a^-1 t a t^-1 a>"
)
# every finite quotient cyclic; consecutive kernel generators satisfy
# the same relation the NOCOVER kernel imposes
BAUMSLAG_B = parse_presentation("<x, y | y^-2 x^-1 y^-1 x y x^-1 y x>")
# both weights exceed 1 in absolute value, so no column can be deleted
TORUS23 = parse_presentation("<x, y | x^2 y^-3>")

UA = FreeWord.make([("u", 1), ("a", 1)])


def two_bridge_pairs(pmax=15):
    return [
        (p, q)
        for p in range(3, pmax + 1, 2)
        for q in range(1, p)
        if gcd(p, q) == 1
    ]


def trefoil():
    return presentation(TwoBridgeParams(3, 1))


def figure_eight():
    return presentation(TwoBridgeParams(5, 3))


def weight_zero_form(p, q):
    """Two-bridge presentation rewritten so only u carries weight 1."""
    pres = presentation(TwoBridgeParams(p, q)).tietze_substitute("v", UA)
    return pres, {"u": 1, "a": 0}


def wirtinger_torus_text(n, relators=None, drop=None):
    """The Wirtinger presentation of the torus knot T(2, n), n odd, as text.

    One generator per arc and one relation x{i+1} = x{i} x{i-1} x{i}^-1 per
    crossing, indices mod n; only the first `relators` relations are kept
    (all n by default), less relation number `drop` if one is given.  Any
    one of them follows from the others.
    """
    x = [f"x{i}" for i in range(n)]
    rels = [f"{x[(i + 1) % n]} = {x[i]} {x[i - 1]} {x[i]}^-1" for i in range(n) if i != drop]
    return "<" + ", ".join(x) + " | " + ", ".join(rels[:relators]) + ">"


def prime_product_exponents():
    """(A, B, C, D): the primes below 20,000 dealt out in turn to four products.

    With these exponents, <t, a, b | t a^A t^-1 a^-C, t b^B t^-1 b^-D>
    weighted t=1, a=0, b=0 has delta (A t - C)(B t - D).  Every prime below
    20,000 divides lc * delta(0) = A B C D, so a search for a good prime has
    to go past 20,000.  Each product has about 2,150 digits.
    """
    limit = 20000
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    out = [1, 1, 1, 1]
    k = 0
    for n in range(limit):
        if sieve[n]:
            sieve[n * n :: n] = bytes(len(range(n * n, limit, n)))
            out[k % 4] *= n
            k += 1
    return tuple(out)


def prime_product_text():
    a, b, c, d = prime_product_exponents()
    return f"<t, a, b | t a^{a} t^-1 a^-{c}, t b^{b} t^-1 b^-{d}>"


def artin_presentation(n, word):
    """The Artin presentation <x1, ..., xn | b(xi) = xi> of the closed braid b in B_n.

    `word` lists the letters of b: i for sigma_i, -i for its inverse.
    sigma_i sends x_i to x_i x_(i+1) x_i^-1 and x_(i+1) to x_i, and its
    inverse sends x_i to x_(i+1) and x_(i+1) to x_(i+1)^-1 x_i x_(i+1).  Any
    one relator follows from the others.
    """
    x = [f"x{i}" for i in range(1, n + 1)]
    image = {g: FreeWord.make([(g, 1)]) for g in x}
    for letter in word:
        a, b = x[abs(letter) - 1], x[abs(letter)]
        u, v = image[a], image[b]
        if letter > 0:
            image[a], image[b] = u * v * u.inverse(), u
        else:
            image[a], image[b] = v, v.inverse() * u * v
    return Presentation.make(x, [image[g] * FreeWord.make([(g, -1)]) for g in x])


def knotlike_corpus():
    """(name, presentation, weighting) triples with H1 = Z."""
    triples = [
        ("dyadic", DYADIC, {"t": 1, "a": 0}),
        ("bs23", BS23, {"x": 1, "y": 0}),
        ("nocover", NOCOVER, {"t": 1, "a": 0}),
        ("baumslag_b", BAUMSLAG_B, {"x": 1, "y": 0}),
        ("torus23", TORUS23, {"x": 3, "y": 2}),
    ]
    for n in range(1, 7):
        triples.append((f"family{n}", family_presentation(n), {"u": 1, "a": 0}))
    for p, q in two_bridge_pairs(11):
        triples.append(
            (f"twobridge{p}_{q}", presentation(TwoBridgeParams(p, q)), {"u": 1, "v": 1})
        )
    return triples
