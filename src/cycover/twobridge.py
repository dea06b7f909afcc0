"""Two-bridge knot group presentations from a coprime pair (p, q).

The standard 2-generator 1-relator presentation: with e_i = (-1)^floor(iq/p)
for i = 1..p-1 and w the word alternating v, u (v in odd positions, u in
even), the group is <u, v | u w = w v>.  Also provides the one-parameter
family <u, a | u a^n u a^-n u^-1 a^(n-1) u^-1 a^-n>, which the (4n-1, 4n-3)
presentations reduce to after substituting v = u a.

The group is that of the two-bridge knot b(p, q) for odd q only.  For even
q the relator still gives a deficiency-one group with H1 = Z, but not a
knot group: (5, 2) gives Delta = t^2 - 2t + 2, which is not symmetric.
b(p, p - q), the mirror image of b(p, q), has the same group and an odd
p - q.
"""

from __future__ import annotations

import math

from .words import FreeWord, Presentation


class InvalidParams(ValueError):
    pass


class TwoBridgeParams:
    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if p <= 0 or p % 2 == 0:
            raise InvalidParams(f"p must be odd and positive, got {p}")
        if not 0 < q < p:
            raise InvalidParams(f"q must satisfy 0 < q < p, got q={q}")
        if math.gcd(p, q) != 1:
            raise InvalidParams(f"p and q must be coprime, got ({p}, {q})")
        self.p = p
        self.q = q


def epsilon_sequence(params: TwoBridgeParams) -> list[int]:
    """Signs e_i = (-1)^floor(iq/p) for i = 1..p-1."""
    p, q = params.p, params.q
    return [(-1) ** ((i * q) // p) for i in range(1, p)]


def presentation(params: TwoBridgeParams) -> Presentation:
    """<u, v | u w v^-1 w^-1> with w = v^e1 u^e2 v^e3 ... (length p-1):
    the knot group of b(p, q) when q is odd, and not a knot group when q
    is even (see the module docstring)."""
    eps = epsilon_sequence(params)
    syl = []
    for i, e in enumerate(eps, start=1):
        syl.append(("v" if i % 2 == 1 else "u", e))
    w = FreeWord.make(syl)
    u = FreeWord.make([("u", 1)])
    v_inv = FreeWord.make([("v", -1)])
    relator = u * w * v_inv * w.inverse()
    return Presentation.make(("u", "v"), [relator])


def family_presentation(n: int) -> Presentation:
    """<u, a | u a^n u a^-n u^-1 a^(n-1) u^-1 a^-n>; the a^(n-1) drops at n=1."""
    if n < 1:
        raise InvalidParams(f"family parameter must be >= 1, got {n}")
    relator = FreeWord.make(
        [
            ("u", 1),
            ("a", n),
            ("u", 1),
            ("a", -n),
            ("u", -1),
            ("a", n - 1),
            ("u", -1),
            ("a", -n),
        ]
    )
    return Presentation.make(("u", "a"), [relator])
