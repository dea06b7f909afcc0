"""Exact integer Laurent polynomials in one variable t.

Coefficients are arbitrary-precision integers; there is no floating point in
this module.  A polynomial is stored sparsely as {exponent: nonzero coeff}.
The canonical form produced by normalize() shifts the lowest exponent to 0 and
makes the leading coefficient positive; downstream invariants only ever depend
on that orbit representative.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Union

from . import _numbers


class ZeroPolynomial(ValueError):
    pass


class NotPrime(ValueError):
    pass


class _Infinite:
    """Sentinel for the degree span of the zero polynomial."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinite"


INFINITE = _Infinite()


class LaurentPoly:
    """An integer Laurent polynomial.

    >>> f = LaurentPoly.from_coeffs([2, -5, 2])
    >>> print(f * LaurentPoly({-1: 1}))
    2t - 5 + 2t^-1
    >>> print((-f * LaurentPoly({-1: 1})).normalize())
    2t^2 - 5t + 2
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int]):
        object.__setattr__(self, "_coeffs", {e: c for e, c in coeffs.items() if c})

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int], low: int = 0) -> "LaurentPoly":
        """Coefficients listed from the lowest exponent `low` upward."""
        return cls({low + i: c for i, c in enumerate(coeffs)})

    # -- basic queries ------------------------------------------------

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def coeff(self, e: int) -> int:
        return self._coeffs.get(e, 0)

    def low(self) -> int:
        if not self._coeffs:
            raise ZeroPolynomial("zero polynomial has no lowest exponent")
        return min(self._coeffs)

    def high(self) -> int:
        if not self._coeffs:
            raise ZeroPolynomial("zero polynomial has no highest exponent")
        return max(self._coeffs)

    def degree_span(self) -> Union[int, _Infinite]:
        """high - low; Infinite for the zero polynomial."""
        if not self._coeffs:
            return INFINITE
        return self.high() - self.low()

    def dense(self) -> list[int]:
        """Coefficients of t^low .. t^high as a list (empty for zero)."""
        if not self._coeffs:
            return []
        lo, hi = self.low(), self.high()
        return [self._coeffs.get(e, 0) for e in range(lo, hi + 1)]

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not closed over Z[t, 1/t]")
        out = LaurentPoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    # -- canonical form and friends -----------------------------------

    def normalize(self) -> "LaurentPoly":
        """Unit-canonical representative: lowest exponent 0, leading coeff > 0."""
        if not self._coeffs:
            return self
        lo = self.low()
        sign = 1 if self._coeffs[self.high()] > 0 else -1
        return LaurentPoly({e - lo: sign * c for e, c in self._coeffs.items()})

    def shifted_to_zero(self) -> "LaurentPoly":
        """Shift the lowest exponent to 0, keeping signs."""
        if not self._coeffs:
            return self
        lo = self.low()
        return LaurentPoly({e - lo: c for e, c in self._coeffs.items()})

    def content(self) -> int:
        if not self._coeffs:
            return 0
        return math.gcd(*(abs(c) for c in self._coeffs.values()))

    def is_monic_both_ends(self) -> bool:
        """Leading and trailing coefficients both +-1; False for the zero polynomial."""
        if not self._coeffs:
            return False
        return abs(self._coeffs[self.low()]) == 1 and abs(self._coeffs[self.high()]) == 1

    def reduce_mod(self, p: int) -> "LaurentPoly":
        """The polynomial of coefficient residues in [0, p), p a prime."""
        if not _numbers.is_prime(p):
            raise NotPrime(f"{p} is not prime")
        return LaurentPoly({e: c % p for e, c in self._coeffs.items()})

    # -- text form ----------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                tpart = "t" if e == 1 else f"t^{e}"
                body = tpart if mag == 1 else f"{mag}{tpart}"
            parts.append((sign, body))
        first_sign = "-" if parts[0][0] == "-" else ""
        text = first_sign + parts[0][1]
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


class Factorization:
    """f = sign * t^unit_exp * content * prod(poly^mult).

    Factors are primitive, irreducible over Z, in canonical form (lowest
    exponent 0, positive leading coefficient), ordered by (degree, coeffs).
    """

    __slots__ = ("sign", "unit_exp", "content", "factors")

    def __init__(
        self, sign: int, unit_exp: int, content: int, factors: tuple[tuple[LaurentPoly, int], ...]
    ):
        self.sign = sign
        self.unit_exp = unit_exp
        self.content = content
        self.factors = factors

    def unit_ends_factor(self) -> Optional[LaurentPoly]:
        """The first non-constant factor monic at both ends, or None."""
        return next(
            (g for g, _ in self.factors if g.degree_span() >= 1 and g.is_monic_both_ends()),
            None,
        )


def factor_over_Z(f: LaurentPoly) -> Factorization:
    """Complete factorization of a nonzero integer Laurent polynomial.

    Cyclotomic factors, with multiplicities, are split off exactly first;
    the rest goes through a squarefree split, good-prime modular
    factorization, lifting to a coefficient bound (linear modular factors as
    p-adic roots by Newton's iteration, the others by Hensel steps), then
    recombination with early-exit trial division: by subsets when few
    modular factors are left, by van Hoeij's knapsack (lattice reduction on
    the power sums of their roots) when many are.  Deterministic.
    """
    from . import _intfactor

    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    unit_exp = f.low()
    sign = 1 if f.coeff(f.high()) > 0 else -1
    content = f.content()
    dense = (f.normalize()).dense()  # primitive up to content; lowest exp 0, lc > 0
    dense = [c // content for c in dense]
    raw = _intfactor.factor_primitive(dense)
    factors = sorted(
        ((LaurentPoly.from_coeffs(g), m) for g, m in raw),
        key=lambda fm: (fm[0].high(), tuple(fm[0].dense())),
    )
    return Factorization(sign=sign, unit_exp=unit_exp, content=content, factors=tuple(factors))


def exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly | None:
    """f / g when the division is exact in Z[t, 1/t]; None otherwise."""
    from . import _intfactor

    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
        return LaurentPoly.zero()
    q = _intfactor.exact_div_int(f.shifted_to_zero().dense(), g.shifted_to_zero().dense())
    if q is None:
        return None
    return LaurentPoly.from_coeffs(q, low=f.low() - g.low())
