"""Exact integer Laurent polynomials in one variable t.

Coefficients are arbitrary-precision integers; there is no floating point in
this module.  A polynomial is stored sparsely as {exponent: nonzero coeff}.
The canonical form produced by normalize() shifts the lowest exponent to 0 and
makes the leading coefficient positive; downstream invariants only ever depend
on that orbit representative.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Union

from . import _intfactor

if TYPE_CHECKING:
    from fractions import Fraction


class ZeroPolynomial(ValueError):
    pass


class AllZero(ValueError):
    pass


class NotPrime(ValueError):
    pass


class NotSymmetric(ValueError):
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

    >>> from fractions import Fraction
    >>> f = LaurentPoly.parse("2t^2 - 5t + 2")
    >>> f.evaluate(Fraction(1, 2))
    Fraction(0, 1)
    >>> print(f * LaurentPoly.t_power(-1))
    2t - 5 + 2t^-1
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] = ()):
        d = {int(e): int(c) for e, c in dict(coeffs).items() if c != 0}
        object.__setattr__(self, "_coeffs", d)

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
    def t_power(cls, k: int) -> "LaurentPoly":
        return cls({k: 1})

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

    def is_zero(self) -> bool:
        return not self._coeffs

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

    def reciprocal(self) -> "LaurentPoly":
        """The substitution t -> 1/t."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

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

    def primitive_part(self) -> "LaurentPoly":
        c = self.content()
        if c == 0:
            raise ZeroPolynomial("zero polynomial has no primitive part")
        return LaurentPoly({e: v // c for e, v in self._coeffs.items()})

    def evaluate(self, x: Union[int, Fraction]) -> Fraction:
        """Exact evaluation at a nonzero rational (zero allowed if no negative exponents)."""
        from fractions import Fraction

        x = Fraction(x)
        if x == 0 and self._coeffs and self.low() < 0:
            raise ZeroDivisionError("evaluation at 0 with negative exponents")
        total = Fraction(0)
        for e, c in self._coeffs.items():
            total += c * x**e
        return total

    def is_monic_both_ends(self) -> bool:
        """Leading and trailing coefficients both +-1; False for the zero polynomial."""
        if not self._coeffs:
            return False
        return abs(self._coeffs[self.low()]) == 1 and abs(self._coeffs[self.high()]) == 1

    def symmetric_form(self) -> tuple[int, ...]:
        """Centered coefficients (c_0, ..., c_n) with f ~ c_n(t^n + t^-n) + ... + c_0.

        Requires f(t) = t^k f(1/t) up to the canonical unit; raises NotSymmetric
        otherwise (including for the strictly antisymmetric case, which the
        centered template cannot express).
        """
        if not self._coeffs:
            raise ZeroPolynomial("zero polynomial has no symmetric form")
        c = self.normalize().dense()
        span = len(c) - 1
        if span % 2 != 0 or any(c[i] != c[span - i] for i in range(len(c))):
            raise NotSymmetric(f"{self} is not symmetric under t -> 1/t")
        n = span // 2
        return tuple(c[n + i] for i in range(n + 1))

    def reduce_mod(self, p: int) -> "ModPoly":
        if not _intfactor.is_prime(p):
            raise NotPrime(f"{p} is not prime")
        return ModPoly(p, {e: c % p for e, c in self._coeffs.items()})

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly({e - 1: e * c for e, c in self._coeffs.items() if e != 0})

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

    _TERM_RE = re.compile(
        r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+)\s*\*?\s*)?"
        r"(?P<t>t(?:\^\(?(?P<exp>[+-]?\d+)\)?)?)?\s*"
    )

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse '2t^2 - 5t + 2' or 't^-1 + 1 + t'."""
        out: dict[int, int] = {}
        pos = 0
        first = True
        while pos < len(text):
            m = cls._TERM_RE.match(text, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse polynomial at '...{text[pos:]}'")
            sign, coeff, tpart, exp = m.group("sign", "coeff", "t", "exp")
            if coeff is None and tpart is None:
                raise ValueError(f"cannot parse polynomial at '...{text[pos:]}'")
            if not first and sign is None:
                raise ValueError(f"missing +/- before '...{text[m.start():]}'")
            c = int(coeff) if coeff is not None else 1
            if sign == "-":
                c = -c
            e = 0
            if tpart is not None:
                e = int(exp) if exp is not None else 1
            out[e] = out.get(e, 0) + c
            pos = m.end()
            first = False
        if first:
            raise ValueError("empty polynomial text")
        return cls(out)


class ModPoly:
    """A Laurent polynomial with coefficients reduced mod a prime p."""

    __slots__ = ("p", "_coeffs")

    def __init__(self, p: int, coeffs: Mapping[int, int]):
        object.__setattr__(self, "p", p)
        object.__setattr__(
            self, "_coeffs", {e: c % p for e, c in dict(coeffs).items() if c % p != 0}
        )

    def __setattr__(self, *a):
        raise AttributeError("ModPoly is immutable")

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_unit(self) -> bool:
        """Units of (Z/p)[t, 1/t] are the single-term polynomials."""
        return len(self._coeffs) == 1

    def degree_span(self) -> Union[int, _Infinite]:
        if not self._coeffs:
            return INFINITE
        return max(self._coeffs) - min(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModPoly):
            return NotImplemented
        return self.p == other.p and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.p, tuple(sorted(self._coeffs.items()))))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        return str(LaurentPoly(self._coeffs))

    def __repr__(self) -> str:
        return f"ModPoly(p={self.p}, {self})"


@dataclass(frozen=True)
class Factorization:
    """f = sign * t^unit_exp * content * prod(poly^mult).

    Factors are primitive, irreducible over Z, in canonical form (lowest
    exponent 0, positive leading coefficient), ordered by (degree, coeffs).
    """

    sign: int
    unit_exp: int
    content: int
    factors: tuple[tuple[LaurentPoly, int], ...]

    def product(self) -> LaurentPoly:
        out = LaurentPoly({self.unit_exp: self.sign * self.content})
        for f, m in self.factors:
            out = out * f**m
        return out

    def irreducibles(self) -> list[LaurentPoly]:
        """The distinct irreducible factors, canonical order."""
        return [f for f, _ in self.factors]

    def unit_ends_factor(self) -> Optional[LaurentPoly]:
        """The first non-constant factor monic at both ends, or None."""
        return next(
            (g for g, _ in self.factors if g.degree_span() >= 1 and g.is_monic_both_ends()),
            None,
        )


def factor_over_Z(f: LaurentPoly) -> Factorization:
    """Complete factorization of a nonzero integer Laurent polynomial.

    Good-prime modular factorization, Hensel lifting to a coefficient bound,
    then subset recombination with early-exit trial division.  Deterministic.
    """
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


def gcd_many(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    """Primitive gcd of Laurent polynomials, canonical form; AllZero if all zero."""
    dense_list = []
    for f in polys:
        if not f:
            continue
        dense_list.append(f.normalize().primitive_part().dense())
    if not dense_list:
        raise AllZero("gcd of an empty or all-zero family")
    g = dense_list[0]
    for d in dense_list[1:]:
        g = _intfactor.int_poly_gcd(g, d)
        if g == [1]:
            break
    return LaurentPoly.from_coeffs(g)


def exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly | None:
    """f / g when the division is exact in Z[t, 1/t]; None otherwise."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
        return LaurentPoly.zero()
    q = _intfactor.exact_div_int(f.shifted_to_zero().dense(), g.shifted_to_zero().dense())
    if q is None:
        return None
    return LaurentPoly.from_coeffs(q, low=f.low() - g.low())
