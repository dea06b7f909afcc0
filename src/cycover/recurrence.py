"""Integer linear recurrences and biinfinite integer solutions.

A recurrence a_d x_{n+d} + ... + a_0 x_n = 0 has a biinfinite solution in
nonzero integers exactly when its auxiliary polynomial has a non-constant
factor that is monic at both ends (leading and trailing coefficients +-1).
The decision is by factorization; witnesses are built by propagating an
impulse seed through such a factor, whose unit end coefficients make both
propagation directions integral.

The arithmetic is in integers.  `propagate` keeps its window as numerators
over one denominator and builds one Fraction per produced value;
`minimal_recurrence` scales the window by the lcm of its denominators,
reduces the Hankel rows by `words.bareiss_echelon`, and reads each kernel
vector off that echelon by back substitution (`words.echelon_kernel`).
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from . import _intfactor
from .laurent import LaurentPoly, ZeroPolynomial, factor_over_Z
from .words import bareiss_echelon, echelon_kernel


class InvalidRecurrence(ValueError):
    pass


class NoWitness(ValueError):
    pass


class WindowTooShort(ValueError):
    pass


class Direction(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class AuxPolynomial:
    """Auxiliary polynomial a_d t^d + ... + a_0 with a_d, a_0 nonzero, d >= 1."""

    __slots__ = ("ascending",)

    def __init__(self, ascending: Sequence[int]):
        asc = tuple(int(c) for c in ascending)
        if len(asc) < 2:
            raise InvalidRecurrence("degree must be at least 1")
        if asc[0] == 0 or asc[-1] == 0:
            raise InvalidRecurrence("constant and leading coefficients must be nonzero")
        object.__setattr__(self, "ascending", asc)

    def __setattr__(self, *a):
        raise AttributeError("AuxPolynomial is immutable")

    def __eq__(self, other):
        return isinstance(other, AuxPolynomial) and self.ascending == other.ascending

    def __hash__(self):
        return hash(self.ascending)

    @classmethod
    def from_desc(cls, descending: Sequence[int]) -> "AuxPolynomial":
        """CLI convention: a_d first."""
        return cls(tuple(reversed(tuple(descending))))

    @property
    def degree(self) -> int:
        return len(self.ascending) - 1

    def primitive(self) -> "AuxPolynomial":
        return AuxPolynomial(_intfactor.primitive(self.ascending))

    def to_laurent(self) -> LaurentPoly:
        return LaurentPoly.from_coeffs(self.ascending)

    def __str__(self):
        return str(self.to_laurent())


class SequenceWindow:
    """Values x_base, x_base+1, ..., exact rationals or integers."""

    __slots__ = ("base", "values")

    def __init__(self, base: int, values: tuple):
        if len(values) < 1:
            raise ValueError("window must be nonempty")
        self.base = base
        self.values = values

    def __eq__(self, other):
        return (
            isinstance(other, SequenceWindow)
            and self.base == other.base
            and self.values == other.values
        )

    @property
    def hi(self) -> int:
        return self.base + len(self.values) - 1


def has_integer_biinfinite(f: AuxPolynomial) -> tuple[bool, Optional[LaurentPoly]]:
    """True with the smallest monic-at-both-ends non-constant factor, if any."""
    g = factor_over_Z(f.to_laurent()).unit_ends_factor()
    return g is not None, g


def _propagate_unit(g_asc: Sequence[int], lo: int, hi: int, impulse_at: int) -> list[int]:
    """Values on [lo, hi] of g's recurrence with x_impulse = 1, the d-1 entries below it 0.

    Both end coefficients of g are units, so all values are integers.
    """
    d = len(g_asc) - 1
    base = min(lo, impulse_at - d + 1)
    vals = [0] * (max(hi, impulse_at) - base + 1)
    vals[impulse_at - base] = 1
    for i in range(impulse_at - base + 1, len(vals)):
        s = sum(map(mul, g_asc, vals[i - d : i]))
        assert s % g_asc[-1] == 0
        vals[i] = -s // g_asc[-1]
    for i in range(impulse_at - base - d, -1, -1):
        s = sum(map(mul, g_asc[1:], vals[i + 1 : i + d + 1]))
        assert s % g_asc[0] == 0
        vals[i] = -s // g_asc[0]
    return vals[lo - base : hi - base + 1]


def witness_sequence(f: AuxPolynomial, lo: int, hi: int) -> SequenceWindow:
    """A nonzero integer window on [lo, hi] solving f's recurrence."""
    return witness_window(f, has_integer_biinfinite(f)[1], lo, hi)


def witness_window(f: AuxPolynomial, g: Optional[LaurentPoly], lo: int, hi: int) -> SequenceWindow:
    """`witness_sequence` from g, the factor `has_integer_biinfinite(f)` gave: an
    impulse at index d-1 of g (x_0..x_{d-2} = 0, x_{d-1} = 1) propagated both ways."""
    if lo > hi:
        raise ValueError("lo must be <= hi")
    if g is None:
        raise NoWitness(f"{f} has no factor monic at both ends")
    g_asc = g.dense()
    window = _propagate_unit(g_asc, lo, hi, len(g_asc) - 2)
    if not any(window):
        # [lo, hi] fell inside the zero padding; aim the impulse at hi instead
        window = _propagate_unit(g_asc, lo, hi, hi)
    out = SequenceWindow(base=lo, values=tuple(window))
    if f.degree <= hi - lo:
        residue = apply_shift_factor(f.to_laurent(), out).values
        assert not any(residue), "window does not satisfy the recurrence"
    return out


def propagate(
    f: AuxPolynomial, seed: Sequence, direction: Direction, steps: int
) -> "PropagationResult":
    """Extend a length-d seed by `steps` exact values in one direction.

    Forward divides by the leading coefficient, backward by the constant
    one; each produced value is flagged integral or not, in order of
    production (outward from the seed).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    d = f.degree
    if len(seed) != d:
        raise ValueError(f"seed must have length {d}")
    a = f.ascending
    forward = direction is Direction.FORWARD
    # the window is nums / den with den > 0; each step multiplies it by |a_d| or |a_0|
    div = a[d] if forward else a[0]
    sign, div = (1, div) if div > 0 else (-1, -div)
    seed = [Fraction(v) for v in seed]
    den = math.lcm(*(v.denominator for v in seed))
    nums = [v.numerator * (den // v.denominator) for v in seed]
    produced: list[Fraction] = []
    for _ in range(steps):
        if forward:
            new = -sign * sum(map(mul, a, nums))
            nums = [*(x * div for x in nums[1:]), new]
        else:
            new = -sign * sum(map(mul, a[1:], nums))
            nums = [new, *(x * div for x in nums[:-1])]
        den *= div
        g = math.gcd(den, *nums)
        if g > 1:
            den //= g
            nums = [x // g for x in nums]
            new //= g
        produced.append(Fraction(new, den))
    integral = [v.denominator == 1 for v in produced]
    first_bad = next((i + 1 for i, ok in enumerate(integral) if not ok), None)
    return PropagationResult(
        values=tuple(produced), integral=tuple(integral), first_nonintegral=first_bad
    )


class PropagationResult:
    __slots__ = ("values", "integral", "first_nonintegral")

    def __init__(self, values: tuple, integral: tuple, first_nonintegral: Optional[int]):
        self.values = values
        self.integral = integral
        self.first_nonintegral = first_nonintegral  # 1-based step index


def apply_shift_factor(g: LaurentPoly, w: SequenceWindow) -> SequenceWindow:
    """y_n = sum of g_k * x_{n+k}; the window shrinks by the span of g."""
    if not g:
        raise ZeroPolynomial("cannot apply the zero polynomial")
    span = g.degree_span()
    vals = w.values
    if span > len(vals) - 1:
        raise WindowTooShort(f"window of length {len(vals)} cannot fit a stencil of span {span}")
    items = sorted(g.coeffs.items())
    lo_exp = items[0][0]
    out_len = len(vals) - span
    out = [0] * out_len
    for k, c in items:
        out = [y + c * x for y, x in zip(out, vals[k - lo_exp : k - lo_exp + out_len])]
    return SequenceWindow(base=w.base - lo_exp, values=tuple(out))


def minimal_recurrence(w: SequenceWindow, dmax: int) -> Optional[AuxPolynomial]:
    """Least-degree primitive recurrence (degree <= dmax) the window satisfies.

    Solves the homogeneous Hankel system exactly; candidate kernel vectors
    must have nonzero constant and leading coefficients to qualify as an
    auxiliary polynomial.  The all-zero window fits everything and maps
    to None.
    """
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    vals = w.values
    if len(vals) < 2 * dmax + 1:
        raise WindowTooShort(
            f"need at least {2 * dmax + 1} values for dmax={dmax}, have {len(vals)}"
        )
    den = math.lcm(*(v.denominator for v in vals))
    xs = [v.numerator * (den // v.denominator) for v in vals]
    if not any(xs):
        return None
    for d in range(1, dmax + 1):
        rows = [xs[n : n + d + 1] for n in range(len(xs) - d)]
        pivots, _ = bareiss_echelon(rows, d + 1)
        for free in range(d + 1):
            if free not in pivots:
                v = echelon_kernel(rows, d + 1, pivots, free)
                if v[0] and v[d]:
                    return AuxPolynomial(v).primitive()
    return None
