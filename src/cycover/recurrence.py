"""Integer linear recurrences and biinfinite integer solutions.

A recurrence a_d x_{n+d} + ... + a_0 x_n = 0 has a biinfinite solution in
nonzero integers exactly when its auxiliary polynomial has a non-constant
factor that is monic at both ends (leading and trailing coefficients +-1).
The decision is by factorization; witnesses are built by propagating an
impulse seed through such a factor, whose unit end coefficients make both
propagation directions integral.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .laurent import LaurentPoly, ZeroPolynomial, factor_over_Z


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
        c = math.gcd(*(abs(x) for x in self.ascending))
        if self.ascending[-1] < 0:
            c = -c
        return AuxPolynomial(tuple(x // c for x in self.ascending))

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

    def value_at(self, i: int):
        return self.values[i - self.base]


def has_integer_biinfinite(f: AuxPolynomial) -> tuple[bool, Optional[LaurentPoly]]:
    """True with the smallest monic-at-both-ends non-constant factor, if any."""
    g = factor_over_Z(f.to_laurent()).unit_ends_factor()
    return g is not None, g


def _propagate_unit(g_asc: Sequence[int], lo: int, hi: int, impulse_at: int) -> dict[int, int]:
    """Solve g's recurrence with x_impulse = 1, the d-1 entries below it 0.

    Both end coefficients of g are units, so all values are integers.
    """
    d = len(g_asc) - 1
    lead, trail = g_asc[-1], g_asc[0]
    vals = {impulse_at: 1}
    for i in range(impulse_at - d + 1, impulse_at):
        vals[i] = 0
    n = impulse_at + 1
    while n <= hi:
        s = sum(g_asc[k] * vals[n - d + k] for k in range(d))
        vals[n] = -s // lead if lead > 0 else s // -lead
        assert s % lead == 0
        n += 1
    n = impulse_at - d
    while n >= lo:
        s = sum(g_asc[k] * vals[n + k] for k in range(1, d + 1))
        assert s % trail == 0
        vals[n] = -s // trail
        n -= 1
    return vals


def witness_sequence(f: AuxPolynomial, lo: int, hi: int) -> SequenceWindow:
    """A nonzero integer window on [lo, hi] solving f's recurrence.

    Seeds the witness factor's recurrence with an impulse at index d-1
    (so x_0..x_{d-2} = 0, x_{d-1} = 1) and propagates both ways.
    """
    if lo > hi:
        raise ValueError("lo must be <= hi")
    ok, g = has_integer_biinfinite(f)
    if not ok:
        raise NoWitness(f"{f} has no factor monic at both ends")
    g_asc = g.dense()
    d = len(g_asc) - 1
    vals = _propagate_unit(g_asc, min(lo, 0), max(hi, d - 1), d - 1)
    window = [vals[i] for i in range(lo, hi + 1)]
    if all(v == 0 for v in window):
        # [lo, hi] fell inside the zero padding; aim the impulse at hi instead
        vals = _propagate_unit(g_asc, lo, hi, hi)
        window = [vals[i] for i in range(lo, hi + 1)]
    out = SequenceWindow(base=lo, values=tuple(window))
    _assert_satisfies(f.to_laurent(), out)
    return out


def _assert_satisfies(f: LaurentPoly, w: SequenceWindow) -> None:
    if not f or f.degree_span() > len(w.values) - 1:
        return
    checked = apply_shift_factor(f, w)
    assert all(v == 0 for v in checked.values), "window does not satisfy the recurrence"


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
    window = [Fraction(v) for v in seed]
    produced: list[Fraction] = []
    for _ in range(steps):
        if direction is Direction.FORWARD:
            s = sum(a[k] * window[-d + k] for k in range(d))
            window.append(Fraction(-s, a[d]))
            produced.append(window[-1])
        else:
            s = sum(a[k] * window[k - 1] for k in range(1, d + 1))
            window.insert(0, Fraction(-s, a[0]))
            produced.append(window[0])
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
    if span > len(w.values) - 1:
        raise WindowTooShort(
            f"window of length {len(w.values)} cannot fit a stencil of span {span}"
        )
    items = sorted(g.coeffs.items())
    lo_exp = items[0][0]
    out_base = w.base - lo_exp
    out_len = len(w.values) - span
    out = []
    for n in range(out_base, out_base + out_len):
        out.append(sum(c * w.value_at(n + k) for k, c in items))
    return SequenceWindow(base=out_base, values=tuple(out))


def _frac_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
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


def minimal_recurrence(w: SequenceWindow, dmax: int) -> Optional[AuxPolynomial]:
    """Least-degree primitive recurrence (degree <= dmax) the window satisfies.

    Solves the homogeneous Hankel system exactly; candidate kernel vectors
    must have nonzero constant and leading coefficients to qualify as an
    auxiliary polynomial.  The all-zero window fits everything and maps
    to None.
    """
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    vals = [Fraction(v) for v in w.values]
    if len(vals) < 2 * dmax + 1:
        raise WindowTooShort(
            f"need at least {2 * dmax + 1} values for dmax={dmax}, have {len(vals)}"
        )
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
            return AuxPolynomial(ints).primitive()
    return None
