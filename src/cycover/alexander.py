"""Fox free differential calculus and the weighted Alexander polynomial.

Given a presentation of a group G and an integer weighting chi: G -> Z,
the abelianized Fox Jacobian is a matrix over Z[t, 1/t] presenting the
first homology of the kernel of chi as a module over the Laurent ring.
Each row comes from one walk over its relator.  We delete the column of a
generator of weight +-1 and take the determinant (for a two-generator
one-relator presentation, the one entry left).

The determinant is computed over the integers by Kronecker substitution.
After each row is shifted by its lowest exponent, no coefficient of the
determinant, nor of any minor, exceeds B, the product of the row 1-norms.
Evaluating every entry at t = 2^(8w), with 2^(8w - 1) > B, turns the matrix
into one of integers; the fraction-free Bareiss echelon on it
(`words.bareiss_echelon`, the one the Smith form uses) gives the
determinant's value, whose balanced w-byte slots are its coefficients.
"""

from __future__ import annotations

from typing import Container, Mapping, Sequence, Union

from ._intfactor import Kronecker
from .laurent import LaurentPoly, _Infinite
from .words import FreeWord, Presentation, bareiss_echelon

DEFAULT_PRIMES = (2, 3, 5, 7)


class NotDeficiencyOne(ValueError):
    """More relators than generators minus one."""


class NoUnitWeightGenerator(ValueError):
    """No generator has weight +-1, so no column can be deleted."""


def _fox_row(w: FreeWord, chi: Mapping[str, int], columns: Container[str]) -> dict[str, dict]:
    """{x: {exponent: coefficient}}, the abelianized Fox derivatives of w by
    the generators x in columns that w contains, from one walk over w.

    Product rule: d(uv) = du + phi(u) dv, where phi sends each generator x to
    t^chi(x).  So a syllable x^e adds to x's derivative a geometric block of
    powers of t^chi(x), e at one exponent when chi(x) = 0, and advances the
    prefix weight by e chi(x).
    """
    row: dict[str, dict[int, int]] = {}
    h = 0  # weight of the prefix read so far
    for x, e in w.syllables:
        cx = chi[x]
        if x in columns:
            coeffs = row.setdefault(x, {})
            if cx == 0:
                coeffs[h] = coeffs.get(h, 0) + e
            elif e > 0:
                for k in range(e):
                    coeffs[h + k * cx] = coeffs.get(h + k * cx, 0) + 1
            else:
                for k in range(1, -e + 1):
                    coeffs[h - k * cx] = coeffs.get(h - k * cx, 0) - 1
        h += e * cx
    return row


def fox_derivative_abelianized(w: FreeWord, gen: str, chi: Mapping[str, int]) -> LaurentPoly:
    """Abelianized Fox derivative of w with respect to gen, `_fox_row`'s entry."""
    return LaurentPoly(_fox_row(w, chi, (gen,)).get(gen, {}))


def alexander_matrix(
    p: Presentation, chi: Mapping[str, int], delete_column: str | None = None
) -> tuple[tuple[LaurentPoly, ...], ...]:
    """Fox Jacobian of the presentation under the weighting, less one column if named.

    One row per relator, one column per generator kept, in declared order.
    A row is one `_fox_row` walk over its relator; the entries it does not
    fill share one zero.  The deleted column is never computed: a syllable
    x^e of a generator x of weight +-1 costs |e| steps in x's column, so
    that column alone can cost more than all the others.
    """
    columns = [g for g in p.generators if g != delete_column]
    kept, zero = set(columns), LaurentPoly.zero()
    rows = (_fox_row(r, chi, kept) for r in p.relators)
    return tuple(tuple(LaurentPoly(row[g]) if g in row else zero for g in columns) for row in rows)


def _det(rows: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Determinant of a square matrix over Z[t, 1/t], by Kronecker substitution.

    Each row is shifted by its lowest exponent, which leaves polynomials in t
    and multiplies the determinant by t^-(sum of the row lows).  No coefficient
    of the determinant exceeds B, the product of the row 1-norms (the sum over
    a row of its entries' coefficient sizes), nor does any coefficient of a
    minor, so every entry is evaluated at t = 2^(8w) with 2^(8w - 1) > B, and
    `bareiss_echelon` runs on those integers.  A minor vanishes exactly when
    its value does (its roots are at most 1 + B in size), so the pivots are
    those of elimination over the polynomials: rank below k means the
    determinant is 0, and otherwise it is the echelon's sign times its last
    pivot, whose balanced byte slots are the coefficients of the shifted
    determinant.  A 1 x 1 matrix is its own determinant.
    """
    k = len(rows)
    if k == 0:
        return LaurentPoly.constant(1)
    if k == 1:
        return rows[0][0]
    bound, lows, span = 1, [], 1
    for row in rows:
        nonzero = [e for e in row if e]
        if not nonzero:
            return LaurentPoly.zero()
        bound *= sum(abs(c) for e in nonzero for c in e.coeffs.values())
        lows.append(min(e.low() for e in nonzero))
        span += max(e.high() for e in nonzero) - lows[-1]
    codec = Kronecker(bound)
    a = [
        [codec.pack([0] * (e.low() - lo) + e.dense()) if e else 0 for e in row]
        for row, lo in zip(rows, lows)
    ]
    pivots, sign = bareiss_echelon(a, k)
    if len(pivots) < k:
        return LaurentPoly.zero()
    return LaurentPoly.from_coeffs(codec.unpack(sign * a[-1][-1], span), low=sum(lows))


class AlexanderResult:
    __slots__ = ("delta", "deleted_column")

    def __init__(self, delta: LaurentPoly, deleted_column: str):
        self.delta = delta
        self.deleted_column = deleted_column


def mod_p_table(
    delta: LaurentPoly, primes=DEFAULT_PRIMES
) -> dict[int, tuple[LaurentPoly, Union[int, _Infinite]]]:
    """Each prime's reduction of delta, with its degree span d(p)."""
    out = {}
    for p in primes:
        m = delta.reduce_mod(p)
        out[p] = (m, m.degree_span())
    return out


def alexander_polynomial(p: Presentation, chi: Mapping[str, int]) -> AlexanderResult:
    """Alexander polynomial of the weighting kernel, canonical form, and the column deleted.

    Requires at most n-1 relators for n generators.  With exactly n-1
    the polynomial is the determinant after deleting the column of the
    first weight +-1 generator; with fewer relators the kernel module
    has a free summand of positive rank and the polynomial is 0.  Its
    reductions mod primes are `mod_p_table`'s.
    """
    m, n = len(p.relators), len(p.generators)
    if m > n - 1:
        raise NotDeficiencyOne(
            f"need at most {n - 1} relators for {n} generators, have {m}"
        )
    delete_column = next((g for g in p.generators if abs(chi[g]) == 1), None)
    if delete_column is None:
        raise NoUnitWeightGenerator(
            "no generator has weight +-1; substitute one in first"
        )
    if m < n - 1:
        delta = LaurentPoly.zero()
    else:
        delta = _det(alexander_matrix(p, chi, delete_column)).normalize()
    return AlexanderResult(delta=delta, deleted_column=delete_column)
