"""Free-group words, presentations, and integer weightings.

Words are kept in syllable (run-length) form: a tuple of (generator, exponent)
pairs with nonzero exponents and no two adjacent pairs sharing a generator.
All arithmetic is exact; generators are plain strings.

`parse_presentation` reads this grammar, with whitespace (Unicode included)
allowed before any token:

    presentation := "<" name ("," name)* ["|" [relation ("," relation)*]] ">"
    relation     := word ["=" word]
    word         := "1" | (generator ["^" exponent])*
    exponent     := integer | "(" integer ")"
    name         := [A-Za-z][A-Za-z0-9]*
    integer      := ["+" | "-"] digit+

A generator is the longest declared name at that point, so "tat^-1" reads
as t a t^-1 when the generators are t and a; the word "1" is the identity,
and an empty word is one too.  Reading a generator costs one set probe per
distinct name length, and free and cyclic reduction are single passes, so
parsing takes time linear in the text.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from itertools import chain
from typing import Hashable, Iterable, NoReturn

Syllable = tuple[str, int]


class ParseError(ValueError):
    """Raised on malformed presentation text, with its line and column if it has any."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class DuplicateGenerator(ParseError):
    pass


class UnknownGenerator(ParseError):
    pass


class SelfReference(ValueError):
    pass


class NotKnotLike(ValueError):
    pass


def _reduce(syllables: Iterable[tuple[Hashable, int]]) -> tuple[tuple[Hashable, int], ...]:
    # Free reduction: merge adjacent runs of the same letter, drop zeros.  A
    # letter is a generator here, and a (symbol, offset) pair in rscover.
    out: list[list] = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([gen, exp])
    return tuple((g, e) for g, e in out)


class FreeWord:
    """A freely reduced word, e.g. FreeWord.make([("t", 1), ("a", -2)]).

    >>> w = FreeWord.make([("t", 1), ("a", 2), ("a", -2), ("t", 1)])
    >>> w.syllables
    (('t', 2),)
    >>> (w * w.inverse()).syllables
    ()
    """

    __slots__ = ("syllables",)

    def __init__(self, syllables: tuple[Syllable, ...] = ()):
        self.syllables = syllables

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.syllables == other.syllables

    def __hash__(self):
        return hash(self.syllables)

    @classmethod
    def make(cls, syllables: Iterable[Syllable]) -> "FreeWord":
        return cls(_reduce(syllables))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(_reduce(self.syllables + other.syllables))

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, n: int) -> "FreeWord":
        return FreeWord.make((self if n >= 0 else self.inverse()).syllables * abs(n))

    def exponent_sum(self, gen: str) -> int:
        return sum(e for g, e in self.syllables if g == gen)

    def generators_used(self) -> set[str]:
        return {g for g, _ in self.syllables}

    def cyclic_reduce(self) -> "FreeWord":
        """Strip matching conjugating ends until the word is cyclically reduced.

        Ends that cancel are stripped in pairs; a pair that does not cancel
        folds the smaller end into the larger, after which the ends differ.
        """
        syl = self.syllables
        i, j = 0, len(syl) - 1
        while i < j and syl[i][0] == syl[j][0] and (syl[i][1] > 0) != (syl[j][1] > 0):
            (g, e0), (_, e1) = syl[i], syl[j]
            i, j = i + 1, j - 1
            if e0 + e1:
                end, inner = ((g, e0 + e1),), syl[i : j + 1]
                return FreeWord(end + inner if abs(e0) > abs(e1) else inner + end)
        return FreeWord(syl[i : j + 1])

    def substitute(self, gen: str, replacement: "FreeWord") -> "FreeWord":
        """Replace every occurrence of gen (any exponent) by replacement."""
        pieces = ((replacement**e).syllables if g == gen else ((g, e),) for g, e in self.syllables)
        return FreeWord.make(chain.from_iterable(pieces))

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        parts = []
        for g, e in self.syllables:
            parts.append(g if e == 1 else f"{g}^{e}")
        return " ".join(parts)


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_INT_RE = re.compile(r"[+-]?\d+")


class _Scanner:
    """A cursor over presentation text; every parse error is raised by `fail`."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at the end."""
        text, pos = self.text, self.pos
        while (ch := text[pos : pos + 1]).isspace():
            pos += 1
        self.pos = pos
        return ch

    def fail(self, message: str, error: type[ParseError] = ParseError) -> NoReturn:
        consumed = self.text[: self.pos]
        raise error(message, consumed.count("\n") + 1, self.pos - consumed.rfind("\n"))

    def expect(self, ch: str) -> None:
        got = self.peek()
        if got != ch:
            self.fail(f"expected '{ch}', got '{got or 'end of input'}'")
        self.pos += 1

    def match(self, pattern: re.Pattern, message: str) -> str:
        self.peek()
        m = pattern.match(self.text, self.pos) or self.fail(message)
        self.pos = m.end()
        return m.group()


class Presentation:
    """A finite presentation: ordered generators plus cyclically reduced relators."""

    # __dict__ holds the cached Smith form
    __slots__ = ("generators", "relators", "__dict__")

    def __init__(self, generators: tuple[str, ...], relators: tuple[FreeWord, ...]):
        seen = set()
        for g in generators:
            if g in seen:
                raise DuplicateGenerator(f"duplicate generator '{g}'")
            seen.add(g)
        for r in relators:
            for g in r.generators_used():
                if g not in seen:
                    raise UnknownGenerator(f"relator uses undeclared generator '{g}'")
            if r.syllables != FreeWord.make(r.syllables).cyclic_reduce().syllables:
                raise ValueError(f"relator '{r}' is not cyclically reduced")
        self.generators = generators
        self.relators = relators

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and self.generators == other.generators
            and self.relators == other.relators
        )

    def __hash__(self):
        return hash((self.generators, self.relators))

    @classmethod
    def make(cls, generators: Iterable[str], relators: Iterable[FreeWord]) -> "Presentation":
        return cls(tuple(generators), tuple(r.cyclic_reduce() for r in relators))

    def deficiency(self) -> int:
        return len(self.generators) - len(self.relators)

    def exponent_matrix(self) -> list[list[int]]:
        """Rows = relators, columns = generators (declared order)."""
        rows = []
        for r in self.relators:
            row = dict.fromkeys(self.generators, 0)
            for g, e in r.syllables:
                row[g] += e
            rows.append(list(row.values()))
        return rows

    @cached_property
    def _smith(self) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
        """`smith_diagonal` of the exponent matrix, computed once per presentation:
        the nonzero invariant factors of H_1's relation matrix, and the primitive
        kernel vector when H_1 has free rank one."""
        diag, kernel = smith_diagonal(self.exponent_matrix(), len(self.generators))
        return tuple(diag), kernel

    def abelianization_invariants(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion coefficients d_1 | d_2 | ... each > 1) of H_1."""
        diag, _ = self._smith
        return len(self.generators) - len(diag), tuple(d for d in diag if d > 1)

    def canonical_weighting(self) -> dict[str, int]:
        """The surjection onto Z when H_1 is infinite cyclic, else NotKnotLike.

        It is the primitive kernel vector of the exponent matrix, unique up to
        sign; the sign is fixed so the first generator carrying a nonzero
        value maps positively.
        """
        free_rank, torsion = self.abelianization_invariants()
        if free_rank != 1 or torsion:
            raise NotKnotLike(
                f"H_1 has free rank {free_rank} and torsion {list(torsion)}; need exactly Z"
            )
        values = self._smith[1]
        sign = -1 if next(v for v in values if v) < 0 else 1
        return {g: sign * v for g, v in zip(self.generators, values)}

    def tietze_substitute(self, gen: str, replacement: FreeWord) -> "Presentation":
        """Eliminate gen by rewriting it as replacement everywhere.

        Generators appearing in replacement but not yet declared are appended;
        this is how a substitution like v := u a introduces the new symbol a.
        """
        if gen not in self.generators:
            raise UnknownGenerator(f"'{gen}' is not a generator")
        if gen in replacement.generators_used():
            raise SelfReference(f"replacement for '{gen}' mentions '{gen}'")
        gens = [g for g in self.generators if g != gen]
        for g, _ in replacement.syllables:
            if g not in gens:
                gens.append(g)
        rels = tuple(r.substitute(gen, replacement).cyclic_reduce() for r in self.relators)
        return Presentation(tuple(gens), rels)

    def to_text(self) -> str:
        rel = ", ".join(str(r) for r in self.relators)
        return f"<{','.join(self.generators)} | {rel}>"

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [[[g, e] for g, e in r.syllables] for r in self.relators],
        }

    def __str__(self) -> str:
        return self.to_text()


def _parse_word(sc: _Scanner, names: set[str], lengths: list[int]) -> FreeWord:
    # The longest declared generator at each point, so that both "t a t^-1"
    # and "tat^-1" read as t a t^-1 when the generators are a, t: one probe
    # of the name set per distinct name length, longest first.
    text, peek = sc.text, sc.peek
    syllables: list[Syllable] = []
    while (ch := peek()) not in ("", "|", ">", ",", "="):
        pos = sc.pos
        if ch == "1" and not syllables and not text[pos + 1 : pos + 2].isalnum():
            sc.pos += 1
            break
        for n in lengths:
            if (gen := text[pos : pos + n]) in names:
                break
        else:
            m = _NAME_RE.match(text, pos)
            sc.fail(f"unknown generator '{m.group() if m else ch}'", UnknownGenerator)
        sc.pos = pos + len(gen)
        exp = 1
        if peek() == "^":
            sc.pos += 1
            paren = peek() == "("
            if paren:
                sc.pos += 1
            exp = int(sc.match(_INT_RE, "expected an integer exponent after '^'"))
            if paren:
                sc.expect(")")
        syllables.append((gen, exp))
    return FreeWord.make(syllables)


def parse_presentation(text: str) -> Presentation:
    """Parse '<a,t | t a t^-1 = a^2>' style text into a Presentation.

    A relation lhs = rhs is stored as the cyclically reduced relator lhs*rhs^-1;
    a bare word is its own relator; the word '1' is the identity.
    """
    sc = _Scanner(text)
    sc.expect("<")
    generators = [sc.match(_NAME_RE, "expected a generator name")]
    while sc.peek() == ",":
        sc.pos += 1
        generators.append(sc.match(_NAME_RE, "expected a generator name"))
    names: set[str] = set()
    for g in generators:
        if g in names:
            sc.fail(f"duplicate generator '{g}'", DuplicateGenerator)
        names.add(g)
    lengths = sorted({len(g) for g in names}, reverse=True)

    relators: list[FreeWord] = []
    if sc.peek() == "|":
        sc.pos += 1
        # "<a |>" has no relators, but "<a | a,>" ends with an empty one.
        while sc.peek() != ">" or relators:
            word = _parse_word(sc, names, lengths)
            if sc.peek() == "=":
                sc.pos += 1
                word = word * _parse_word(sc, names, lengths).inverse()
            relators.append(word.cyclic_reduce())
            if sc.peek() != ",":
                break
            sc.pos += 1
    sc.expect(">")
    if sc.peek():
        sc.fail("trailing text after '>'")
    return Presentation(tuple(generators), tuple(relators))


def bareiss_echelon(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) echelon form of integer rows, in place.

    Returns (pivots, sign): the pivot column of each of the first r = rank
    rows, in order, and (-1)^(row swaps).  Each row keeps its own divisor s,
    the pivot it was last reduced at (1 at first).  At pivot p, a row below
    with entry c != 0 in the pivot column becomes (p * row - c * top) / s,
    top the pivot row, and its s becomes p; a row with c = 0 is not touched.
    This is exact, and checked so: with m the last pivot, the row's value in
    Bareiss's echelon (1968) is row * m / s, as the factors p_k / p_(k-1) of
    the steps it skipped telescope.  A pivot row whose s is not m is first
    brought up to date as top * m // s.  Each pivot, and each entry right of
    it in its row, is then a minor of the input, so none grows past
    Hadamard's bound, and the last pivot is a nonzero r x r minor: for a
    square matrix of full rank, sign times it is the determinant.  Only the
    columns right of the pivot are updated, so a pivot costs only the rows
    that meet its column, whatever its value.

    >>> rows = [[0, 2, 1], [1, 1, 1], [2, 1, 3]]
    >>> bareiss_echelon(rows, 3)
    ([0, 1, 2], -1)
    >>> rows[-1][-1]  # the determinant is -1 * 3
    3
    """
    nrows = len(rows)
    pivots: list[int] = []
    div = [1] * nrows  # each row's own divisor, swapped with it
    sign, m = 1, 1  # m is the last pivot
    for j in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, nrows) if rows[i][j]), None)
        if i is None:
            continue
        if i != r:
            rows[r], rows[i], div[r], div[i] = rows[i], rows[r], div[i], div[r]
            sign = -sign
        top = rows[r]
        if div[r] != m:
            top[j:] = [v * m // div[r] for v in top[j:]]
        p = top[j]
        for i in range(r + 1, nrows):
            if c := rows[i][j]:
                row, s = rows[i], div[i]
                for k in range(j + 1, ncols):
                    q, rem = divmod(p * row[k] - c * top[k], s)
                    if rem:
                        raise ArithmeticError("Bareiss division must be exact")
                    row[k] = q
                div[i] = p
        m = p
        pivots.append(j)
    return pivots, sign


def echelon_kernel(e: list[list[int]], ncols: int, pivots: list[int], free: int) -> list[int]:
    """The kernel vector of `bareiss_echelon`'s rows e with x_free = the last pivot.

    Every other non-pivot entry is 0, and back substitution gives the pivot
    entries; by Cramer's rule they are integers, so each division is exact.
    """
    x = [0] * ncols
    x[free] = e[len(pivots) - 1][pivots[-1]] if pivots else 1
    for k in reversed(range(len(pivots))):
        j = pivots[k]
        x[j] = -sum(c * v for c, v in zip(e[k][j + 1 :], x[j + 1 :])) // e[k][j]
    return x


def smith_diagonal(
    matrix: list[list[int]], ncols: int
) -> tuple[list[int], tuple[int, ...] | None]:
    """Invariant factors of an integer matrix, plus its kernel vector at corank one.

    Returns (diag, kernel): diag holds the r = rank nonzero invariant factors,
    d_1 | d_2 | ... | d_r, and kernel is the primitive generator of the integer
    kernel of x -> A x (up to sign) when r = ncols - 1, else None.

    `bareiss_echelon` gives r and a nonzero r x r minor m, its last pivot.
    As d_1 ... d_r divides m, the first r places of `smith_mod` at m are
    the invariant factors.  The kernel vector is `echelon_kernel` of the
    same echelon, divided by its content.
    """
    assert all(len(row) == ncols for row in matrix)
    e = [row[:] for row in matrix]
    pivots, _ = bareiss_echelon(e, ncols)
    r = len(pivots)
    kernel = None
    if r == ncols - 1:
        x = echelon_kernel(e, ncols, pivots, next(j for j in range(ncols) if j not in pivots))
        content = math.gcd(*x)
        kernel = tuple(v // content for v in x)

    m = abs(e[r - 1][pivots[-1]]) if pivots else 1
    if m == 1:
        return [1] * r, kernel
    return smith_mod(matrix, ncols, m)[:r], kernel


def smith_mod(matrix: list[list[int]], ncols: int, m: int) -> list[int]:
    """The Smith form of an integer matrix over Z/m.

    Returns min(rows, ncols) places d_1 | d_2 | ..., each the gcd of an
    invariant factor with m, and m for a zero one.  The reduction runs on
    residues in [0, m): Euclid on rows clears a pivot's column, the pivot
    row is reduced modulo the pivot, a diagonal place reads as
    gcd(pivot, m), and a gcd/lcm pass over pairs sorts the places into the
    divisibility chain.

    >>> smith_mod([[2, 0], [0, 3]], 2, 12)
    [1, 6]
    >>> smith_mod([[4, 6]], 2, 8)
    [2]
    """
    nrows = len(matrix)
    a = [[x % m for x in row] for row in matrix]
    diag = []
    for t in range(min(nrows, ncols)):
        rest = [(a[i][j], i, j) for i in range(t, nrows) for j in range(t, ncols) if a[i][j]]
        if not rest:
            diag += [m] * (min(nrows, ncols) - t)
            break
        _, i, j = min(rest)
        a[t], a[i] = a[i], a[t]
        while j is not None:
            for row in a:
                row[t], row[j] = row[j], row[t]
            for i in range(t + 1, nrows):  # Euclid on rows t and i clears a[i][t]
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [(x - q * y) % m for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
            # Column t is clear below the pivot, so column operations change row t alone.
            a[t][t + 1 :] = [x % a[t][t] for x in a[t][t + 1 :]]
            nonzero = [j for j in range(t + 1, ncols) if a[t][j]]
            j = min(nonzero, key=a[t].__getitem__, default=None)
        diag.append(math.gcd(a[t][t], m))
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def validate_weighting(p: Presentation, chi: dict[str, int]) -> None:
    """Check chi kills every relator and hits 1 (i.e. is onto Z)."""
    missing = [g for g in p.generators if g not in chi]
    if missing:
        raise ValueError(f"weighting missing generators {missing}")
    for r in p.relators:
        s = sum(e * chi[g] for g, e in r.syllables)
        if s != 0:
            raise ValueError(f"weighting does not vanish on relator {r}")
    nz = [abs(chi[g]) for g in p.generators if chi[g] != 0]
    if not nz or math.gcd(*nz) != 1:
        raise ValueError("weighting is not onto Z")
