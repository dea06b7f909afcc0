"""Free-group words, presentations, and integer weightings.

Words are kept in syllable (run-length) form: a tuple of (generator, exponent)
pairs with nonzero exponents and no two adjacent pairs sharing a generator.
All arithmetic is exact; generators are plain strings.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Hashable, Iterable

Syllable = tuple[str, int]


class ParseError(ValueError):
    """Raised on malformed presentation text.  Carries line/column."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{message} (line {line}, col {col})")
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

    @classmethod
    def identity(cls) -> "FreeWord":
        return cls(())

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(_reduce(self.syllables + other.syllables))

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, n: int) -> "FreeWord":
        if n < 0:
            return self.inverse() ** (-n)
        out = FreeWord.identity()
        for _ in range(n):
            out = out * self
        return out

    def exponent_sum(self, gen: str) -> int:
        return sum(e for g, e in self.syllables if g == gen)

    def generators_used(self) -> set[str]:
        return {g for g, _ in self.syllables}

    def cyclic_reduce(self) -> "FreeWord":
        """Strip matching conjugating ends until the word is cyclically reduced."""
        syl = list(self.syllables)
        while len(syl) > 1 and syl[0][0] == syl[-1][0]:
            g = syl[0][0]
            e0, e1 = syl[0][1], syl[-1][1]
            if e0 + e1 == 0:
                syl = syl[1:-1]
            elif (e0 > 0) == (e1 > 0):
                break
            else:
                # Partial cancellation: fold the smaller end into the larger.
                keep = e0 + e1
                syl = syl[1:-1]
                merged = _reduce([(g, keep)] + syl) if abs(e0) > abs(e1) else _reduce(syl + [(g, keep)])
                syl = list(merged)
                break
        return FreeWord(_reduce(syl))

    def substitute(self, gen: str, replacement: "FreeWord") -> "FreeWord":
        """Replace every occurrence of gen (any exponent) by replacement."""
        out = FreeWord.identity()
        for g, e in self.syllables:
            out = out * (replacement ** e if g == gen else FreeWord(((g, e),)))
        return out

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
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def loc(self) -> tuple[int, int]:
        consumed = self.text[: self.pos]
        line = consumed.count("\n") + 1
        col = self.pos - (consumed.rfind("\n") + 1) + 1
        return line, col

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            line, col = self.loc()
            got = self.peek() or "end of input"
            raise ParseError(f"expected '{ch}', got '{got}'", line, col)
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            line, col = self.loc()
            raise ParseError("expected a generator name", line, col)
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
            if r.syllables != r.cyclic_reduce().syllables:
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
        return [[r.exponent_sum(g) for g in self.generators] for r in self.relators]

    @cached_property
    def _smith(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """`smith_diagonal` of the exponent matrix, computed once per presentation."""
        diag, colops = smith_diagonal(self.exponent_matrix(), len(self.generators))
        return tuple(diag), tuple(map(tuple, colops))

    def abelianization_invariants(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion coefficients d_1 | d_2 | ... each > 1) of H_1."""
        diag, _ = self._smith
        rank = sum(1 for d in diag if d != 0)
        torsion = tuple(d for d in diag if d > 1)
        return len(self.generators) - rank, torsion

    def canonical_weighting(self) -> dict[str, int]:
        """The surjection onto Z when H_1 is infinite cyclic, else NotKnotLike.

        Unique up to sign; the sign is fixed so the first generator carrying a
        nonzero value maps positively.
        """
        n = len(self.generators)
        diag, colops = self._smith
        free_cols = [j for j in range(n) if j >= len(diag) or diag[j] == 0]
        torsion = [d for d in diag if d > 1]
        if len(free_cols) != 1 or torsion:
            raise NotKnotLike(
                f"H_1 has free rank {len(free_cols)} and torsion {torsion}; need exactly Z"
            )
        j = free_cols[0]
        values = [colops[i][j] for i in range(n)]
        for v in values:
            if v != 0:
                if v < 0:
                    values = [-x for x in values]
                break
        return {g: values[i] for i, g in enumerate(self.generators)}

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


def _parse_word(sc: _Scanner, generators: tuple[str, ...]) -> FreeWord:
    # Longest-prefix match against the declared generator set, so that both
    # "t a t^-1" and "tat^-1" read as t a t^-1 when the generators are a, t.
    by_len = sorted(generators, key=len, reverse=True)
    syllables: list[Syllable] = []
    first = True
    while True:
        sc.skip_ws()
        ch = sc.text[sc.pos] if sc.pos < len(sc.text) else ""
        if ch in ("", "|", ">", ",", "="):
            break
        if first and ch == "1":
            nxt = sc.text[sc.pos + 1 : sc.pos + 2]
            if not nxt or not (nxt.isalnum()):
                sc.pos += 1
                sc.skip_ws()
                break
        first = False
        matched = None
        for g in by_len:
            if sc.text.startswith(g, sc.pos):
                matched = g
                break
        if matched is None:
            line, col = sc.loc()
            m = _NAME_RE.match(sc.text, sc.pos)
            bad = m.group() if m else ch
            raise UnknownGenerator(f"unknown generator '{bad}'", line, col)
        sc.pos += len(matched)
        exp = 1
        if sc.peek() == "^":
            sc.pos += 1
            sc.skip_ws()
            paren = sc.peek() == "("
            if paren:
                sc.pos += 1
                sc.skip_ws()
            m = _INT_RE.match(sc.text, sc.pos)
            if not m:
                line, col = sc.loc()
                raise ParseError("expected an integer exponent after '^'", line, col)
            sc.pos = m.end()
            exp = int(m.group())
            if paren:
                sc.expect(")")
        syllables.append((matched, exp))
    return FreeWord.make(syllables)


def parse_presentation(text: str) -> Presentation:
    """Parse '<a,t | t a t^-1 = a^2>' style text into a Presentation.

    A relation lhs = rhs is stored as the cyclically reduced relator lhs*rhs^-1;
    a bare word is its own relator; the word '1' is the identity.
    """
    sc = _Scanner(text)
    sc.expect("<")
    generators: list[str] = []
    generators.append(sc.name())
    while sc.peek() == ",":
        sc.pos += 1
        generators.append(sc.name())
    seen = set()
    for g in generators:
        if g in seen:
            raise DuplicateGenerator(f"duplicate generator '{g}'", *sc.loc())
        seen.add(g)
    gens = tuple(generators)

    relators: list[FreeWord] = []
    if sc.peek() == "|":
        sc.pos += 1
        if sc.peek() != ">":
            while True:
                lhs = _parse_word(sc, gens)
                if sc.peek() == "=":
                    sc.pos += 1
                    rhs = _parse_word(sc, gens)
                    relators.append((lhs * rhs.inverse()).cyclic_reduce())
                else:
                    relators.append(lhs.cyclic_reduce())
                if sc.peek() == ",":
                    sc.pos += 1
                    continue
                break
    sc.expect(">")
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError("trailing text after '>'", *sc.loc())
    return Presentation(gens, tuple(relators))


def _nearest_quotient(x: int, y: int) -> int:
    """q with |x - q*y| <= |y| / 2."""
    return (2 * x + y) // (2 * y)


def smith_diagonal(matrix: list[list[int]], ncols: int) -> tuple[list[int], list[list[int]]]:
    """Smith normal form diagonal of an integer matrix, plus the column transform.

    Returns (diag, V) where diag holds the nonnegative invariant factors
    (d_i | d_{i+1}) and V is the unimodular ncols x ncols matrix of accumulated
    column operations, so that (row ops applied to A) * V is diagonal.  Exact
    integer arithmetic; pivots chosen by minimal absolute value, and
    eliminations use nearest-integer quotients so that every remainder is at
    most half the pivot and entries stay small.
    """
    a = [row[:] for row in matrix]
    nrows = len(a)
    for row in a:
        assert len(row) == ncols
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def diagonalize():
        t = 0
        while t < min(nrows, ncols):
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            a[t], a[best[0]] = a[best[0]], a[t]
            if best[1] != t:
                swap_cols(t, best[1])
            while True:
                dirty = False
                for i in range(t + 1, nrows):
                    if a[i][t] != 0:
                        q = _nearest_quotient(a[i][t], a[t][t])
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                        if a[i][t] != 0:  # leftover remainder becomes the new pivot
                            a[t], a[i] = a[i], a[t]
                            dirty = True
                for j in range(t + 1, ncols):
                    if a[t][j] != 0:
                        q = _nearest_quotient(a[t][j], a[t][t])
                        add_col(t, j, -q)
                        if a[t][j] != 0:
                            swap_cols(t, j)
                            dirty = True
                if not dirty:
                    break
            if a[t][t] < 0:
                for row in a:
                    row[t] = -row[t]
                for row in v:
                    row[t] = -row[t]
            t += 1
        return t

    # Diagonalize, then repair the divisibility chain by folding an offending
    # column into its predecessor and re-running; terminates because the first
    # broken entry strictly shrinks to a gcd each round.
    while True:
        rank = diagonalize()
        broken = None
        for i in range(rank - 1):
            if a[i][i] != 0 and a[i + 1][i + 1] % a[i][i] != 0:
                broken = i
                break
        if broken is None:
            break
        add_col(broken + 1, broken, 1)
    diag = [a[i][i] for i in range(rank)]
    return diag, v


def validate_weighting(p: Presentation, chi: dict[str, int]) -> None:
    """Check chi kills every relator and hits 1 (i.e. is onto Z)."""
    import math

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
