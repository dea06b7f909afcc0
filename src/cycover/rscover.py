"""Rewriting the weighting kernel over the transversal of powers of t.

For a weighting sending one generator t to 1 and every other generator to 0,
the kernel is generated by the conjugates a_i = t^i a t^-i.  Each relator
rewrites to a single template word in the indexed alphabet; the full relator
set of the kernel is the family of all integer shifts of the templates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .words import Presentation, _reduce, smith_mod

if TYPE_CHECKING:
    from .laurent import LaurentPoly

# (symbol, offset, exponent)
TemplateSyllable = tuple[str, int, int]


class UnsupportedWeighting(ValueError):
    """Weighting is not of the form (1, 0, ..., 0) after reordering."""


def _reduce_indexed(syllables: Iterable[TemplateSyllable]) -> tuple[TemplateSyllable, ...]:
    # Free reduction in the indexed alphabet, whose letters are (symbol, offset).
    reduced = _reduce(((sym, off), exp) for sym, off, exp in syllables)
    return tuple((sym, off, exp) for (sym, off), exp in reduced)


def template_to_text(template: tuple[TemplateSyllable, ...]) -> str:
    """Render e.g. a[i+1]^-2 a[i]^-1 a[i+1]^-1 a[i] ..."""
    if not template:
        return "1"
    parts = []
    for sym, off, exp in template:
        if off == 0:
            idx = "i"
        elif off > 0:
            idx = f"i+{off}"
        else:
            idx = f"i-{-off}"
        head = f"{sym}[{idx}]"
        parts.append(head if exp == 1 else f"{head}^{exp}")
    return " ".join(parts)


class ShiftPresentation:
    """Kernel presentation with Z-indexed copies of each symbol.

    Templates are freely reduced in the indexed alphabet and each is
    normalized so its minimum offset is 0; shifting a template leaves
    everything downstream unchanged.
    """

    __slots__ = ("symbols", "templates")

    def __init__(
        self, symbols: tuple[str, ...], templates: tuple[tuple[TemplateSyllable, ...], ...]
    ):
        for tpl in templates:
            if tuple(tpl) != _reduce_indexed(tpl):
                raise ValueError("template not freely reduced")
            if tpl and min(off for _, off, _ in tpl) != 0:
                raise ValueError("template offsets not normalized to minimum 0")
        self.symbols = symbols
        self.templates = templates

    @property
    def width(self) -> int:
        offs = [off for tpl in self.templates for _, off, _ in tpl]
        if not offs:
            return 0
        return max(offs) - min(offs)

    def template_texts(self) -> list[str]:
        return [template_to_text(t) for t in self.templates]


def reidemeister_schreier(p: Presentation, chi: Mapping[str, int]) -> ShiftPresentation:
    """Rewrite each relator as a template by tracking the t-height.

    Scanning a relator left to right, a syllable of the weight-1 generator
    only moves the height; a syllable x^e of a weight-0 generator emits
    the indexed letter (x, current height)^e.
    """
    stable = [g for g in p.generators if chi.get(g) == 1]
    others = [g for g in p.generators if g not in stable]
    if len(stable) != 1 or any(chi.get(g) != 0 for g in others):
        raise UnsupportedWeighting(
            "need exactly one generator of weight 1 and the rest of weight 0"
        )
    t = stable[0]
    for r in p.relators:
        if sum(e * chi[g] for g, e in r.syllables) != 0:
            raise UnsupportedWeighting(f"relator {r} has nonzero total weight")

    templates = []
    for r in p.relators:
        h = 0
        raw: list[TemplateSyllable] = []
        for g, e in r.syllables:
            if g == t:
                h += e
            else:
                raw.append((g, h, e))
        reduced = _reduce_indexed(raw)
        if reduced:
            base = min(off for _, off, _ in reduced)
            reduced = tuple((s, off - base, e) for s, off, e in reduced)
        templates.append(reduced)
    return ShiftPresentation(symbols=tuple(others), templates=tuple(templates))


class RecurrenceRow:
    """Exponent sums of one symbol per offset: the abelianized template."""

    __slots__ = ("symbol", "coefficients")

    def __init__(self, symbol: str, coefficients: tuple[tuple[int, int], ...]):
        self.symbol = symbol
        self.coefficients = coefficients  # sorted (offset, coeff) pairs

    @classmethod
    def make(cls, symbol: str, coeffs: Mapping[int, int]) -> "RecurrenceRow":
        items = tuple(sorted((o, c) for o, c in coeffs.items() if c != 0))
        return cls(symbol=symbol, coefficients=items)

    def polynomial(self) -> LaurentPoly:
        from .laurent import LaurentPoly

        return LaurentPoly(dict(self.coefficients))


def abelianized_recurrence(sp: ShiftPresentation) -> list[RecurrenceRow]:
    """One row per (template, symbol), template-major order.

    In the single-symbol case this is one row per template; its polynomial
    generates the same ideal as the Alexander polynomial of the input.
    """
    rows = []
    for tpl in sp.templates:
        for sym in sp.symbols:
            coeffs: dict[int, int] = {}
            for s, off, e in tpl:
                if s == sym:
                    coeffs[off] = coeffs.get(off, 0) + e
            rows.append(RecurrenceRow.make(sym, coeffs))
    return rows


def essential_window_counts(
    templates: Sequence[Sequence[tuple[int, int]]], w: int, powers: Sequence[Sequence[int]]
) -> tuple[int, int]:
    """(e, d) for the shift the abelianized templates (rows of
    `abelianized_recurrence`) cut out over an abelian group F with the
    power table `powers`: e windows of w >= 1 digits lie on a biinfinite
    point, and each has d successors that do.

    The windows at [i, i + w) that extend i steps both ways are the image
    in F^w of ker A_N, A_N one row per template per shift m < N - w on
    N = w + 2i digits: |ker A_N| / |ker A'_N| of them, A'_N being A_N less
    those w columns.  A row at shift m reads the digits m .. m + w only, so
    A'_N is two blocks, the rows m < i on the first i digits and the rest
    on the last i.  As x^|F| = 1 in F, |ker A| is |F|^(columns - places)
    times #{x : x^d = 1} per place d of a diagonal form of A over Z/|F|
    (`smith_mod`), all of F for a zero place.  The count
    falls as i rises, one trim round a step, and where it holds it is e;
    the windows form subgroups (Kitchens, *Ergod. Th. Dyn. Sys.* 7, 1987),
    so that takes at most w times the number of prime factors of |F|
    steps.  The windows of w + 1 digits there are the essential edges, d
    per essential window, and A_(N+1) less their columns is the same two
    blocks, so d = |ker A_(N+1)| / |ker A_N|.
    """
    orders = [len(seq) for seq in powers]
    n = len(orders)
    torsion: dict[int, int] = {}

    def kernel(shifts: range, lo: int, hi: int) -> int:
        """|ker A| for the rows at these shifts, on the digits lo .. hi - 1."""
        rows = []
        for m in shifts:
            for tpl in templates:
                row = [0] * (hi - lo)
                for off, c in tpl:
                    if lo <= m + off < hi:
                        row[m + off - lo] = c
                rows.append(row)
        diag = smith_mod(rows, hi - lo, n)
        size = n ** (hi - lo - len(diag))
        for d in diag:
            if d not in torsion:
                torsion[d] = sum(d % k == 0 for k in orders)
            size *= torsion[d]
        return size

    i, e = 0, n**w
    blocks = e  # |ker A_N| at N = w + 2i
    while True:
        wider = kernel(range(2 * i + 2), 0, w + 2 * i + 2)
        ends = kernel(range(i + 1), 0, i + 1) * kernel(range(i + 1, 2 * i + 2), w + i + 1, w + 2 * i + 2)
        if wider // ends == e:
            return e, kernel(range(2 * i + 1), 0, w + 2 * i + 1) // blocks
        i, e, blocks = i + 1, wider // ends, wider
