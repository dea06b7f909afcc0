"""Decision procedures on the weighting kernel via the Alexander polynomial.

Everything here is a function of the canonical polynomial (or of the
presentation, for the combinatorial tests): counts of prime-index
subgroups of the kernel, existence of index-2 subgroups, surjections
onto Z, a largeness flag, a finite-generation test for the kernel of
a 2-generator 1-relator group, and the knot-group condition checks.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from .alexander import DEFAULT_PRIMES, alexander_polynomial, mod_p_table
from .laurent import INFINITE, LaurentPoly, _Infinite, factor_over_Z
from .words import Presentation

FG = "FG"
NOT_FG = "NotFG"
ONE_SIDED = "OneSided"
INAPPLICABLE = "Inapplicable"


class NotOneRelator(ValueError):
    pass


class PrimeClassification:
    __slots__ = ("kind", "count")

    def __init__(self, kind: str, count: Optional[int] = None):
        self.kind = kind  # "none" | "finite" | "infinite"
        self.count = count  # n_p when finite


class PrimeRecord:
    __slots__ = ("p", "d", "r", "n", "classification")

    def __init__(
        self,
        p: int,
        d: Union[int, _Infinite],
        r: Optional[int],
        n: Optional[int],
        classification: PrimeClassification,
    ):
        self.p = p
        self.d = d
        self.r = r  # None when infinite
        self.n = n
        self.classification = classification

    @classmethod
    def from_span(cls, p: int, d: Union[int, _Infinite]) -> "PrimeRecord":
        """Everything about index-p covers, read off d = d(p).

        r_p = p^d(p) counts maps to Z/p and n_p = (r_p - 1)/(p - 1) their
        index-p kernels.  The class is none when d = 0 (a unit mod p),
        infinite when the reduction is zero, else finite(n_p).
        """
        if d is INFINITE:
            return cls(p, d, None, None, PrimeClassification("infinite"))
        r = p**d
        n = (r - 1) // (p - 1)
        classification = PrimeClassification("finite", n) if d else PrimeClassification("none")
        return cls(p, d, r, n, classification)


def count_prime_index(
    delta: LaurentPoly, p: int
) -> Union[tuple[int, int], _Infinite]:
    """(r_p, n_p) for delta at the prime p; Infinite when delta vanishes mod p."""
    rec = PrimeRecord.from_span(p, delta.reduce_mod(p).degree_span())
    return INFINITE if rec.r is None else (rec.r, rec.n)


def classify_prime(delta: LaurentPoly, p: int) -> PrimeClassification:
    """None when the mod-p reduction is a nonzero unit, Infinite when zero."""
    return PrimeRecord.from_span(p, delta.reduce_mod(p).degree_span()).classification


class SurjectionVerdict:
    __slots__ = ("answer", "witness", "free_rank")

    def __init__(self, answer: bool, witness: Optional[LaurentPoly], free_rank: bool = False):
        self.answer = answer
        self.witness = witness
        self.free_rank = free_rank  # delta = 0: kernel has a rationally free summand


def surjects_to_Z(delta: LaurentPoly) -> SurjectionVerdict:
    """The kernel surjects onto Z iff delta has a monic-at-both-ends factor.

    delta = 0 reports True with the free-rank marker and no witness.
    """
    if not delta:
        return SurjectionVerdict(answer=True, witness=None, free_rank=True)
    witness = factor_over_Z(delta).unit_ends_factor()
    return SurjectionVerdict(answer=witness is not None, witness=witness)


def brown_finite_generation(p: Presentation, chi: Mapping[str, int]) -> str:
    """Finite-generation test for the kernel, 2-generator 1-relator case.

    Walk the relator as a closed path of weighted steps and record the
    height before each letter.  The kernel is finitely generated iff the
    maximum height occurs at exactly one cyclic vertex and likewise the
    minimum; exactly one of the two gives OneSided.  Flat runs at an
    extreme count each vertex separately.

    The walk goes syllable by syllable, so its cost does not depend on the
    exponents: a weight-0 syllable g^e puts |e| vertices at one height, and
    a syllable of nonzero weight is strictly monotone, so only its first
    and last vertices can be extremes.
    """
    if len(p.relators) != 1:
        raise NotOneRelator(f"need exactly 1 relator, have {len(p.relators)}")
    if len(p.generators) != 2:
        return INAPPLICABLE
    relator = p.relators[0]
    if not relator.syllables:
        return INAPPLICABLE
    # vertices per height, leaving out the inside of sloped syllables
    count: dict[int, int] = {}
    h = 0
    for g, e in relator.syllables:
        step = chi[g] if e > 0 else -chi[g]
        if step == 0:
            count[h] = count.get(h, 0) + abs(e)
        else:
            for x in {h, h + (abs(e) - 1) * step}:
                count[x] = count.get(x, 0) + 1
        h += e * chi[g]
    top_unique = count[max(count)] == 1
    bot_unique = count[min(count)] == 1
    if top_unique and bot_unique:
        return FG
    if top_unique or bot_unique:
        return ONE_SIDED
    return NOT_FG


class KervaireReport:
    __slots__ = ("h1_is_Z", "deficiency_one", "weight_one_witness", "h2_zero_inferred")

    def __init__(
        self,
        h1_is_Z: bool,
        deficiency_one: bool,
        weight_one_witness: Optional[str],
        h2_zero_inferred: bool,
    ):
        self.h1_is_Z = h1_is_Z
        self.deficiency_one = deficiency_one
        self.weight_one_witness = weight_one_witness  # generator name, None = unknown
        self.h2_zero_inferred = h2_zero_inferred


def kervaire_check(p: Presentation) -> KervaireReport:
    """Necessary-condition checks for being a higher-dimensional knot group.

    The weight-1 witness uses the 2-generator sufficient test: killing the
    witness must leave some relator with exponent sum +-1 in the survivor.
    Other shapes report no witness rather than a negative.
    """
    free_rank, torsion = p.abelianization_invariants()
    h1 = free_rank == 1 and not torsion
    def1 = p.deficiency() == 1
    witness = None
    if len(p.generators) == 2:
        for g in p.generators:
            other = next(x for x in p.generators if x != g)
            if any(abs(r.exponent_sum(other)) == 1 for r in p.relators):
                witness = g
                break
    return KervaireReport(
        h1_is_Z=h1,
        deficiency_one=def1,
        weight_one_witness=witness,
        h2_zero_inferred=h1 and def1,
    )


class CoverReport:
    __slots__ = (
        "delta", "beta1_Q", "primes", "index2", "surjects", "large_flag", "kernel_fg", "kervaire"
    )

    def __init__(
        self,
        delta: LaurentPoly,
        beta1_Q: Union[int, _Infinite],
        primes: tuple[PrimeRecord, ...],
        index2: bool,
        surjects: SurjectionVerdict,
        large_flag: bool,
        kernel_fg: str,
        kervaire: KervaireReport,
    ):
        self.delta = delta
        self.beta1_Q = beta1_Q
        self.primes = primes
        self.index2 = index2
        self.surjects = surjects
        self.large_flag = large_flag
        self.kernel_fg = kernel_fg
        self.kervaire = kervaire


def analyze(
    p: Presentation,
    chi: Mapping[str, int],
    primes=DEFAULT_PRIMES,
) -> CoverReport:
    """Full report for a presentation and a validated weighting."""
    delta = alexander_polynomial(p, chi).delta
    table = mod_p_table(delta, primes)
    records = tuple(PrimeRecord.from_span(q, table[q][1]) for q in primes)
    rec2 = next((rec for rec in records if rec.p == 2), None)
    if rec2 is None:
        rec2 = PrimeRecord.from_span(2, delta.reduce_mod(2).degree_span())
    index2 = rec2.n is None or rec2.n > 0  # infinitely many index-2 when d(2) infinite
    try:
        fg = brown_finite_generation(p, chi)
    except NotOneRelator:
        fg = INAPPLICABLE
    return CoverReport(
        delta=delta,
        beta1_Q=delta.degree_span(),
        primes=records,
        index2=index2,
        surjects=surjects_to_Z(delta),
        large_flag=not delta or any(rec.d is INFINITE for rec in records),
        kernel_fg=fg,
        kervaire=kervaire_check(p),
    )
