"""The result and input records: what their callers rely on.

Each record is a plain class with ``__slots__`` and an explicit ``__init__``.
Callers construct them positionally and by keyword, read their attributes,
compare and hash the value types (words, presentations, auxiliary
polynomials, sequence windows), and the command line turns a
``CoverReport`` into JSON by walking its slots.
"""

import pytest

from corpus import DYADIC
from cycover.alexander import AlexanderResult
from cycover.cli import _to_json
from cycover.criteria import (
    CoverReport,
    KervaireReport,
    PrimeClassification,
    PrimeRecord,
    SurjectionVerdict,
    analyze,
)
from cycover.laurent import Factorization, LaurentPoly
from cycover.recurrence import AuxPolynomial, PropagationResult, SequenceWindow
from cycover.repshift import FiniteGroup, RepCensus, SftGraph
from cycover.rscover import RecurrenceRow, ShiftPresentation
from cycover.twobridge import TwoBridgeParams
from cycover.words import FreeWord, Presentation, parse_presentation

T_MINUS_2 = LaurentPoly({1: 1, 0: -2})
WORD = FreeWord((("t", 1), ("a", 1), ("t", -1), ("a", -2)))
CLASS3 = PrimeClassification("finite", 1)
VERDICT = SurjectionVerdict(False, None)
KERVAIRE = KervaireReport(True, True, "t", True)
RECORD3 = PrimeRecord(3, 1, 3, 1, CLASS3)

# class, attribute names in constructor order, positional arguments
RECORDS = [
    (FreeWord, ("syllables",), ((("t", 2),),)),
    (Presentation, ("generators", "relators"), (("t", "a"), (WORD,))),
    (TwoBridgeParams, ("p", "q"), (5, 3)),
    (AlexanderResult, ("delta", "deleted_column"), (T_MINUS_2, "t")),
    (PrimeClassification, ("kind", "count"), ("finite", 4)),
    (PrimeRecord, ("p", "d", "r", "n", "classification"), (3, 1, 3, 1, CLASS3)),
    (SurjectionVerdict, ("answer", "witness", "free_rank"), (True, T_MINUS_2, False)),
    (
        KervaireReport,
        ("h1_is_Z", "deficiency_one", "weight_one_witness", "h2_zero_inferred"),
        (True, False, None, False),
    ),
    (
        CoverReport,
        ("delta", "beta1_Q", "primes", "index2", "surjects", "large_flag", "kernel_fg", "kervaire"),
        (T_MINUS_2, 1, (RECORD3,), False, VERDICT, False, "NotFG", KERVAIRE),
    ),
    (Factorization, ("sign", "unit_exp", "content", "factors"), (-1, 2, 3, ((T_MINUS_2, 1),))),
    (AuxPolynomial, ("ascending",), ((-1, -1, 1),)),
    (SequenceWindow, ("base", "values"), (-2, (3, 1, 4))),
    (PropagationResult, ("values", "integral", "first_nonintegral"), ((1, 2), (True, True), None)),
    (ShiftPresentation, ("symbols", "templates"), (("a",), ((("a", 0, 2),),))),
    (RecurrenceRow, ("symbol", "coefficients"), ("a", ((0, -2), (1, 1)))),
    (
        SftGraph,
        ("window", "group", "digits"),
        (1, FiniteGroup.cyclic(2), [[0], [1]]),
    ),
    (
        RepCensus,
        ("classification", "count", "entropy", "state_count", "essential_count"),
        ("Finite", 2, 0.0, 2, 2),
    ),
]


@pytest.mark.parametrize("cls, names, args", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_positional_and_keyword_construction(cls, names, args):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    for obj in (by_position, by_keyword):
        assert [getattr(obj, name) for name in names] == list(args)
    # slots, no per-instance dict but for cached values: Presentation's Smith
    # form and SftGraph's views
    assert hasattr(by_position, "__dict__") == (cls in (Presentation, SftGraph))


def test_defaults():
    assert FreeWord().syllables == ()
    assert PrimeClassification("none").count is None
    assert SurjectionVerdict(True, None).free_rank is False


def test_sft_graph_derives_essential_states():
    # state 0 loops, state 1 has no predecessor and goes to 0
    graph = SftGraph(1, FiniteGroup.cyclic(2), [[0], [0]])
    assert graph.essential == bytearray([1, 0])


def test_words_and_presentations_compare_and_hash_by_value():
    same = FreeWord.make([("t", 1), ("a", 1), ("a", 0), ("t", -1), ("a", -2)])
    assert same == WORD and hash(same) == hash(WORD)
    assert WORD != FreeWord((("t", 1),))
    assert WORD != WORD.syllables
    p = parse_presentation("<t, a | t a t^-1 a^-2>")
    q = Presentation(("t", "a"), (WORD,))
    assert p == q and hash(p) == hash(q) and len({p, q, DYADIC}) == 1
    assert p != Presentation(("a", "t"), (WORD,))
    assert p != Presentation(("t", "a"), ())


def test_windows_compare_by_value():
    assert SequenceWindow(0, (1, 2)) == SequenceWindow(0, (1, 2))
    assert SequenceWindow(0, (1, 2)) != SequenceWindow(1, (1, 2))
    assert SequenceWindow(0, (1, 2)) != SequenceWindow(0, (1, 3))


def test_cover_report_json_keys_are_its_fields():
    rep = _to_json(analyze(DYADIC, {"t": 1, "a": 0}))
    assert set(rep) == {
        "delta", "beta1_Q", "primes", "index2", "surjects", "large_flag", "kernel_fg", "kervaire",
    }
    assert set(rep["primes"][0]) == {"p", "d", "r", "n", "classification"}
    assert set(rep["primes"][0]["classification"]) == {"kind", "count"}
    assert set(rep["surjects"]) == {"answer", "witness", "free_rank"}
    assert set(rep["kervaire"]) == {
        "h1_is_Z", "deficiency_one", "weight_one_witness", "h2_zero_inferred",
    }
