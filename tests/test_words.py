"""Words, presentations, parsing, and weighting extraction."""

import contextlib
import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cycover import words
from cycover.words import (
    DuplicateGenerator,
    FreeWord,
    NotKnotLike,
    ParseError,
    Presentation,
    SelfReference,
    UnknownGenerator,
    bareiss_echelon,
    echelon_kernel,
    parse_presentation,
    smith_diagonal,
    smith_mod,
    validate_weighting,
)
from corpus import wirtinger_torus_text
from oracles import (
    _frac_nullspace,
    bareiss_echelon_any_sign,
    cyclic_reduce_by_ends,
    equal_up_to_cycling,
    exponent_matrix_by_columns,
    leibniz_det,
    letters,
    parse_by_tokens,
    power_by_multiplication,
    substitute_piece_by_piece,
)


def W(*syllables):
    return FreeWord.make(list(syllables))


@contextlib.contextmanager
def _deadline(seconds, what):
    def stop(signum, frame):
        raise TimeoutError(f"{what} ran for {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- free words ---------------------------------------------------------


def test_free_reduction_merges_and_cancels():
    w = W(("a", 2), ("a", -2), ("b", 1))
    assert w.syllables == (("b", 1),)
    w2 = W(("a", 1), ("b", 1), ("b", -1), ("a", 1))
    assert w2.syllables == (("a", 2),)


def test_identity_and_str():
    assert FreeWord().syllables == ()
    assert str(FreeWord()) == "1"
    assert str(W(("t", 1), ("a", -2))) == "t a^-2"


def test_inverse_and_mul():
    w = W(("t", 1), ("a", -2))
    assert (w * w.inverse()) == FreeWord()
    assert w.inverse().syllables == (("a", 2), ("t", -1))


def test_pow():
    w = W(("a", 1), ("b", 1))
    assert w**2 == W(("a", 1), ("b", 1), ("a", 1), ("b", 1))
    assert w**0 == FreeWord()
    assert w**-1 == w.inverse()


def test_letters_and_sums():
    w = W(("a", 2), ("b", -1))
    assert list(letters(w)) == [("a", 1), ("a", 1), ("b", -1)]
    assert w.exponent_sum("a") == 2
    assert w.exponent_sum("b") == -1
    assert w.generators_used() == {"a", "b"}


def test_cyclic_reduce():
    # a b a^-1 cyclically reduces to b
    w = W(("a", 1), ("b", 1), ("a", -1))
    assert w.cyclic_reduce() == W(("b", 1))
    # partial cancellation at the ends: a^2 b a^-1 -> a b
    w2 = W(("a", 2), ("b", 1), ("a", -1))
    assert w2.cyclic_reduce() == W(("a", 1), ("b", 1))
    # same-sign ends stay put
    w3 = W(("a", 1), ("b", 1), ("a", 1))
    assert w3.cyclic_reduce() == w3


def test_substitute():
    w = W(("v", 1), ("u", 1))
    out = w.substitute("v", W(("u", 1), ("a", 1)))
    assert out == W(("u", 1), ("a", 1), ("u", 1))


def test_equal_up_to_cycling():
    w1 = W(("a", 1), ("b", 1), ("c", 1))
    w2 = W(("c", 1), ("a", 1), ("b", 1))
    assert equal_up_to_cycling(w1, w2)
    assert equal_up_to_cycling(w1, w1.inverse())
    assert not equal_up_to_cycling(w1, W(("a", 1), ("c", 1), ("b", 1)))


ATOMS = st.tuples(st.sampled_from("abc"), st.integers(-3, 3).filter(bool))
WORDS = st.lists(ATOMS, max_size=8).map(lambda s: FreeWord.make(s))


@given(WORDS, WORDS, WORDS)
def test_mul_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(WORDS)
def test_inverse_cancels(w):
    assert (w * w.inverse()) == FreeWord()
    assert (w.inverse() * w) == FreeWord()


@given(WORDS)
def test_cyclic_reduce_shrinks_and_is_idempotent(w):
    c = w.cyclic_reduce()
    assert len(list(letters(c))) <= len(list(letters(w)))
    assert c.cyclic_reduce() == c


@given(WORDS, WORDS)
def test_exponent_sum_additive(u, v):
    for g in "abc":
        assert (u * v).exponent_sum(g) == u.exponent_sum(g) + v.exponent_sum(g)


def _random_word(rng, gens="abc", length=8):
    """A word of fewer than length syllables, exponents -3 to 3, freely reduced."""
    exps = (-3, -2, -1, 1, 2, 3)
    return W(*[(rng.choice(gens), rng.choice(exps)) for _ in range(rng.randrange(length))])


def test_cyclic_reduce_matches_stripping_one_pair_of_ends_at_a_time():
    rng = random.Random(20)
    for _ in range(3000):
        w, u = _random_word(rng), _random_word(rng)
        for v in (w, u * w * u.inverse(), u * w * _random_word(rng)):
            assert v.cyclic_reduce() == cyclic_reduce_by_ends(v), v


def test_power_matches_multiplying_one_factor_at_a_time():
    rng = random.Random(21)
    for _ in range(400):
        w, u = _random_word(rng, "ab", rng.choice((8, 30, 200))), _random_word(rng, "ab")
        for v in (w, u * w * u.inverse()):
            for n in range(-6, 7):
                assert v ** n == power_by_multiplication(v, n), (v, n)


def _letter_length(w):
    return sum(abs(e) for _, e in w.syllables)


def test_substitute_matches_multiplying_one_piece_at_a_time():
    rng = random.Random(22)
    cancelled = 0
    for _ in range(2000):
        w, replacement = _random_word(rng, "vab", 16), _random_word(rng, "ab", 6)
        got = w.substitute("v", replacement)
        assert got == substitute_piece_by_piece(w, "v", replacement), (w, replacement)
        unit = _letter_length(replacement)
        pieces = [abs(e) * (unit if g == "v" else 1) for g, e in w.syllables]
        cancelled += _letter_length(got) < sum(pieces)
    # Many inputs cancel letters where the pieces join.
    assert cancelled > 500


def test_power_of_a_long_conjugate_takes_linear_time():
    # Multiplying one factor at a time takes 7.7 s at n = 4,000; each join
    # of (a b t a^2 b^-1 a^-1)^n cancels four letters.
    u = W(("a", 1), ("b", 1))
    w = u * W(("t", 1), ("a", 2)) * u.inverse()
    with _deadline(5, "w ** 32000 and w ** -32000"):
        v, v_inverse = w ** 32_000, w ** -32_000
    assert v == u * W(*[("t", 1), ("a", 2)] * 32_000) * u.inverse()
    assert v_inverse == v.inverse()


def test_tietze_substitute_into_a_long_relator_takes_linear_time():
    # One product per syllable takes 45 s on a relator of 4,000 blocks
    # v b^k; with v = a b^-1 every block cancels a letter where it joins.
    blocks = 8000
    relator = W(*[s for i in range(blocks) for s in (("v", 1), ("b", 1 + i % 3))])
    p = Presentation(("v", "b"), (relator,))
    with _deadline(5, f"substituting into a relator of {blocks} blocks"):
        q = p.tietze_substitute("v", W(("a", 1), ("b", -1)))
    assert q.generators == ("b", "a")
    assert q.relators == (W(*[s for i in range(blocks) for s in (("a", 1), ("b", i % 3))]),)


def test_cyclic_reduce_of_a_long_conjugate_takes_linear_time():
    # (a b)^k t (b^-1 a^-1)^k: stripping one pair of ends at a time rebuilds
    # the word k times, which takes 26 s at k = 32,000.
    k = 32_000
    text = "<t, a, b | " + "a b " * k + "t " + "b^-1 a^-1 " * k + ">"
    with _deadline(5, f"parsing a conjugate of length {4 * k + 1}"):
        p = parse_presentation(text)
    assert p.relators == (W(("t", 1)),)


# -- parsing ------------------------------------------------------------


def test_parse_basic():
    p = parse_presentation("<t, a | t a t^-1 = a^2>")
    assert p.generators == ("t", "a")
    assert p.relators == (W(("t", 1), ("a", 1), ("t", -1), ("a", -2)),)


def test_parse_relator_form_and_whitespace():
    p = parse_presentation("  < u,v |\n u v u v^-1 u^-1 v^-1 >  ")
    assert p.generators == ("u", "v")
    assert len(p.relators) == 1


def test_parse_multicharacter_generators_longest_match():
    p = parse_presentation("<x, xy | xy x^-1>")
    assert p.relators[0] == W(("xy", 1), ("x", -1))


def test_parse_identity_word():
    p = parse_presentation("<a | 1 = a^3>")
    assert p.relators == (W(("a", -3)),)


def test_parse_parenthesized_exponent():
    p = parse_presentation("<a | a^(-3)>")
    assert p.relators == (W(("a", -3)),)


def test_parse_no_relators():
    p = parse_presentation("<t, a |>")
    assert p.relators == ()
    assert p.deficiency() == 2


def test_parse_errors():
    with pytest.raises(DuplicateGenerator):
        parse_presentation("<a, a | >")
    with pytest.raises(UnknownGenerator):
        parse_presentation("<a | b>")
    with pytest.raises(ParseError):
        parse_presentation("<a | a^>")
    with pytest.raises(ParseError):
        parse_presentation("no brackets")
    with pytest.raises(ParseError):
        parse_presentation("<a | a> trailing")


def test_parse_error_location():
    try:
        parse_presentation("<a |\n b>")
    except ParseError as e:
        assert e.line == 2
    else:
        pytest.fail("expected ParseError")


def test_roundtrip_text():
    src = "<t, a | t a t^-1 a^-2>"
    p = parse_presentation(src)
    assert parse_presentation(p.to_text()) == p


def test_json_dict():
    p = parse_presentation("<t, a | t a t^-1 a^-2>")
    d = p.to_json_dict()
    assert d == {
        "generators": ["t", "a"],
        "relators": [[["t", 1], ["a", 1], ["t", -1], ["a", -2]]],
    }


# Names that share prefixes and have several lengths, so that run-together
# words ("xyx1") test the longest match.
NAME_POOL = ("x", "xy", "x1", "xy1", "x12", "y", "t", "a", "ab", "b", "X")
SPACES = ("", " ", " ", "  ", "\t", "\n", " \n ", "\u00a0", "\u2003")
EXPONENTS = (
    "", "", "", "^2", "^-1", "^+3", "^ -2", "^-0", "^12", "^(2)", "^(-3)", "^( +1 )",
    "^\u0663", "^(\u0661\u0660)", "^- 1",
)
MUTATIONS = "<>|,=^()+-1209 \t\nxyabtX\u00a0\u0663#_"


def _presentation_text(rng):
    """Mostly valid presentation text over a few names from NAME_POOL."""
    gens = rng.sample(NAME_POOL, rng.randint(1, 4))
    if rng.random() < 0.03:
        gens.append(rng.choice(gens))
    usable = gens + [rng.choice(NAME_POOL)] if rng.random() < 0.05 else gens

    def sp():
        return rng.choice(SPACES)

    def word():
        if rng.random() < 0.1:
            return "1"
        n = rng.randint(0, 6)
        return sp().join(rng.choice(usable) + rng.choice(EXPONENTS) for _ in range(n))

    relations = [
        word() + (f"{sp()}={sp()}{word()}" if rng.random() < 0.3 else "")
        for _ in range(rng.randint(0, 4))
    ]
    body = f"{sp()},{sp()}".join(relations) + ("," if rng.random() < 0.1 else "")
    bar = f"{sp()}|{sp()}{body}" if relations or rng.random() < 0.5 else ""
    return f"{sp()}<{sp()}{f'{sp()},{sp()}'.join(gens)}{bar}{sp()}>{sp()}"


def parser_inputs(seed, count):
    """count texts: valid-heavy presentations, half of them with one character
    inserted, deleted or replaced."""
    rng = random.Random(seed)
    for _ in range(count):
        text = _presentation_text(rng)
        if rng.random() < 0.5:
            i = rng.randrange(len(text) + 1)
            op, c = rng.choice(("insert", "delete", "replace")), rng.choice(MUTATIONS)
            text = text[:i] + ("" if op == "delete" else c) + text[i + (op != "insert") :]
        yield text


def _outcome(parse, text):
    """(error class, message, line, column), or (Presentation, generators, relators)."""
    try:
        p = parse(text)
    except ParseError as e:
        return type(e), str(e), e.line, e.col
    return Presentation, p.generators, p.relators


def test_parse_matches_the_token_by_token_parser():
    outcomes = {}
    for text in parser_inputs(2020, 20_000):
        got = _outcome(parse_presentation, text)
        assert got == _outcome(parse_by_tokens, text), repr(text)
        outcomes[got[0]] = outcomes.get(got[0], 0) + 1
    # Both sides of the parser are exercised, every error class among them.
    assert outcomes[Presentation] > 5_000 and outcomes[ParseError] > 2_000
    assert outcomes[UnknownGenerator] > 500 and outcomes[DuplicateGenerator] > 100


def _wide_text(n):
    """n generators x0, ..., x{n-1} and the one relator x0^2 x1^2 ... x{n-1}^2."""
    names = [f"x{i}" for i in range(n)]
    return "<" + ", ".join(names) + " | " + " ".join(f"{g}^2" for g in names) + ">"


def test_parse_reads_many_generators_in_linear_time():
    # Comparing every token with every generator takes 16 s on this text.
    text = _wide_text(16_000)
    with _deadline(5, "parsing 16,000 generators"):
        p = parse_presentation(text)
    assert len(p.generators) == 16_000 and p.generators[-1] == "x15999"
    assert p.relators[0].syllables[-1] == ("x15999", 2)


# -- presentation invariants -------------------------------------------


def test_constructor_errors_carry_no_text_position():
    # Only the parser knows a line and a column.
    with pytest.raises(DuplicateGenerator) as dup:
        Presentation(("a", "a"), ())
    assert str(dup.value) == "duplicate generator 'a'" and dup.value.line is None
    with pytest.raises(UnknownGenerator) as unknown:
        Presentation(("a",), (W(("b", 1)),))
    assert str(unknown.value) == "relator uses undeclared generator 'b'"
    assert unknown.value.col is None


def test_relators_stored_cyclically_reduced():
    p = Presentation.make(["a", "b"], [W(("a", 1), ("b", 1), ("a", -1))])
    assert p.relators[0] == W(("b", 1))
    with pytest.raises(ValueError):
        Presentation(("a", "b"), (W(("a", 1), ("b", 1), ("a", -1)),))
    with pytest.raises(ValueError):  # built without free reduction
        Presentation(("a", "b"), (FreeWord((("a", 1), ("a", 1))),))


def test_exponent_matrix():
    p = parse_presentation("<t, a | t a t^-1 a^-2>")
    assert p.exponent_matrix() == [[0, -1]]


def test_exponent_matrix_matches_one_pass_per_generator():
    rng = random.Random(21)
    for _ in range(500):
        gens = rng.sample("tabcd", rng.randint(1, 5))
        rels = [_random_word(rng, gens, 12) for _ in range(rng.randrange(4))]
        p = Presentation.make(gens, rels)
        assert p.exponent_matrix() == exponent_matrix_by_columns(p)


def test_exponent_matrix_takes_one_pass_per_relator():
    p = parse_presentation(_wide_text(16_000))
    with _deadline(5, "the exponent matrix of 16,000 generators"):
        assert p.exponent_matrix() == [[2] * 16_000]


def test_tietze_substitute_appends_new_generators():
    p = parse_presentation("<u, v | u v u v^-1 u^-1 v^-1>")
    q = p.tietze_substitute("v", W(("u", 1), ("a", 1)))
    assert q.generators == ("u", "a")
    assert "v" not in q.generators_set() if hasattr(q, "generators_set") else True
    for r in q.relators:
        assert "v" not in r.generators_used()


def test_tietze_substitute_errors():
    p = parse_presentation("<u, v | u v>")
    with pytest.raises(UnknownGenerator):
        p.tietze_substitute("w", W(("u", 1)))
    with pytest.raises(SelfReference):
        p.tietze_substitute("v", W(("v", 1)))


# -- abelianization and weightings -------------------------------------

# Derived by hand from the exponent matrices; cross-checked against the
# sympy Smith normal form below.
ABELIANIZATIONS = [
    ("<t, a | t a t^-1 a^-2>", (1, ())),
    ("<u, v | u v u v^-1 u^-1 v^-1>", (1, ())),
    ("<a, b | a b a^-1 b^-1>", (2, ())),
    ("<a | a^3>", (0, (3,))),
    ("<a, b | a^2 b^-3>", (1, ())),
    ("<t, a |>", (2, ())),
    ("<a, b | a^2, b^2>", (0, (2, 2))),
    ("<a, b | a^2 b^2, a^4>", (0, (2, 4))),
]


@pytest.mark.parametrize("src,expected", ABELIANIZATIONS)
def test_abelianization_invariants(src, expected):
    assert parse_presentation(src).abelianization_invariants() == expected


WEIGHTINGS = [
    ("<t, a | t a t^-1 a^-2>", {"t": 1, "a": 0}),
    ("<u, v | u v u v^-1 u^-1 v^-1>", {"u": 1, "v": 1}),
    ("<a, b | a^2 b^-3>", {"a": 3, "b": 2}),
    ("<t | >", {"t": 1}),
]


@pytest.mark.parametrize("src,expected", WEIGHTINGS)
def test_canonical_weighting(src, expected):
    p = parse_presentation(src)
    chi = p.canonical_weighting()
    assert chi == expected
    validate_weighting(p, chi)


def test_wirtinger_abelianization_takes_little_time():
    # The 801 x 801 exponent matrix of T(2, 801) has two entries, 1 and -1,
    # in each row; Bareiss with negative pivots rescaled every row at every
    # pivot, which took 15 s.
    p = parse_presentation(wirtinger_torus_text(801))
    with _deadline(5, "the abelianization of Wirtinger T(2, 801)"):
        assert p.abelianization_invariants() == (1, ())
        assert p.canonical_weighting() == dict.fromkeys(p.generators, 1)


def test_canonical_weighting_runs_smith_once(monkeypatch):
    calls = []
    smith = words.smith_diagonal

    def counting_smith(*args):
        calls.append(args)
        return smith(*args)

    monkeypatch.setattr(words, "smith_diagonal", counting_smith)
    assert parse_presentation("<t, a | t a t^-1 a^-2>").canonical_weighting() == {"t": 1, "a": 0}
    assert len(calls) == 1


def test_canonical_weighting_sign_convention():
    # Same group, generator order reversed: first generator with nonzero
    # weight must come out positive.
    p = parse_presentation("<a, t | t a^-1 t^-1 a^2>")
    chi = p.canonical_weighting()
    first = next(g for g in p.generators if chi[g] != 0)
    assert chi[first] > 0


@pytest.mark.parametrize(
    "src",
    [
        "<a, b | a b a^-1 b^-1>",  # first homology Z^2
        "<a | a^3>",  # finite first homology
        "<a, b | a^2, b^2>",
    ],
)
def test_not_knot_like(src):
    with pytest.raises(NotKnotLike):
        parse_presentation(src).canonical_weighting()


def test_validate_weighting_rejects_bad():
    p = parse_presentation("<t, a | t a t^-1 a^-2>")
    with pytest.raises(ValueError):
        validate_weighting(p, {"t": 1})  # missing generator
    with pytest.raises(ValueError):
        validate_weighting(p, {"t": 1, "a": 1})  # relator weight nonzero
    with pytest.raises(ValueError):
        validate_weighting(p, {"t": 2, "a": 0})  # gcd 2


# -- fraction-free echelon vs Fraction elimination and Leibniz ----------


def _echelon_inputs(rng, shape):
    """A seeded integer matrix: square, tall or wide, sparse enough that many
    rows have 0 in a pivot column, with a zero column and a duplicate row at times."""
    n = rng.randint(1, 6)
    nrows, ncols = {"square": (n, n), "tall": (n + rng.randint(1, 3), n), "wide": (n, n + rng.randint(1, 3))}[shape]
    h = rng.choice((1, 3, 30))
    rows = [[rng.randint(-h, h) * rng.choice((0, 1, 1)) for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.3:
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = 0
    if nrows > 1 and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = rows[rng.randrange(nrows)][:]
    return rows, ncols


@pytest.mark.parametrize("shape", ["square", "tall", "wide"])
def test_bareiss_echelon_rank_determinant_and_kernel(shape):
    rng = random.Random(f"bareiss-{shape}")
    for _ in range(300):
        rows, ncols = _echelon_inputs(rng, shape)
        e = [row[:] for row in rows]
        pivots, sign = bareiss_echelon(e, ncols)
        r = len(pivots)
        basis = _frac_nullspace([[Fraction(x) for x in row] for row in rows], ncols)
        assert r == ncols - len(basis), rows
        last = e[r - 1][pivots[-1]] if pivots else 1
        assert last
        if shape == "square":
            det = leibniz_det([[{0: x} for x in row] for row in rows]).get(0, 0)
            assert (sign * last if r == ncols else 0) == det, rows
        for free in sorted(set(range(ncols)) - set(pivots)):
            x = echelon_kernel(e, ncols, pivots, free)
            assert x[free] == last
            assert all(x[j] == 0 for j in range(ncols) if j != free and j not in pivots)
            assert all(sum(a * v for a, v in zip(row, x)) == 0 for row in rows), (rows, free)


class _CountedRow(list):
    """A row that counts the slice assignments that bring it up to date."""

    updates = 0

    def __setitem__(self, key, value):
        if isinstance(key, slice):
            self.updates += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("shape", ["square", "tall", "wide"])
def test_bareiss_echelon_matches_the_echelon_with_negative_pivots(shape):
    # A row with 0 in the pivot column keeps its own divisor; the textbook
    # echelon rescales it at every step.  Every entry a caller reads is the
    # same: the pivot columns, the sign, and each pivot row from its pivot on.
    rng = random.Random(f"signs-{shape}")
    negative = updated = 0
    for _ in range(300):
        rows, ncols = _echelon_inputs(rng, shape)
        e, f = [_CountedRow(row) for row in rows], [row[:] for row in rows]
        pivots, sign = bareiss_echelon(e, ncols)
        assert (pivots, sign) == bareiss_echelon_any_sign(f, ncols), rows
        for k, j in enumerate(pivots):
            assert e[k][j:] == f[k][j:], rows
            negative += e[k][j] < 0
        updated += sum(row.updates for row in e)
    assert negative > 30
    assert updated > 30


# -- Smith normal form vs sympy ----------------------------------------


def _sympy_invariants(rows, ncols):
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    if not rows:
        return []
    m = smith_normal_form(Matrix(rows))
    diag = [abs(m[i, i]) for i in range(min(m.shape))]
    return [d for d in diag if d != 0]


def _check_kernel(rows, ncols, diag, kernel):
    """At rank ncols - 1 the kernel vector is primitive and A v = 0; else it is None."""
    if len(diag) != ncols - 1:
        assert kernel is None
        return
    assert math.gcd(*kernel) == 1
    assert all(sum(x * v for x, v in zip(row, kernel)) == 0 for row in rows)


def test_smith_diagonal_matches_sympy_on_random_matrices():
    rng = random.Random(20260825)
    for _ in range(60):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
        diag, kernel = smith_diagonal(rows, ncols)
        assert diag == _sympy_invariants(rows, ncols), rows
        # divisibility chain
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        _check_kernel(rows, ncols, diag, kernel)


def test_smith_mod_matches_sympy_modulo_m():
    # The Smith form over Z/m is the chain of gcd(d_i, m) over sympy's
    # invariant factors d_i, padded with zeros, a zero reading as m.
    rng = random.Random(20261022)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [
            [rng.randint(-30, 30) * rng.choice((0, 1, 1)) for _ in range(ncols)] for _ in range(nrows)
        ]
        invariants = _sympy_invariants(rows, ncols)
        invariants += [0] * (min(nrows, ncols) - len(invariants))
        for m in (1, 2, 4, 6, 8, 9, 12, 30, 31, 36, 64):
            want = [math.gcd(d, m) for d in invariants]
            assert all(b % a == 0 for a, b in zip(want, want[1:]))
            with _deadline(5, f"smith_mod on {rows} modulo {m}"):
                assert smith_mod(rows, ncols, m) == want, (rows, m)


# Exponent matrix of random_presentation(Random(35), 10, 30) from the
# benchmark's generator: floor-quotient elimination blew its pivot-row
# entries up past 300,000 bits without finishing.
SMITH_BLOWUP = [
    [0, -1, 0, -3, -1, -1, 1, 1, -1, -1],
    [0, 0, -2, -1, 1, 2, 0, 1, 2, 1],
    [0, 2, 2, -1, 2, 0, 2, 2, 0, 0],
    [0, 0, 0, -2, 2, 0, -2, 0, -1, -1],
    [0, 1, 0, -1, 2, -1, -1, -1, -1, 0],
    [0, 3, 0, 0, 0, -2, 0, 0, 0, 1],
    [0, 1, -2, 1, 0, 0, -1, -1, 0, -1],
    [0, -1, -1, 1, 3, 2, -1, 0, 4, 1],
    [0, 2, 0, 0, -1, 1, 3, 1, 2, 1],
]


def test_smith_diagonal_stays_small_on_blowup_matrix():
    diag, kernel = smith_diagonal(SMITH_BLOWUP, 10)
    assert diag == [1] * 8 + [5454]
    assert kernel == (1,) + (0,) * 9  # the first column is zero


@pytest.mark.parametrize("s", [31, 38, 102])
def test_smith_diagonal_finishes_on_dense_matrices(s):
    # Diagonalizing over Z and re-diagonalizing to repair divisibility ran
    # for more than a minute on these; residues modulo a maximal minor keep
    # every entry below it.
    rng = random.Random(10**6 + s)
    nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
    rows = [
        [rng.randrange(-30, 31) * rng.choice((0, 1, 1)) for _ in range(ncols)] for _ in range(nrows)
    ]

    with _deadline(5, f"smith_diagonal on {rows}"):
        diag, kernel = smith_diagonal(rows, ncols)
    assert diag == _sympy_invariants(rows, ncols)
    _check_kernel(rows, ncols, diag, kernel)
