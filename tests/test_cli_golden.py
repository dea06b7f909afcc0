"""Golden snapshot of every CLI subcommand over the test corpus.

Each case runs ``cycover.cli.main`` in process, in a directory holding one
``<name>.pres`` file per corpus presentation, and compares its exit code,
stdout and stderr exactly with the record in ``tests/data/cli_golden.json``.

Regenerate the record only when a change of output is intended::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from corpus import knotlike_corpus, two_bridge_pairs, weight_zero_form, wirtinger_torus_text

from cycover.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

RECURRENCES = ["1,-1,-1", "1,-3,1", "1,-2", "2,-5,2", "1,-3,2", "3,0,-3", "x,1"]

# Irreducible inputs that split into many factors modulo every prime: the
# Swinnerton-Dyer polynomials SD(3) and SD(4).
FACTORING_RECURRENCES = [
    "1,0,-40,0,352,0,-960,0,576",
    "1,0,-136,0,6476,0,-141912,0,1513334,0,-7453176,0,13950764,0,-5596840,0,46225",
]

# 3t^8 - 2t^5 - t^4 - t^2 - 3t - 2, whose witness factor t^4 - t - 1 comes
# from recombining modular factors.
RECOMBINED_WITNESS = "3,0,0,-2,-1,0,-1,-3,-2"

# weight-zero forms whose templates have two holes, or three for (11, 6) and (13, 7)
MULTI_HOLE_FORMS = [(7, 3), (7, 4), (9, 4), (9, 5), (11, 6), (13, 7)]

# Presentations that reach branches the knot corpus does not: d(2) infinite
# with the large flag set, Delta = 0 with its free-rank witness, a template
# of width 0, two templates whose solutions are intersected, a 3 x 3 Fox
# minor (a four-generator knot-like presentation), and a 2 x 2 Fox minor of
# rank 1 whose rows are both nonzero.
EXTRA_FILES = {
    "dyadic_square.pres": "<t, a | t a^2 t^-1 a^-2>",
    "free_rank2.pres": "<t, a, b | t a t^-1 a^-2>",
    "order2.pres": "<t, a | a^2>",
    "two_templates.pres": "<t, a | t a t^-1 a^-2, a^3>",
    "knotlike4.pres": (
        "<t,a1,a2,a3 | a1 a2^-1 a1^-1 t a1 t^-1 a3 t a1^-1 t a2 a3^-1 a1 a1 a1^-1 t^-2, "
        "a1 t a2 t^-1 a1^-1 a3^-1 t^-1 a3^-1 a3 a1 t a3 t a1^-1 a2^-1 t a2 t^-2, "
        "t a1^-1 t a2 a3 a1 t^-1 a2^-1 t^-1 a3^-1 t^-1 a2 t a3 t a3^-1 t^-1 a3 t^-1 a2^-1 t>"
    ),
    "repeated_relator.pres": "<t, a, b | t a t^-1 a^-2, t a t^-1 a^-2>",
}

# One file per message of the parser, each exiting with code 2; the unknown
# generator sits on the second line, which pins the line and column.
PARSE_ERRORS = {
    "no_open.pres": "t, a | t a t^-1 a^-2>",
    "no_close.pres": "<t, a | t a t^-1 a^-2",
    "bad_name.pres": "<t, 2 | t>",
    "duplicate.pres": "<t, a, t | t a t^-1 a^-2>",
    "unknown.pres": "<t, a |\n  t a t^-1 b^-2>",
    "bad_exponent.pres": "<t, a | t a^x t^-1>",
    "open_paren.pres": "<t, a | t a^(2 t^-1 a^-2>",
    "trailing.pres": "<t, a | t a t^-1 a^-2> t",
}

# Presentation syntax the corpus does not use: run-together names, "^(e)",
# "=", the identity "1", and relators that need cyclic reduction.
SYNTAX_FILE = (
    "<t, a, b |\n  tat^-1 a^(-2),\n  1 = a b^2 t b^-1 t^-1 a^-2,\n  b a t a^-1 t^-1 b^-1>"
)

# The Wirtinger presentation of T(2, 7): all seven relators, whose exponent
# matrix puts pivots of 1 and -1 into the Smith form, and the last one
# dropped, which leaves a 6 x 6 Fox minor with
# Delta = t^6 - t^5 + t^4 - t^3 + t^2 - t + 1.  With the first one dropped
# instead, the echelon of the Fox minor skips rows at pivots other than +-1.
WIRTINGER = {
    "wirtinger7.pres": wirtinger_torus_text(7),
    "wirtinger7_less.pres": wirtinger_torus_text(7, 6),
    "wirtinger7_less_first.pres": wirtinger_torus_text(7, drop=0),
}

# Custom multiplication tables for `reps --table`: the Klein four-group, a
# table that is not a Latin square, and a Latin square with an identity that
# is not associative (a loop of order 5 in which every element is its own
# inverse).
TABLES = {
    "klein.txt": "4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n",
    "not_latin.txt": "3\n0 1 2\n1 1 2\n2 2 0\n",
    "loop5.txt": "5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n",
}

# (t^2 - t - 1)^2, which is squarefree modulo no prime.
SQUARED_RECURRENCE = "1,-2,-1,2,1"


def _chi_arg(chi):
    return ",".join(f"{g}={v}" for g, v in chi.items())


def presentations():
    """file name -> presentation text for every case that reads a file."""
    files = {f"{name}.pres": pres.to_text() for name, pres, _ in knotlike_corpus()}
    for p, q in two_bridge_pairs(9) + MULTI_HOLE_FORMS:
        files[f"wz{p}_{q}.pres"] = weight_zero_form(p, q)[0].to_text()
    return {
        **files, **EXTRA_FILES, **PARSE_ERRORS, "syntax.pres": SYNTAX_FILE, **TABLES, **WIRTINGER
    }


def cases():
    """case id -> argv, in a fixed order."""
    out = {}

    def add(*argv):
        out[" ".join(argv)] = list(argv)

    for name, _, chi in knotlike_corpus():
        f = f"{name}.pres"
        for mode in ((), ("--json",)):
            add("parse", f, *mode)
            add("alex", f, *mode)
            add("criteria", f, *mode)
        add("analyze", f, "--json")
        add("criteria", f, "--chi", _chi_arg(chi), "--json")
        add("criteria", f, "--primes", "3", "--json")
        add("criteria", f, "--primes", "3,3", "--json")
        add("alex", f, "--primes", "3,3", "--json")
        add("rs", f, "--json")
    for p, q in two_bridge_pairs(11):
        add("twobridge", str(p), str(q), "--json")
    for n in range(1, 7):
        add("twobridge", "--family", str(n), "--json")
        add("twobridge", "--family", str(n))
    wz = [f"family{n}.pres" for n in range(1, 4)]
    wz += [f"wz{p}_{q}.pres" for p, q in two_bridge_pairs(9)]
    for f in wz:
        add("rs", f, "--chi", "u=1,a=0", "--json")
        for group in ("Z3", "S3"):
            add("reps", f, "--chi", "u=1,a=0", "--group", group, "--max-period", "4", "--json")
    add("reps", "family2.pres", "--group", "S3", "--max-period", "4")
    for p, q in MULTI_HOLE_FORMS:
        f = f"wz{p}_{q}.pres"
        add("reps", f, "--chi", "u=1,a=0", "--group", "S4", "--max-period", "4", "--json")
    for coeffs in RECURRENCES:
        add("recurrence", coeffs, "--witness", "-3", "5", "--json")
        add("recurrence", coeffs, "--witness", "-3", "5")
    for mode in ((), ("--json",)):
        add("criteria", "dyadic_square.pres", "--chi", "t=1,a=0", *mode)
        add("criteria", "free_rank2.pres", "--chi", "t=1,a=0,b=0", *mode)
    add("reps", "order2.pres", "--chi", "t=1,a=0", "--group", "S3", "--max-period", "2")
    for group in ("Z3", "S3"):
        add("reps", "two_templates.pres", "--group", group, "--json")
    add("reps", "two_templates.pres", "--group", "S3", "--max-period", "1")
    for mode in ((), ("--json",)):
        for command in ("alex", "criteria"):
            add(command, "knotlike4.pres", *mode)
            add(command, "repeated_relator.pres", "--chi", "t=1,a=0,b=0", *mode)
    for coeffs in FACTORING_RECURRENCES:
        add("recurrence", coeffs, "--json")
    for mode in ((), ("--json",)):
        add("recurrence", RECOMBINED_WITNESS, "--witness", "-3", "3", *mode)
    for f in PARSE_ERRORS:
        add("parse", f)
    for mode in ((), ("--json",)):
        add("parse", "syntax.pres", *mode)
    for table in TABLES:
        add("reps", "dyadic.pres", "--table", table)
    for mode in ((), ("--json",)):
        add("recurrence", SQUARED_RECURRENCE, *mode)
    for mode in ((), ("--json",)):
        add("parse", "wirtinger7.pres", *mode)
    add("alex", "wirtinger7_less.pres")
    for mode in ((), ("--json",)):
        add("criteria", "wirtinger7_less.pres", *mode)
    add("alex", "wirtinger7_less_first.pres")
    add("criteria", "wirtinger7_less_first.pres", "--json")
    return out


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


@contextlib.contextmanager
def _corpus_dir():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in presentations().items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def snapshot():
    with _corpus_dir():
        return {case: _run(argv) for case, argv in cases().items()}


def test_cli_matches_golden_snapshot():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == list(cases())
    got = snapshot()
    mismatched = [case for case in golden if got[case] != golden[case]]
    assert not mismatched, f"{len(mismatched)} cases differ, first: {mismatched[0]!r}"


def test_golden_snapshot_covers_every_subcommand():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    commands = {case.split()[0] for case in golden}
    assert commands == {
        "parse", "alex", "criteria", "analyze", "twobridge", "rs", "reps", "recurrence"
    }
    assert golden["criteria torus23.pres --json"]["exit"] == 1
    parse_errors = {f"parse {f}" for f in PARSE_ERRORS}
    assert all(golden[case]["exit"] == 2 for case in parse_errors)
    assert all(rec["exit"] in (0, 1) for case, rec in golden.items() if case not in parse_errors)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=False) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
