"""End-to-end command-line checks: exit codes, JSON shape, determinism."""

import contextlib
import json
import os
import subprocess
import sys

import pytest

import cycover
from cycover import words
from cycover.cli import _digest, main

DYADIC_TEXT = "<t, a | t a t^-1 a^-2>"


@pytest.fixture
def dyadic_file(tmp_path):
    f = tmp_path / "dyadic.txt"
    f.write_text(DYADIC_TEXT)
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(*argv):
    """`python -m cycover.cli` in a new interpreter: only its own imports are loaded."""
    src = os.path.dirname(os.path.dirname(cycover.__file__))
    return subprocess.run(
        [sys.executable, "-m", "cycover.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


# -- parse --------------------------------------------------------------


def test_parse_human(capsys, dyadic_file):
    code, out, err = run(capsys, "parse", dyadic_file)
    assert code == 0
    assert "<t,a | t a t^-1 a^-2>" in out
    assert "free rank 1" in out


def test_parse_json(capsys, dyadic_file):
    rep = run_json(capsys, "parse", dyadic_file)
    assert set(rep) == {"command", "input_digest", "version", "result"}
    assert rep["command"] == "parse"
    assert rep["version"] == cycover.__version__
    assert len(rep["input_digest"]) == 64
    r = rep["result"]
    assert r["weighting"] == {"t": 1, "a": 0}
    assert r["abelianization"] == {"free_rank": 1, "torsion": []}


@pytest.mark.parametrize("command", ["criteria", "parse"])
def test_smith_form_computed_once(monkeypatch, capsys, dyadic_file, command):
    # the weighting and the abelianization both read one Smith form
    calls = []
    real = words.smith_diagonal
    monkeypatch.setattr(words, "smith_diagonal", lambda *a: calls.append(a) or real(*a))
    code, out, err = run(capsys, command, dyadic_file)
    assert code == 0, err
    assert len(calls) == 1


def test_parse_garbage_is_exit_2(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("this is not a presentation")
    code, out, err = run(capsys, "parse", str(f))
    assert code == 2
    assert "parse error" in err


# words, and ParseError with it, is imported only on the paths that need it;
# each parse error, a subclass included, still exits 2 in a fresh process.
@pytest.mark.parametrize(
    "text, message",
    [
        ("<a, b | a^>", "parse error: expected an integer exponent after '^' (line 1, col 11)"),
        ("<a, a | a>", "parse error: duplicate generator 'a' (line 1, col 7)"),
        ("<a | b>", "parse error: unknown generator 'b' (line 1, col 6)"),
    ],
    ids=["malformed-word", "duplicate-generator", "unknown-generator"],
)
def test_parse_errors_exit_2_in_process_and_fresh(capsys, tmp_path, text, message):
    f = tmp_path / "bad.pres"
    f.write_text(text)
    code, out, err = run(capsys, "parse", str(f))
    assert (code, out, err) == (2, "", message + "\n")
    proc = run_fresh("parse", str(f))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message + "\n")


def test_missing_file_is_exit_1(capsys):
    code, out, err = run(capsys, "parse", "/nonexistent/file.txt")
    assert code == 1
    assert "error" in err


# -- alex ---------------------------------------------------------------


def test_alex_json(capsys, dyadic_file):
    rep = run_json(capsys, "alex", dyadic_file)
    r = rep["result"]
    assert r["delta"] == "t - 2"
    assert r["deleted_column"] == "t"
    assert set(r["mod_p"]) == {"2", "3", "5", "7"}
    assert r["mod_p"]["2"]["d"] == 0
    assert r["mod_p"]["3"]["d"] == 1


def test_alex_explicit_chi_matches_canonical(capsys, dyadic_file):
    a = run_json(capsys, "alex", dyadic_file)
    b = run_json(capsys, "alex", dyadic_file, "--chi", "t=1,a=0")
    assert a == b


def test_alex_invalid_chi(capsys, dyadic_file):
    code, out, err = run(capsys, "alex", dyadic_file, "--chi", "t=0,a=1")
    assert code == 1


def test_chi_rejects_unknown_and_repeated_generators(capsys, dyadic_file):
    for chi, message in (("t=1,a=0,zz=7", "'zz' is not a generator"), ("t=1,a=0,t=1", "'t' is named twice")):
        for command in ("alex", "criteria"):
            code, out, err = run(capsys, command, dyadic_file, "--chi", chi, "--json")
            assert code == 1 and out == ""
            assert message in err


def test_alex_custom_primes(capsys, dyadic_file):
    rep = run_json(capsys, "alex", dyadic_file, "--primes", "7")
    assert set(rep["result"]["mod_p"]) == {"7"}
    code, _, _ = run(capsys, "alex", dyadic_file, "--primes", "x,y")
    assert code == 1


def test_repeated_prime_is_reported_once(capsys, dyadic_file):
    code, out, _ = run(capsys, "alex", dyadic_file, "--primes", "5,3,5")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()[2:]] == ["mod 5", "mod 3"]
    r = run_json(capsys, "criteria", dyadic_file, "--primes", "5,3,5,3")["result"]
    assert [rec["p"] for rec in r["primes"]] == [5, 3]


def test_large_and_unprovable_primes(capsys, dyadic_file):
    # primality is decided by strong-probable-prime tests, exact below the bound
    r = run_json(capsys, "criteria", dyadic_file, "--primes", str(2**61 - 1))["result"]
    assert [(rec["p"], rec["d"], rec["n"]) for rec in r["primes"]] == [(2**61 - 1, 1, 1)]
    code, out, err = run(capsys, "criteria", dyadic_file, "--primes", str(2**89 - 1))
    assert code == 1 and out == ""
    assert "3317044064679887385961981" in err
    code, out, err = run(capsys, "alex", dyadic_file, "--primes", "10000000000000063")
    assert code == 1 and "10000000000000063 is not prime" in err


def test_huge_weight_zero_exponent(capsys, tmp_path):
    f = tmp_path / "huge.txt"
    f.write_text("<t, a | t a^1000000000 t^-1 a^-1000000001>")
    for command in ("alex", "criteria"):
        rep = run_json(capsys, command, str(f))
        assert rep["result"]["delta"] == "1000000000t - 1000000001"


@contextlib.contextmanager
def no_int_digit_limit():
    """Let the test itself read and write integers of any length."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    lift = getattr(sys, "set_int_max_str_digits", lambda n: None)
    lift(0)
    try:
        yield
    finally:
        lift(limit)


def test_counts_past_the_int_digit_limit(capsys, tmp_path):
    # r_p = p^334 at p = 2^61 - 1 has 6,133 digits, past the 4,300 that Python
    # turns into a string by default; the CLI lifts that limit only to print.
    from cycover.twobridge import TwoBridgeParams, presentation

    f = tmp_path / "k1001_3.txt"
    f.write_text(presentation(TwoBridgeParams(1001, 3)).to_text())
    p = 2**61 - 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run(capsys, "criteria", str(f), "--primes", str(p))
    assert code == 0, err
    assert f"p={p}: d=334 r=" in out
    code, out, err = run(capsys, "criteria", str(f), "--primes", str(p), "--json")
    assert code == 0, err
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    with no_int_digit_limit():
        (rec,) = json.loads(out)["result"]["primes"]
    assert rec["d"] == 334 and rec["r"] == p**334 and rec["n"] == (p**334 - 1) // (p - 1)


def test_delta_past_the_int_digit_limit(capsys, tmp_path):
    # With E = 10^3000 + 1 and chi = (1, 0, 0) the Fox matrix, column t
    # deleted, is [[E t, -1], [-1, E t]], so delta = E^2 t^2 - 1: 6,001 digits.
    e = 10**3000 + 1
    f = tmp_path / "big.txt"
    with no_int_digit_limit():
        f.write_text(f"<t, a, b | t a^{e} t^-1 b^-1, t b^{e} t^-1 a^-1>")
        delta = f"{e * e}t^2 - 1"
    for command in ("alex", "criteria"):
        code, out, err = run(capsys, command, str(f), "--chi", "t=1,a=0,b=0")
        assert code == 0, err
        assert out.startswith(f"delta: {delta}\n")
        code, out, err = run(capsys, command, str(f), "--chi", "t=1,a=0,b=0", "--json")
        assert code == 0, err
        with no_int_digit_limit():
            assert json.loads(out)["result"]["delta"] == delta


def test_criteria_finds_a_good_prime_past_every_small_one(capsys, tmp_path):
    # Every prime below 20,000 divides lc * delta(0) of delta = (A t - C)(B t - D).
    from corpus import prime_product_text

    f = tmp_path / "prime_products.txt"
    f.write_text(prime_product_text())
    code, out, err = run(capsys, "criteria", str(f), "--chi", "t=1,a=0,b=0", "--json")
    assert code == 0, err
    assert '"answer":false' in out
    code, out, err = run(capsys, "criteria", str(f), "--chi", "t=1,a=0,b=0")
    assert code == 0, err
    assert "surjects onto Z: no\n" in out


def test_recurrence_window_past_the_int_digit_limit(capsys):
    # F(30000) has 6,270 digits; the witness of t^2 - t - 1 is the Fibonacci sequence
    fib = [0, 1]
    while len(fib) < 30003:
        fib.append(fib[-1] + fib[-2])
    want = fib[30000:30003]
    for mode in ((), ("--json",)):
        code, out, err = run(capsys, "recurrence", "1,-1,-1", "--witness", "30000", "30002", *mode)
        assert code == 0, err
        with no_int_digit_limit():
            if mode:
                assert json.loads(out)["result"]["window"] == {"base": 30000, "values": want}
            else:
                assert f"window [30000, 30002]: {want}\n" in out


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no limit on int digits before 3.10.7"
)
def test_input_keeps_the_int_digit_limit(capsys, tmp_path):
    # only output is exempt: a 5,001-digit exponent or coefficient is refused
    huge = "1" + "0" * 5000
    f = tmp_path / "huge.txt"
    f.write_text(f"<t, a | t a^{huge} t^-1 a^-1>")
    for argv in (["alex", str(f)], ["recurrence", f"{huge},1"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", err


def test_weighting_error_past_the_int_digit_limit(capsys, tmp_path):
    # a^N with chi(a) = N, N = 10^3000 - 1: the relator's weight N^2 has 6,000 digits
    n = 10**3000 - 1
    f = tmp_path / "weight.txt"
    f.write_text(f"<t, a | a^{n}>")
    code, out, err = run(capsys, "alex", str(f), "--chi", f"t=1,a={n}")
    assert code == 1 and out == ""
    assert err.startswith("error: weighting: weighting does not vanish on relator a^999")


def test_alex_bad_chi_syntax(capsys, dyadic_file):
    code, _, err = run(capsys, "alex", dyadic_file, "--chi", "t:1")
    assert code == 1
    assert "--chi" in err or "chi" in err


# -- criteria -----------------------------------------------------------


def test_criteria_json(capsys, dyadic_file):
    r = run_json(capsys, "criteria", dyadic_file)["result"]
    assert r["delta"] == "t - 2"
    assert r["beta1_Q"] == 1
    assert r["index2"] is False
    assert r["surjects_to_Z"] == {"answer": False, "witness": None, "free_rank": False}
    assert r["large_flag"] is False
    assert r["kernel_fg"] == "NotFG"
    assert r["kervaire"]["weight_one_witness"] == "t"
    assert r["kervaire"]["h1_is_Z"] is True
    by_p = {rec["p"]: rec for rec in r["primes"]}
    assert by_p[2]["n"] == 0
    assert by_p[3] == {
        "p": 3,
        "d": 1,
        "r": 3,
        "n": 1,
        "classification": {"kind": "finite", "count": 1},
    }


def test_analyze_alias(capsys, dyadic_file):
    code_a, out_a, _ = run(capsys, "criteria", dyadic_file, "--json")
    code_b, out_b, _ = run(capsys, "analyze", dyadic_file, "--json")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_criteria_human_readable(capsys, dyadic_file):
    code, out, _ = run(capsys, "criteria", dyadic_file)
    assert code == 0
    assert "index 2 subgroups: no" in out
    assert "surjects onto Z: no" in out
    assert "kernel finitely generated: NotFG" in out


# -- twobridge ----------------------------------------------------------


def test_twobridge_pair(capsys):
    code, out, _ = run(capsys, "twobridge", "3", "1")
    assert code == 0
    assert out.strip() == "<u,v | u v u v^-1 u^-1 v^-1>"


def test_twobridge_family(capsys):
    code, out, _ = run(capsys, "twobridge", "--family", "2")
    assert code == 0
    assert out.strip() == "<u,a | u a^2 u a^-2 u^-1 a u^-1 a^-2>"


def test_twobridge_json(capsys):
    rep = run_json(capsys, "twobridge", "5", "3")
    r = rep["result"]
    assert r["abelianization"] == {"free_rank": 1, "torsion": []}
    assert r["text"].startswith("<u,v |")


def test_twobridge_arg_errors(capsys):
    assert run(capsys, "twobridge")[0] == 1  # nothing given
    assert run(capsys, "twobridge", "5")[0] == 1  # missing q
    assert run(capsys, "twobridge", "4", "1")[0] == 1  # even p
    assert run(capsys, "twobridge", "5", "10")[0] == 1  # q out of range
    assert run(capsys, "twobridge", "--family", "0")[0] == 1


# -- rs -----------------------------------------------------------------


def test_rs_json(capsys, dyadic_file):
    r = run_json(capsys, "rs", dyadic_file)["result"]
    assert r["symbols"] == ["a"]
    assert r["templates"] == ["a[i+1] a[i]^-2"]
    assert r["width"] == 1
    assert len(r["rows"]) == 1
    assert r["rows"][0]["symbol"] == "a"
    assert r["rows"][0]["polynomial"] == "t - 2"
    assert r["rows"][0]["coefficients"] == {"0": -2, "1": 1}


def test_rs_rejects_weighting_without_single_unit(capsys, tmp_path):
    f = tmp_path / "torus.txt"
    f.write_text("<x, y | x^2 y^-3>")
    code, _, err = run(capsys, "rs", str(f), "--chi", "x=3,y=2")
    assert code == 1


# -- reps ---------------------------------------------------------------


def test_reps_census(capsys, dyadic_file):
    r = run_json(capsys, "reps", dyadic_file, "--group", "Z3")["result"]
    assert r["group"] == "cyclic(3)"
    assert r["window"] == 1
    assert r["state_count"] == 3
    assert r["essential_count"] == 3
    assert r["census"] == {"classification": "Finite", "count": 3, "entropy": 0.0}
    assert "periodic" not in r


def test_reps_periodic(capsys, tmp_path):
    f = tmp_path / "fam1.txt"
    f.write_text("<u,a | u a u a^-1 u^-2 a^-1>")
    r = run_json(
        capsys, "reps", str(f), "--group", "Z2", "--max-period", "3"
    )["result"]
    assert len(r["periodic"]) == 4
    assert ["0", "0", "0"] in r["periodic"]


def test_reps_table_file(capsys, dyadic_file, tmp_path):
    tbl = tmp_path / "z3.txt"
    rows = ["3"] + [" ".join(str((i + j) % 3) for j in range(3)) for i in range(3)]
    tbl.write_text("\n".join(rows))
    r = run_json(capsys, "reps", dyadic_file, "--table", str(tbl))["result"]
    assert r["census"]["classification"] == "Finite"
    assert r["census"]["count"] == 3


def test_reps_rejects_non_associative_table(capsys, dyadic_file, tmp_path):
    tbl = tmp_path / "loop5.txt"
    tbl.write_text("5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n")
    code, out, err = run(capsys, "reps", dyadic_file, "--chi", "t=1,a=0", "--table", str(tbl), "--json")
    assert code == 1 and out == ""
    assert "not associative" in err


def test_reps_group_errors(capsys, dyadic_file):
    assert run(capsys, "reps", dyadic_file)[0] == 1  # no group
    assert run(capsys, "reps", dyadic_file, "--group", "Q8")[0] == 1
    assert run(capsys, "reps", dyadic_file, "--group", "Z100")[0] == 1
    assert run(capsys, "reps", dyadic_file, "--group", "S7")[0] == 1


@pytest.mark.parametrize("name", ["S\u00b2", "Z\u00b3", "S", "Zx"])
def test_reps_rejects_a_group_name_without_a_decimal_number(capsys, dyadic_file, name):
    code, out, err = run(capsys, "reps", dyadic_file, "--group", name)
    assert code == 1 and out == ""
    assert err == f"error: unknown group {name!r} (use S1..S6, Z1..Z64, or --table)\n"


def test_reps_accepts_the_trivial_symmetric_group(capsys, dyadic_file):
    r = run_json(capsys, "reps", dyadic_file, "--group", "S1")["result"]
    assert r["census"]["classification"] == "OnlyTrivial"


def test_reps_nocover_over_s6_is_only_trivial(capsys, tmp_path):
    # no proper subgroup of index <= 6 in the kernel of NOCOVER
    f = tmp_path / "nocover.pres"
    f.write_text("<t, a | t a^-2 t^-1 a^-1 t a^-1 t^-1 a t a t^-1 a^-1 t a t^-1 a>")
    r = run_json(capsys, "reps", str(f), "--chi", "t=1,a=0", "--group", "S6")["result"]
    assert r["census"]["classification"] == "OnlyTrivial"


FAMILY3_TEXT = "<u,a | u a^3 u a^-3 u^-1 a^2 u^-1 a^-3>"


def test_reps_s3_positive_entropy(capsys, tmp_path):
    f = tmp_path / "fam3.txt"
    f.write_text(FAMILY3_TEXT)
    r = run_json(capsys, "reps", str(f), "--group", "S3")["result"]
    assert r["census"]["classification"] == "PositiveEntropy"
    assert r["census"]["count"] is None
    assert r["census"]["entropy"] > 0.01


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-6"])
def test_reps_rejects_a_tol_that_is_not_finite_and_positive(capsys, tmp_path, tol):
    # PositiveEntropy, where the power iteration runs, and Finite, where it does not
    for text, chi, group in (FAMILY3_TEXT, "u=1,a=0", "S3"), (DYADIC_TEXT, "t=1,a=0", "Z7"):
        f = tmp_path / "input.txt"
        f.write_text(text)
        argv = "reps", str(f), "--chi", chi, "--group", group, f"--tol={tol}"
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", group
        assert "tol must be a finite positive number" in err, group


@pytest.mark.parametrize(
    "option", ["--max-period=0", "--max-period=-3", "--max-period=10000000", "--tol=nan", "--tol=0"]
)
def test_reps_checks_period_and_tol_before_building_the_graph(capsys, tmp_path, monkeypatch, option):
    # family(3) over S5 has 14,400 states; a bad argument fails before any is
    # built, and so does a period past the cap, 10^6 labels: the all-identity
    # walk alone has one label per step
    from cycover import repshift

    def no_build(*args):
        raise AssertionError("build_sft was reached")

    monkeypatch.setattr(repshift, "build_sft", no_build)
    f = tmp_path / "fam3.txt"
    f.write_text(FAMILY3_TEXT)
    code, out, err = run(capsys, "reps", str(f), "--chi", "u=1,a=0", "--group", "S5", option)
    assert code == 1 and out == ""
    if option == "--max-period=10000000":
        assert err == "error: CapExceeded: period 10000000 exceeds the cap of 1000000 labels\n"
    elif "period" in option:
        assert err == "error: ValueError: max_period must be >= 1\n"
    else:
        assert err.startswith("error: ValueError: tol must be a finite positive number, not ")


def test_reps_reports_an_unconverged_entropy_as_an_error(capsys, tmp_path, monkeypatch):
    from cycover import repshift

    monkeypatch.setattr(repshift, "ENTROPY_MAX_ITER", 1)
    f = tmp_path / "fam3.txt"
    f.write_text(FAMILY3_TEXT)
    code, out, err = run(capsys, "reps", str(f), "--chi", "u=1,a=0", "--group", "S3")
    assert code == 1 and out == ""
    assert err == "error: ArithmeticError: entropy iteration did not converge\n"


# -- recurrence ---------------------------------------------------------


def test_recurrence_yes(capsys):
    r = run_json(capsys, "recurrence", "1,-1,-1")["result"]
    assert r["polynomial"] == "t^2 - t - 1"
    assert r["answer"] is True
    assert r["witness"] == "t^2 - t - 1"


def test_recurrence_witness_window(capsys):
    r = run_json(capsys, "recurrence", "1,-1,-1", "--witness", "-5", "5")["result"]
    assert r["window"] == {
        "base": -5,
        "values": [5, -3, 2, -1, 1, 0, 1, 1, 2, 3, 5],
    }


def test_recurrence_witness_factors_once(monkeypatch, capsys):
    from cycover import recurrence

    calls = []
    real = recurrence.factor_over_Z
    monkeypatch.setattr(recurrence, "factor_over_Z", lambda *a: calls.append(a) or real(*a))
    r = run_json(capsys, "recurrence", "1,-1,-1", "--witness", "-5", "5")["result"]
    assert r["window"]["values"] == [5, -3, 2, -1, 1, 0, 1, 1, 2, 3, 5]
    assert len(calls) == 1


def test_recurrence_factor_witness(capsys):
    r = run_json(capsys, "recurrence", "1,-3,2")["result"]
    assert r["answer"] is True
    assert r["witness"] == "t - 1"


def test_recurrence_no(capsys):
    r = run_json(capsys, "recurrence", "1,-2")["result"]
    assert r["answer"] is False
    assert r["witness"] is None


def test_recurrence_errors(capsys):
    assert run(capsys, "recurrence", "1,-2", "--witness", "0", "3")[0] == 1
    assert run(capsys, "recurrence", "abc")[0] == 1
    assert run(capsys, "recurrence", "0,1")[0] == 1


def test_recurrence_domain_error_exits_1_in_process_and_fresh(capsys):
    # a ValueError that is not a ParseError keeps exit 1 and its type name
    message = "error: InvalidRecurrence: constant and leading coefficients must be nonzero\n"
    assert run(capsys, "recurrence", "0,1", "--json") == (1, "", message)
    proc = run_fresh("recurrence", "0,1", "--json")
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)


# -- report plumbing ----------------------------------------------------


def test_json_is_deterministic(capsys, dyadic_file):
    _, out_a, _ = run(capsys, "criteria", dyadic_file, "--json")
    _, out_b, _ = run(capsys, "criteria", dyadic_file, "--json")
    assert out_a == out_b


def test_digest_tracks_input(capsys, tmp_path):
    f1 = tmp_path / "a.txt"
    f2 = tmp_path / "b.txt"
    f1.write_text(DYADIC_TEXT)
    f2.write_text("<x, y | x y^2 x^-1 y^-3>")
    d1 = run_json(capsys, "parse", str(f1))["input_digest"]
    d2 = run_json(capsys, "parse", str(f2))["input_digest"]
    assert d1 != d2


@pytest.mark.parametrize(
    "text",
    ["", DYADIC_TEXT, "<σ, τ | σ τ σ^-1 τ^-2>", "<a | " + "a " * 500_000 + ">"],
    ids=["empty", "ascii", "non-ascii", "1MB"],
)
def test_digest_equals_hashlib_sha256(monkeypatch, text):
    import hashlib

    expected = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert _digest(text) == expected
    # with no builtin SHA-256 module, the digest comes from hashlib
    calls = []
    real = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert _digest(text) == expected
    assert len(calls) == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert cycover.__version__ in capsys.readouterr().out


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_module_entry_point():
    # the child finds the package where this process imported it from
    proc = run_fresh("recurrence", "1,-1,-1")
    assert proc.returncode == 0
    assert "yes" in proc.stdout


# Every call also loads the package root and the command line; every
# subcommand that reads a presentation loads words, and only those that
# handle Laurent polynomials load laurent and _numbers, with _intfactor only
# where they factor.
# No call loads dataclasses or inspect, which cost every process ~10 ms to
# import, nor hashlib (OpenSSL, for the input digest), fractions or decimal
# (3-5 ms each), unless something had loaded them before cycover (a site
# hook, say).
SHARED = {"cycover", "cycover.cli"}
LAURENT = {"laurent", "_numbers"}
SLOW = {"dataclasses", "inspect", "hashlib", "_hashlib", "fractions", "decimal"}


@pytest.mark.parametrize(
    "argv, own",
    [
        (["parse", "dyadic.txt"], {"words"}),
        (["twobridge", "5", "3"], {"twobridge", "words"}),
        (["criteria", "dyadic.txt"], {"alexander", "criteria", "words", "_intfactor"} | LAURENT),
        (["alex", "dyadic.txt"], {"alexander", "words", "_intfactor"} | LAURENT),
        (["reps", "dyadic.txt", "--group", "S3"], {"rscover", "repshift", "words"}),
        (["rs", "dyadic.txt"], {"rscover", "words"} | LAURENT),
        (["recurrence", "1,-1,-1"], {"recurrence", "_intfactor"} | LAURENT),
    ],
    ids=["parse", "twobridge", "criteria", "alex", "reps", "rs", "recurrence"],
)
def test_subcommand_imports_only_its_own_modules(tmp_path, argv, own):
    (tmp_path / "dyadic.txt").write_text(DYADIC_TEXT)
    probe = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from cycover.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'cycover'))\n"
        f"print(*sorted({SLOW!r} & (set(sys.modules) - before)))\n"
    )
    src = os.path.dirname(os.path.dirname(cycover.__file__))
    proc = subprocess.run(
        # --json: the report's input digest is the one load the text lacks
        [sys.executable, "-c", probe, *argv, "--json"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    ours, slow = proc.stdout.split("\n")[:2]
    code, *loaded = ours.split()
    assert code == "0", proc.stderr
    assert set(loaded) == SHARED | {f"cycover.{m}" for m in own}
    assert slow == ""
