"""Command-line front end.

Commands: parse, alex, criteria (alias analyze), twobridge, rs, reps,
recurrence.  Exit codes: 0 success, 1 domain error (valid input outside
an operation's domain), 2 parse/usage error.  With --json, output is a
stable Report object; identical inputs give byte-identical JSON.

Every call is a fresh process, so start-up is part of every answer.  Each
handler imports the modules it runs, so a call compiles only its own
subcommand.  Besides the package root and `cli`, which every call loads
(the package exports its names lazily), the subcommands compile:

    parse       words
    twobridge   twobridge, words
    alex        alexander, words, laurent, _intfactor, _numbers
    criteria    criteria, alexander, words, laurent, _intfactor, _numbers
    rs          rscover, words, laurent, _numbers (through RecurrenceRow.polynomial)
    reps        rscover, repshift, words
    recurrence  recurrence, laurent, _intfactor, _numbers

Every subcommand that factors compiles `_knapsack` too, but only for an
input whose polynomial leaves `_intfactor._KNAPSACK_MIN` or more
modular factors to recombine.  `laurent` imports `_intfactor` only inside
`factor_over_Z` and `exact_div`, so `rs`, which prints its rows'
polynomials but neither factors nor divides them, never compiles it.
`recurrence` reads no presentation, so it never compiles `words`; a
parse error is recognized in `main` by a `words` import made only once a
call has failed.  No call loads `hashlib` (OpenSSL) or `fractions`.

No module of the package imports `dataclasses`: it loads `inspect`, `ast`
and `dis` (about 10 ms), and each decorated class then costs about 1 ms to
generate its methods, in every process.  Records are plain classes with
`__slots__` and an explicit `__init__`, and `_to_json` walks their slots.

Input is read under Python's limit on the digits of an int converted from
or to a string; each handler lifts it (`_any_int_digits`) only while it
builds and prints its output.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional

from . import __version__

if TYPE_CHECKING:
    from .repshift import FiniteGroup
    from .words import Presentation


class DomainError(Exception):
    """Wraps a domain failure with the check that failed."""


def _digest(data: str) -> str:
    """The SHA-256 of the input, in hex.

    `hashlib` loads OpenSSL, 4-5 ms of every call that prints JSON; the
    interpreter's builtin SHA-256 (`_sha2` from Python 3.12, `_sha256`
    before it) gives the same digest and loads in under 1 ms.  `hashlib`
    serves a build that has neither.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data.encode("utf-8")).hexdigest()


@contextmanager
def _any_int_digits():
    """Lift Python's limit on the digits of an int turned into a string, for the block.

    A count such as r_p = p^d(p), a coefficient of delta or a window value
    can pass the default of 4,300 digits.  The limit (Python 3.10.7 and
    later) stays on everywhere else, input parsing included, and is
    restored on the way out.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _emit(args, command: str, source: str, result: dict, human: str) -> None:
    """Print the report; call it inside `_any_int_digits`, as the text is built."""
    if args.json:
        report = {
            "command": command,
            "input_digest": _digest(source),
            "version": __version__,
            "result": result,
        }
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(human)


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise DomainError(f"cannot read {path}: {e}")


def _load_presentation(path: str) -> tuple[Presentation, str]:
    from .words import parse_presentation

    text = _read_file(path)
    return parse_presentation(text), text


def _resolve_chi(p: Presentation, chi_arg: Optional[str]) -> dict[str, int]:
    from .words import validate_weighting

    if chi_arg is None:
        try:
            return p.canonical_weighting()
        except ValueError as e:
            raise DomainError(f"weighting: {e} (supply one with --chi)")
    chi = {}
    for part in chi_arg.split(","):
        if "=" not in part:
            raise DomainError(f"bad --chi entry {part!r}, expected gen=int")
        name, _, val = part.partition("=")
        name = name.strip()
        try:
            value = int(val)
        except ValueError:
            raise DomainError(f"bad --chi value {val!r}")
        if name not in p.generators:
            raise DomainError(f"bad --chi entry {part!r}: {name!r} is not a generator")
        if name in chi:
            raise DomainError(f"bad --chi entry {part!r}: {name!r} is named twice")
        chi[name] = value
    try:
        validate_weighting(p, chi)
    except ValueError as e:
        raise DomainError(f"weighting: {e}")
    return chi


def _parse_primes(arg: Optional[str]):
    from .alexander import DEFAULT_PRIMES

    if arg is None:
        return DEFAULT_PRIMES
    try:
        # a repeated prime is reduced and reported once, where first named
        return tuple(dict.fromkeys(int(x) for x in arg.split(",")))
    except ValueError:
        raise DomainError(f"bad --primes list {arg!r}")


def _to_json(x):
    """A result value as JSON data.

    A record (a class with `__slots__`, such as `CoverReport`) becomes the
    dict of its slots, a tuple or list a list, a `LaurentPoly` its text and
    `INFINITE` the string "infinite"; anything else is returned as it is.
    """
    from .laurent import INFINITE, LaurentPoly

    if isinstance(x, LaurentPoly):
        return str(x)
    if isinstance(x, (tuple, list)):
        return [_to_json(v) for v in x]
    if x is INFINITE:
        return "infinite"
    slots = getattr(type(x), "__slots__", None)
    if slots is not None:
        return {name: _to_json(getattr(x, name)) for name in slots}
    return x


def _presentation_json(p: Presentation) -> dict:
    out = p.to_json_dict()
    out["text"] = p.to_text()
    free_rank, torsion = p.abelianization_invariants()
    out["abelianization"] = {"free_rank": free_rank, "torsion": list(torsion)}
    return out


# -- subcommand handlers ------------------------------------------------


def _cmd_parse(args) -> None:
    p, text = _load_presentation(args.file)
    with _any_int_digits():
        result = _presentation_json(p)
        try:
            result["weighting"] = p.canonical_weighting()
        except ValueError:
            result["weighting"] = None
        human = [p.to_text()]
        human.append(f"abelianization: free rank {result['abelianization']['free_rank']}, "
                     f"torsion {result['abelianization']['torsion']}")
        if result["weighting"] is not None:
            human.append("weighting: " + ", ".join(
                f"{g}={v}" for g, v in result["weighting"].items()))
        _emit(args, "parse", text, result, "\n".join(human))


def _cmd_alex(args) -> None:
    from .alexander import alexander_polynomial, mod_p_table

    p, text = _load_presentation(args.file)
    chi = _resolve_chi(p, args.chi)
    primes = _parse_primes(args.primes)
    res = alexander_polynomial(p, chi)
    table = mod_p_table(res.delta, primes)
    with _any_int_digits():
        result = {
            "delta": str(res.delta),
            "deleted_column": res.deleted_column,
            "mod_p": {
                str(q): {"poly": str(m), "d": _to_json(d)} for q, (m, d) in table.items()
            },
        }
        human = [f"delta: {res.delta}", f"deleted column: {res.deleted_column}"]
        for q, (m, d) in table.items():
            human.append(f"mod {q}: {m}   d({q}) = {_to_json(d)}")
        _emit(args, "alex", text, result, "\n".join(human))


def _criteria_text(rep) -> str:
    human = [f"delta: {rep.delta}", f"beta1_Q: {_to_json(rep.beta1_Q)}"]
    for rec in rep.primes:
        cls = rec.classification
        desc = cls.kind if cls.count is None else f"{cls.kind}({cls.count})"
        human.append(f"p={rec.p}: d={_to_json(rec.d)} r={rec.r} n={rec.n} [{desc}]")
    human.append(f"index 2 subgroups: {'yes' if rep.index2 else 'no'}")
    sv = rep.surjects
    if sv.free_rank:
        human.append("surjects onto Z: yes (free rank witness)")
    elif sv.answer:
        human.append(f"surjects onto Z: yes (witness {sv.witness})")
    else:
        human.append("surjects onto Z: no")
    human.append(f"large flag: {rep.large_flag}")
    human.append(f"kernel finitely generated: {rep.kernel_fg}")
    kv = rep.kervaire
    human.append(
        "knot-group checks: "
        f"H1=Z {kv.h1_is_Z}, deficiency 1 {kv.deficiency_one}, "
        f"weight witness {kv.weight_one_witness or 'unknown'}, "
        f"H2=0 inferred {kv.h2_zero_inferred}"
    )
    return "\n".join(human)


def _cmd_criteria(args) -> None:
    from .criteria import analyze

    p, text = _load_presentation(args.file)
    chi = _resolve_chi(p, args.chi)
    primes = _parse_primes(args.primes)
    rep = analyze(p, chi, primes=primes)
    with _any_int_digits():
        result = _to_json(rep)
        result["surjects_to_Z"] = result.pop("surjects")
        _emit(args, "criteria", text, result, _criteria_text(rep))


def _cmd_twobridge(args) -> None:
    from .twobridge import TwoBridgeParams, family_presentation, presentation

    if args.family is not None:
        p = family_presentation(args.family)
        source = f"family:{args.family}"
    else:
        if args.p is None or args.q is None:
            raise DomainError("need P and Q, or --family N")
        p = presentation(TwoBridgeParams(args.p, args.q))
        source = f"{args.p}/{args.q}"
    with _any_int_digits():
        _emit(args, "twobridge", source, _presentation_json(p), p.to_text())


def _cmd_rs(args) -> None:
    from .rscover import abelianized_recurrence, reidemeister_schreier

    p, text = _load_presentation(args.file)
    chi = _resolve_chi(p, args.chi)
    sp = reidemeister_schreier(p, chi)
    rows = abelianized_recurrence(sp)
    with _any_int_digits():
        templates = sp.template_texts()
        polys = [str(r.polynomial()) for r in rows]
        result = {
            "symbols": list(sp.symbols),
            "templates": templates,
            "width": sp.width,
            "rows": [
                {
                    "symbol": r.symbol,
                    "coefficients": {str(o): c for o, c in r.coefficients},
                    "polynomial": poly,
                }
                for r, poly in zip(rows, polys)
            ],
        }
        human = [f"symbols: {', '.join(sp.symbols)}", f"width: {sp.width}"]
        human += (f"template: {tpl_text}" for tpl_text in templates)
        human += (f"row[{r.symbol}]: {poly}" for r, poly in zip(rows, polys))
        _emit(args, "rs", text, result, "\n".join(human))


def _group_from_args(args) -> FiniteGroup:
    from .repshift import MAX_CYCLIC_ORDER, MAX_SYMMETRIC_DEGREE, FiniteGroup

    if args.table is not None:
        return FiniteGroup.from_table(_read_file(args.table), name=args.table)
    name = args.group
    if name is None:
        raise DomainError("need --group NAME or --table FILE")
    if name.upper().startswith("S") and name[1:].isdecimal():
        return FiniteGroup.symmetric(int(name[1:]))
    if name.upper().startswith("Z") and name[1:].isdecimal():
        return FiniteGroup.cyclic(int(name[1:]))
    bounds = f"S1..S{MAX_SYMMETRIC_DEGREE}, Z1..Z{MAX_CYCLIC_ORDER}"
    raise DomainError(f"unknown group {name!r} (use {bounds}, or --table)")


def _cmd_reps(args) -> None:
    from .repshift import build_sft, census, check_max_period, check_tol, enumerate_periodic
    from .rscover import reidemeister_schreier

    p, text = _load_presentation(args.file)
    chi = _resolve_chi(p, args.chi)
    F = _group_from_args(args)
    sp = reidemeister_schreier(p, chi)
    # fail before the graph is built, not after it
    check_tol(args.tol)
    if args.max_period is not None:
        check_max_period(args.max_period)
    graph = build_sft(sp, F)
    c = census(graph, tol=args.tol)
    labelings = None if args.max_period is None else enumerate_periodic(graph, args.max_period)
    with _any_int_digits():
        result = {
            "group": F.name,
            "window": graph.window,
            "state_count": c.state_count,
            "essential_count": c.essential_count,
            "census": {
                "classification": c.classification,
                "count": c.count,
                "entropy": c.entropy,
            },
        }
        human = [
            f"group: {F.name}",
            f"window: {graph.window}  states: {c.state_count}  essential: {c.essential_count}",
            f"census: {c.classification}"
            + (f" count={c.count}" if c.count is not None else "")
            + (f" entropy={c.entropy:.6f}" if c.classification == "PositiveEntropy" else ""),
        ]
        if labelings is not None:
            result["periodic"] = [list(t) for t in labelings]
            human.append(f"periodic labelings (period {args.max_period}): {len(labelings)}")
            for t in labelings[:20]:
                human.append("  " + " ".join(t))
            if len(labelings) > 20:
                human.append(f"  ... {len(labelings) - 20} more")
        _emit(args, "reps", text, result, "\n".join(human))


def _cmd_recurrence(args) -> None:
    from .recurrence import AuxPolynomial, has_integer_biinfinite, witness_window

    try:
        desc = [int(x) for x in args.coeffs.split(",")]
    except ValueError:
        raise DomainError(f"bad coefficient list {args.coeffs!r}")
    f = AuxPolynomial.from_desc(desc)
    answer, witness = has_integer_biinfinite(f)
    w = None if args.witness is None else witness_window(f, witness, *args.witness)
    with _any_int_digits():
        result = {
            "polynomial": str(f),
            "answer": answer,
            "witness": None if witness is None else str(witness),
        }
        human = [f"polynomial: {f}"]
        if answer:
            human.append(f"integer biinfinite solution: yes (witness factor {witness})")
        else:
            human.append("integer biinfinite solution: no")
        if w is not None:
            result["window"] = {"base": w.base, "values": [int(v) for v in w.values]}
            human.append(f"window [{w.base}, {w.hi}]: {list(w.values)}")
        _emit(args, "recurrence", args.coeffs, result, "\n".join(human))


# -- argument parsing ---------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cycover",
        description="Finite-index structure of the kernel of a weighting onto Z.",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="emit a JSON report")

    def with_chi(sp):
        sp.add_argument("--chi", metavar="g=1,h=0", help="override the weighting")

    p_parse = sub.add_parser("parse", help="parse and echo a presentation")
    p_parse.add_argument("file")
    common(p_parse)

    p_alex = sub.add_parser("alex", help="Alexander polynomial and mod-p table")
    p_alex.add_argument("file")
    with_chi(p_alex)
    p_alex.add_argument("--primes", metavar="2,3,5,7")
    common(p_alex)

    for name in ("criteria", "analyze"):
        p_cr = sub.add_parser(name, help="full cover report")
        p_cr.add_argument("file")
        with_chi(p_cr)
        p_cr.add_argument("--primes", metavar="2,3,5,7")
        common(p_cr)

    p_tb = sub.add_parser("twobridge", help="two-bridge presentations")
    p_tb.add_argument("p", nargs="?", type=int, default=None)
    p_tb.add_argument("q", nargs="?", type=int, default=None)
    p_tb.add_argument("--family", type=int, metavar="N")
    common(p_tb)

    p_rs = sub.add_parser("rs", help="kernel shift presentation")
    p_rs.add_argument("file")
    with_chi(p_rs)
    common(p_rs)

    p_reps = sub.add_parser("reps", help="representation shift census")
    p_reps.add_argument("file")
    with_chi(p_reps)
    p_reps.add_argument("--group", metavar="S3|Z2|...")
    p_reps.add_argument("--table", metavar="FILE")
    p_reps.add_argument(
        "--max-period", type=int, nargs="?", const=12, default=None, metavar="N"
    )
    p_reps.add_argument("--tol", type=float, default=1e-6)
    common(p_reps)

    p_rec = sub.add_parser("recurrence", help="integer biinfinite solutions")
    p_rec.add_argument("coeffs", metavar="a_d,...,a_0")
    p_rec.add_argument("--witness", nargs=2, type=int, metavar=("LO", "HI"))
    common(p_rec)

    return top


_HANDLERS = {
    "parse": _cmd_parse,
    "alex": _cmd_alex,
    "criteria": _cmd_criteria,
    "analyze": _cmd_criteria,
    "twobridge": _cmd_twobridge,
    "rs": _cmd_rs,
    "reps": _cmd_reps,
    "recurrence": _cmd_recurrence,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _HANDLERS[args.command](args)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as e:
        # a ParseError is a ValueError; only a failing call loads words for it
        from .words import ParseError

        if isinstance(e, ParseError):
            print(f"parse error: {e}", file=sys.stderr)
            return 2
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
