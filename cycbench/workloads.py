"""The three workloads: their inputs, operations and checks.

Each ``build_<workload>(m, seed, cli)`` returns the list of operations of one
pass.  ``m`` holds freshly imported cycover modules; operations call through
module attributes (``m.criteria.analyze``) so that the tracer's rebinding is
seen.  Inputs that do not depend on the seed are fixed here; seeded inputs
come from ``random.Random(seed)`` streams, one per input family, so that a
seed gives the same inputs on every machine.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import math
import os
import random
from fractions import Fraction
from types import SimpleNamespace

import checks
from harness import HEAVY_DEADLINE_S, Op

ROOT = checks.ROOT

SMITH_FAULT = "words.smith_diagonal: pivot-row entries grow without bound on some 10-generator exponent matrices"
NAME_FAULT = "repshift.build_sft: takes the cyclic path for any group whose name starts with 'cyclic('"

# 10-generator presentations with relators of length 30 whose exponent
# matrices make smith_diagonal blow up: random_presentation(Random(s), 10, 30)
# for these s.  Found by running the program; they do not depend on --seed.
SMITH_BLOWUP_SEEDS = (35,)
# Two-bridge knots (p, q) with large p, beside the torus knots T(2, p).
LARGE_TWO_BRIDGE = ((1001, 3), (401, 3), (601, 5), (501, 7), (301, 5), (201, 17), (97, 41))
# Generic presentations of 4..10 generators that complete, same generator.
GENERIC_SEEDS = {4: 1, 5: 2, 6: 3, 7: 4, 8: 5, 9: 6, 10: 7}
# Light criteria inputs that run once a pass, not in every round: each takes
# 0.18 s or more, well above op_p90_ms, so further samples of them would only
# lengthen the run (by 2.3 s a round).
ONCE_A_PASS = {"torus-2-91", "torus-2-93", "torus-2-151", "torus-2-281", "twobridge-401-3", "twobridge-601-5",
               "twobridge-501-7", "generic-n10"}


def load_cycover():
    """Import the cycover modules the workloads use, into one namespace."""
    import importlib

    names = ("words", "laurent", "alexander", "criteria", "twobridge", "rscover", "repshift", "recurrence", "cli")
    return SimpleNamespace(**{n: importlib.import_module("cycover." + n) for n in names})


def load_corpus():
    path = os.path.join(ROOT, "tests", "corpus.py")
    spec = importlib.util.spec_from_file_location("cycbench_tests_corpus", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _stream(seed: int, family: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{family}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _sample_rng(name: str) -> random.Random:
    return random.Random(int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big"))


# -- input generators -------------------------------------------------------


def random_presentation(rng: random.Random, n: int, length: int) -> str:
    """Deficiency-one presentation on t, a1..a(n-1) with random relators.

    Each relator has `length` letters, a t-step of -1, 0 or +1 in about
    40% of the places, and closes with the t-power that makes its weight 0.
    """
    gens = ["t"] + [f"a{i}" for i in range(1, n)]
    rels = []
    for _ in range(n - 1):
        word, tsum = [], 0
        for _ in range(length):
            if rng.random() < 0.4:
                e = rng.choice((1, -1))
                word.append(("t", e))
                tsum += e
            else:
                word.append((rng.choice(gens[1:]), rng.choice((1, -1))))
        word.append(("t", -tsum))
        rels.append(_word_text(word))
    return "<" + ",".join(gens) + " | " + ", ".join(rels) + ">"


def knotlike_presentation(rng: random.Random, n: int, length: int = 12, height: int = 3) -> str:
    """Deficiency-one presentation on t, a1..a(n-1) with H_1 = Z.

    Relator i has exponent sum 1 in a_i and 0 in every other generator
    (t included), so the exponent matrix is [0 | I] and the weighting t = 1,
    a_j = 0 is onto Z.  The seed picks the a-letters and their order; the
    t-height walk of relator i is fixed by (n, i) and stays in
    [-height, height], which keeps the degree of the Alexander polynomial,
    and the cost of analyzing it, in a narrow band for every seed.
    """
    gens = [f"a{j}" for j in range(1, n)]
    rels = []
    for i in range(n - 1):
        walk = random.Random(1000 * n + i)
        letters = [(rng.randrange(n - 1), rng.choice((1, -1))) for _ in range(length)]
        sums = [0] * (n - 1)
        for j, e in letters:
            sums[j] += e
        for j in range(n - 1):
            need = (1 if j == i else 0) - sums[j]
            letters += [(j, 1 if need > 0 else -1)] * abs(need)
        rng.shuffle(letters)
        word, h = [], 0
        for j, e in letters:
            nh = max(-height, min(height, h + walk.choice((-1, 0, 1))))
            word.append(("t", nh - h))
            word.append((gens[j], e))
            h = nh
        word.append(("t", -h))
        rels.append(_word_text(word))
    return "<t," + ",".join(gens) + " | " + ", ".join(rels) + ">"


def _word_text(word) -> str:
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in word if e) or "1"


def stencil_presentation(coeffs) -> str:
    """<t, a | prod_k t^k a^(c_k) t^-k>: one template a[i+k]^(c_k), k ascending."""
    parts = []
    for k, c in enumerate(coeffs):
        if c:
            parts.append(_word_text([("t", k), ("a", c), ("t", -k)]))
    return "<t, a | " + " ".join(parts) + ">"


def two_bridge_word(p: int, q: int):
    """Syllables of u w v^-1 w^-1, w = v^e1 u^e2 ..., e_i = (-1)^floor(iq/p)."""
    w = []
    for i in range(1, p):
        w.append(("v" if i % 2 else "u", (-1) ** ((i * q) // p)))
    inv = [(g, -e) for g, e in reversed(w)]
    return _free_reduce([("u", 1)] + w + [("v", -1)] + inv)


def _free_reduce(syl):
    out = []
    for g, e in syl:
        if out and out[-1][0] == g:
            e += out.pop()[1]
        if e:
            out.append((g, e))
    return out


def _cyclic_reduce(syl):
    syl = _free_reduce(syl)
    while len(syl) > 1 and syl[0][0] == syl[-1][0]:
        g = syl[0][0]
        merged = syl[0][1] + syl[-1][1]
        syl = syl[1:-1]
        syl = _free_reduce(([(g, merged)] if merged else []) + syl)
    return syl


def own_template(relator, stable: str):
    """Reidemeister-Schreier template of one relator, by t-height."""
    h, out = 0, []
    for g, e in relator:
        if g == stable:
            h += e
            continue
        if out and out[-1][0] == g and out[-1][1] == h:
            e += out.pop()[2]
        if e:
            out.append((g, h, e))
    if not out:
        return ()
    base = min(o for _, o, _ in out)
    return tuple((g, o - base, e) for g, o, e in out)


def fox_poly(relator, gen: str, chi) -> dict:
    """Abelianized Fox derivative of a relator as {exponent: coefficient}."""
    out: dict = {}
    h = 0
    for g, e in relator:
        step = 1 if e > 0 else -1
        for _ in range(abs(e)):
            if step < 0:
                h -= chi[g]
            if g == gen:
                out[h] = out.get(h, 0) + step
            if step > 0:
                h += chi[g]
    return {k: v for k, v in out.items() if v}


def dense_of(poly: dict):
    lo, hi = min(poly), max(poly)
    return [poly.get(e, 0) for e in range(lo, hi + 1)]


def poly_text(coeffs) -> str:
    """The program's documented text form, e.g. '2t^2 - 5t + 2'."""
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        t = "" if e == 0 else ("t" if e == 1 else f"t^{e}")
        mag = abs(c)
        body = str(mag) if not t else (t if mag == 1 else f"{mag}{t}")
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return text + "".join(f" {s} {b}" for s, b in terms[1:])


# -- shared check pieces ------------------------------------------------------


def _not_raised(kept):
    if isinstance(kept, Exception):
        return f"raised {type(kept).__name__}: {kept}"
    return None


def _write(work: str, name: str, text: str) -> str:
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


def cli_op(name, argv, command, source, cli, expect):
    """An operation that runs the CLI; ``expect(result)`` checks the result field."""

    def check(raw):
        err = _not_raised(raw) or checks.check_cli_json(raw, command, source)
        if err:
            return err
        err = expect(json.loads(raw)["result"])
        if err:
            return err
        if cli.run(argv, 30.0) != raw:
            return "two identical calls gave different bytes"
        return None

    return Op(name=name, call=None, check=check, summary=lambda raw: raw, cli=argv)


# -- criteria -------------------------------------------------------------------


def _analyze_keep(rep):
    dense = rep.delta.dense()
    return SimpleNamespace(
        delta_low=rep.delta.low() if dense else 0,
        delta=tuple(dense),
        primes=[
            (r.p, None if r.r is None else r.d, r.r, r.n, r.classification.kind, r.classification.count)
            for r in rep.primes
        ],
        index2=rep.index2,
        answer=rep.surjects.answer,
        witness=None if rep.surjects.witness is None else tuple(rep.surjects.witness.dense()),
        large=rep.large_flag,
        fg=rep.kernel_fg,
        kervaire=(
            rep.kervaire.h1_is_Z,
            rep.kervaire.deficiency_one,
            rep.kervaire.weight_one_witness,
            rep.kervaire.h2_zero_inferred,
        ),
    )


def _analyze_summary(rep):
    return (str(rep.delta), rep.index2, rep.surjects.answer, rep.large_flag, rep.kernel_fg)


class CriteriaInput:
    """A presentation with its weighting, as data the checks can read."""

    def __init__(self, name, pres, chi, torus_p=None):
        self.name = name
        self.pres = pres
        self.chi = dict(chi)
        self.generators = tuple(pres.generators)
        self.relators = [tuple(r.syllables) for r in pres.relators]
        self.torus_p = torus_p


def check_analyze(inp: CriteriaInput, kept, stored, rank_degree=24):
    err = _not_raised(kept)
    if err:
        return err
    units = [g for g in inp.generators if abs(inp.chi[g]) == 1]
    delta = list(kept.delta)
    err = checks.check_delta(kept.delta_low, delta, inp.generators, inp.relators, inp.chi, units[0])
    if err:
        return err
    if not delta:
        return "Delta is 0 on a deficiency-one input"
    # Counts of maps to Z/p and subgroups of index p.
    large = False
    for p, d, r, n, kind, count in kept.primes:
        span = checks.span_mod_p(delta, p)
        if span is None:
            large = True
            if (r, n, kind) != (None, None, "infinite"):
                return f"p={p}: Delta vanishes mod p but r={r} kind={kind}"
            continue
        want_r = p**span
        if len(delta) - 1 <= rank_degree:
            rc = checks.rank_count(delta, p)
            if rc != want_r:
                return f"p={p}: rank count {rc} disagrees with p^span {want_r}"
        if (d, r, n) != (span, want_r, (want_r - 1) // (p - 1)):
            return f"p={p}: d, r, n = {d}, {r}, {n}; expected {span}, {want_r}"
        want_kind = "none" if span == 0 else "finite"
        if kind != want_kind or (kind == "finite" and count != n):
            return f"p={p}: classified {kind}({count})"
    span2 = checks.span_mod_p(delta, 2)
    if kept.index2 != (span2 is None or span2 > 0):
        return f"index2 {kept.index2} but the mod-2 span is {span2}"
    if kept.large != large:
        return f"large flag {kept.large}"
    # Factors: cyclotomic for T(2,p), stored for large inputs, sympy otherwise.
    if inp.torus_p is not None:
        p = inp.torus_p
        factors = [(checks.cyclotomic(2 * d), 1) for d in range(2, p + 1) if p % d == 0]
        prod = [1]
        for f, _ in factors:
            prod = checks.pmul(prod, list(f))
        if checks.canonical(delta) != checks.canonical(prod):
            return f"Delta of T(2,{p}) is not the product of Phi_2d over d | {p}"
    elif len(delta) - 1 > 120:
        factors = stored.get(checks.poly_key(delta))
        if factors is None:
            return "no stored factorization for this Delta (run cycbench/regen.py)"
    else:
        factors = checks.sympy_factors(delta)
    err = checks.check_surjection(kept.answer, kept.witness or (), factors)
    if err:
        return err
    # Finite generation of the kernel (Brown), two generators, one relator.
    if len(inp.relators) == 1 and len(inp.generators) == 2:
        heights, h = [], 0
        for g, e in inp.relators[0]:
            for _ in range(abs(e)):
                heights.append(h)
                h += (1 if e > 0 else -1) * inp.chi[g]
        top = heights.count(max(heights)) == 1
        bot = heights.count(min(heights)) == 1
        fg = "FG" if top and bot else ("OneSided" if top or bot else "NotFG")
    else:
        fg = "Inapplicable"
    if kept.fg != fg:
        return f"kernel_fg {kept.fg}, expected {fg}"
    h1 = _h1_is_z(inp)
    if kept.kervaire[0] != h1:
        return f"h1_is_Z {kept.kervaire[0]}, expected {h1}"
    return None


def _h1_is_z(inp: CriteriaInput) -> bool:
    """H_1 = Z iff the (n-1)-minors of the exponent matrix have gcd 1."""
    n = len(inp.generators)
    rows = [[sum(e for g2, e in rel if g2 == g) for g in inp.generators] for rel in inp.relators]
    if len(rows) != n - 1:
        return False
    g = 0
    for drop in range(n):
        minor = [[Fraction(x) for j, x in enumerate(r) if j != drop] for r in rows]
        g = math.gcd(g, int(checks.fraction_det(minor)))
    return g == 1


def build_criteria(m, seed: int, cli, work: str):
    corpus = load_corpus()
    stored = checks.stored_factors()
    inputs = []
    for name, pres, chi in corpus.knotlike_corpus():
        inputs.append(("corpus-" + name, CriteriaInput(name, pres, chi), None))

    tb = m.twobridge
    sweep = list(range(3, 100, 2)) + [101, 131, 151, 181, 211, 281, 301]
    for p in sweep:
        pres = tb.presentation(tb.TwoBridgeParams(p, 1))
        heavy = p == 301
        inputs.append((f"torus-2-{p}", CriteriaInput(f"T(2,{p})", pres, {"u": 1, "v": 1}, torus_p=p), heavy))
    for p, q in LARGE_TWO_BRIDGE:
        pres = tb.presentation(tb.TwoBridgeParams(p, q))
        inputs.append((f"twobridge-{p}-{q}", CriteriaInput(f"({p},{q})", pres, {"u": 1, "v": 1}), p == 1001))

    texts = []
    for n, s in GENERIC_SEEDS.items():
        texts.append((f"generic-n{n}", random_presentation(random.Random(s), n, 30), None))
    rng = _stream(seed, "knotlike")
    for n in range(4, 11):
        for i in range(3):
            texts.append((f"knotlike-n{n}-{i}", knotlike_presentation(rng, n), None))
    for s in SMITH_BLOWUP_SEEDS:
        texts.append((f"smith-blowup-{s}", random_presentation(random.Random(s), 10, 30), SMITH_FAULT))
    parsed = []
    for name, text, fault in texts:
        pres = m.words.parse_presentation(text)
        chi = {g: int(g == "t") for g in pres.generators}
        parsed.append((name, CriteriaInput(name, pres, chi), fault))

    ops = []
    for name, inp, heavy in inputs:
        ops.append(_analyze_op(m, name, inp, stored, deadline=HEAVY_DEADLINE_S if heavy else None))
    for name, inp, fault in parsed:
        op = _analyze_op(m, name, inp, stored)
        op.known_fault = fault
        ops.append(op)
    for op in ops:
        op.repeat = op.name not in ONCE_A_PASS

    # The same questions through the command line.
    dy = corpus.DYADIC
    nocover = corpus.NOCOVER
    files = {
        "dyadic.pres": dy.to_text(),
        "nocover.pres": nocover.to_text(),
        "trefoil.pres": tb.presentation(tb.TwoBridgeParams(3, 1)).to_text(),
    }
    for fname, text in files.items():
        _write(work, fname, text)

    def expect_delta(pres, chi):
        deleted = next(g for g in pres.generators if abs(chi[g]) == 1)
        col = next(g for g in pres.generators if g != deleted)
        rel = tuple(pres.relators[0].syllables)
        want = poly_text(list(checks.canonical(dense_of(fox_poly(rel, col, chi)))))

        def expect(result):
            return None if result["delta"] == want else f"delta {result['delta']!r}, expected {want!r}"

        return expect

    def expect_twobridge(result):
        want = [[g, e] for g, e in _cyclic_reduce(two_bridge_word(5, 3))]
        return None if result["relators"] == [want] else f"relators {result['relators']}"

    ops.append(cli_op("cli-twobridge-5-3", ["twobridge", "5", "3", "--json"], "twobridge", "5/3", cli, expect_twobridge))
    ops.append(cli_op("cli-criteria-dyadic", ["criteria", "dyadic.pres", "--json"], "criteria", files["dyadic.pres"], cli, expect_delta(dy, {"t": 1, "a": 0})))
    ops.append(cli_op("cli-criteria-nocover", ["criteria", "nocover.pres", "--json"], "criteria", files["nocover.pres"], cli, expect_delta(nocover, {"t": 1, "a": 0})))
    trefoil = tb.presentation(tb.TwoBridgeParams(3, 1))
    ops.append(cli_op("cli-alex-trefoil", ["alex", "trefoil.pres", "--json"], "alex", files["trefoil.pres"], cli, expect_delta(trefoil, {"u": 1, "v": 1})))
    return ops


def _analyze_op(m, name, inp: CriteriaInput, stored, deadline=None):
    if name == "corpus-torus23":
        # Both weights exceed 1 in absolute value: no column can be deleted.
        def check(kept):
            if isinstance(kept, Exception) and type(kept).__name__ == "NoUnitWeightGenerator":
                return None
            return f"expected NoUnitWeightGenerator, got {kept!r}"

        keep = lambda rep: rep
    else:
        check = lambda kept, inp=inp: check_analyze(inp, kept, stored)
        keep = _analyze_keep
    op = Op(
        name=name,
        call=lambda ctx, p=inp.pres, chi=inp.chi: m.criteria.analyze(p, chi),
        check=check,
        keep=keep,
        summary=_analyze_summary,
    )
    if deadline:
        op.deadline = deadline
    return op


# -- graphs: kept data and checks ------------------------------------------------


class GraphData(SimpleNamespace):
    """What the checks need of an SftGraph: edges as arrays, essential flags."""


def keep_graph(g):
    import numpy as np

    counts = np.fromiter((len(t) for t in g.successors), dtype=np.int64, count=g.state_count)
    dst = np.fromiter((x for t in g.successors for x in t), dtype=np.int64, count=int(counts.sum()))
    src = np.repeat(np.arange(g.state_count, dtype=np.int64), counts)
    return GraphData(
        order=g.group.order,
        window=g.window,
        n=g.state_count,
        src=src,
        dst=dst,
        essential=np.fromiter(g.essential, dtype=bool, count=g.state_count),
    )


def own_essential(n, src, dst):
    """Drop states without a successor or a predecessor until none is left."""
    import numpy as np

    alive = np.ones(n, dtype=bool)
    while True:
        live = alive[src] & alive[dst]
        out_deg = np.bincount(src[live], minlength=n)
        in_deg = np.bincount(dst[live], minlength=n)
        nxt = alive & (out_deg > 0) & (in_deg > 0)
        if (nxt == alive).all():
            return alive
        alive = nxt


def essential_edges(gd):
    """Edges among essential states, renumbered 0..k-1."""
    import numpy as np

    ess = gd.essential
    index = np.cumsum(ess) - 1
    live = ess[gd.src] & ess[gd.dst]
    return int(ess.sum()), index[gd.src[live]], index[gd.dst[live]]


class GroupModel:
    """The benchmark's own arithmetic for the groups it uses."""

    def __init__(self, kind: str, order: int):
        self.kind, self.order = kind, order
        if kind == "symmetric":
            k = {1: 1, 2: 2, 6: 3, 24: 4, 120: 5}[order]
            self.elements = checks.symmetric_elements(k)
            self.identity = tuple(range(k))
            self.mul = checks.compose
            self.power = checks.perm_power
        elif kind == "cyclic":
            self.elements = list(range(order))
            self.identity = 0
            self.mul = lambda a, b: (a + b) % order
            self.power = lambda a, e: (a * e) % order
        else:  # klein: elements 0..3 as bit pairs
            self.elements = [0, 1, 2, 3]
            self.identity = 0
            self.mul = lambda a, b: a ^ b
            self.power = lambda a, e: a if e % 2 else 0


def check_graph(gd, templates, model: GroupModel, samples: int, name: str):
    """State count, sampled successor lists and the essential set."""
    import numpy as np

    width = max(max((o for t in templates for o, _ in t), default=0), 1)
    if gd.n != model.order**width:
        return f"{gd.n} states, expected {model.order}^{width}"
    rng = _sample_rng(name)
    order = np.argsort(gd.src, kind="stable")
    starts = np.searchsorted(gd.src[order], np.arange(gd.n + 1))
    for s in [rng.randrange(gd.n) for _ in range(samples)]:
        got = sorted(int(x) for x in gd.dst[order[starts[s] : starts[s + 1]]])
        want = checks.expected_successors(
            s, templates, width, model.order, model.elements, model.mul, model.power, model.identity
        )
        if got != sorted(want):
            return f"state {s}: successors {got[:6]}, expected {sorted(want)[:6]}"
    ess = own_essential(gd.n, gd.src, gd.dst)
    if not (ess == gd.essential).all():
        return f"{int(gd.essential.sum())} essential states, expected {int(ess.sum())}"
    return None


def expected_census(gd):
    """(classification, count, entropy) of the essential graph."""
    import numpy as np

    k, src, dst = essential_edges(gd)
    if k == 1:
        return "OnlyTrivial", 1, 0.0
    out_deg = np.bincount(src, minlength=k)
    in_deg = np.bincount(dst, minlength=k)
    if (out_deg == 1).all() and (in_deg == 1).all():
        return "Finite", k, 0.0
    h = checks.perron_entropy(k, src, dst)
    if h < 1e-9:
        return "InfiniteZeroEntropy", None, 0.0
    return "PositiveEntropy", None, h


ENTROPY_TOL = 1e-3


def check_census(c, gd):
    err = _not_raised(c)
    if err:
        return err
    kind, count, h = expected_census(gd)
    if (c.state_count, c.essential_count) != (gd.n, int(gd.essential.sum())):
        return f"census counts {c.state_count}/{c.essential_count}"
    if c.classification != kind or c.count != count:
        return f"census {c.classification}({c.count}), expected {kind}({count})"
    if abs(c.entropy - h) > ENTROPY_TOL:
        return f"entropy {c.entropy:.6f}, numpy Perron root gives {h:.6f}"
    return None


def _graph_ops(m, tag, rs_name, gname, group, model, templates, samples, period, heavy=False):
    """build_sft, census, entropy and (optionally) enumerate_periodic on one graph."""
    build = f"build:{tag}:{gname}"
    kept = {}

    def keep_build(g):
        gd = keep_graph(g)
        kept["gd"] = gd
        return gd

    ops = [
        Op(
            name=build,
            call=lambda ctx: m.repshift.build_sft(ctx[rs_name], group),
            check=lambda gd: _not_raised(gd) or check_graph(gd, templates, model, samples, build),
            keep=keep_build,
            summary=lambda g: (g.state_count, g.essential_count),
            needs=(rs_name,),
        ),
        Op(
            name=f"census:{tag}:{gname}",
            call=lambda ctx: m.repshift.census(ctx[build]),
            check=lambda c: check_census(c, kept["gd"]),
            summary=lambda c: (c.classification, c.count, c.essential_count),
            needs=(build,),
        ),
        Op(
            name=f"entropy:{tag}:{gname}",
            call=lambda ctx: m.repshift.entropy(ctx[build]),
            check=lambda h: _not_raised(h) or _check_entropy(h, kept["gd"]),
            summary=lambda h: round(h, 9),
            needs=(build,),
        ),
    ]
    if period:
        ops.append(
            Op(
                name=f"periodic:{tag}:{gname}:{period}",
                call=lambda ctx: m.repshift.enumerate_periodic(ctx[build], period),
                check=lambda labs: _not_raised(labs) or _check_periodic(labs, kept["gd"], period),
                summary=len,
                needs=(build,),
            )
        )
    if heavy:
        for op in ops:
            op.deadline = HEAVY_DEADLINE_S
    return ops


def _check_entropy(h, gd):
    k, src, dst = essential_edges(gd)
    want = checks.perron_entropy(k, src, dst)
    if abs(h - want) > ENTROPY_TOL:
        return f"entropy {h:.6f}, numpy Perron root gives {want:.6f}"
    return None


def _check_periodic(labs, gd, period):
    k, src, dst = essential_edges(gd)
    if period == 2:
        pairs = set(zip(src.tolist(), dst.tolist()))
        want = sum(1 for a, b in pairs if (b, a) in pairs)
    else:
        want = checks.closed_walks(k, src, dst, period)
    if len(labs) != want:
        return f"{len(labs)} periodic labelings, trace(A^{period}) = {want}"
    if any(len(t) != period for t in labs):
        return "a labeling has the wrong period"
    return None


def _rs_op(m, name, pres, chi, stable):
    want = [own_template(tuple(r.syllables), stable) for r in pres.relators]
    return Op(
        name=name,
        call=lambda ctx: m.rscover.reidemeister_schreier(pres, chi),
        check=lambda sp: _not_raised(sp)
        or (None if [tuple(t) for t in sp.templates] == want else f"templates {sp.template_texts()}"),
        keep=lambda sp: sp,
        summary=lambda sp: sp.template_texts(),
    ), [[(o, e) for _, o, e in t] for t in want]


# -- recurrence-cyclic --------------------------------------------------------------


def _factor_keep(fac):
    return (fac.sign, fac.unit_exp, fac.content, [(tuple(f.dense()), mult) for f, mult in fac.factors])


def _factor_op(m, name, coeffs, expected, deadline=None):
    """factor_over_Z on an input whose factorization is known."""
    f = m.laurent.LaurentPoly.from_coeffs(coeffs)

    def check(kept):
        err = _not_raised(kept)
        if err:
            return err
        sign, unit_exp, content, factors = kept
        if (sign, unit_exp, content) != (1, 0, 1):
            return f"sign, unit, content = {sign}, {unit_exp}, {content}"
        return checks.check_factors(factors, expected, name)

    op = Op(
        name=name,
        call=lambda ctx: m.laurent.factor_over_Z(f),
        check=check,
        keep=_factor_keep,
        summary=lambda fac: [str(g) for g, _ in fac.factors],
    )
    if deadline:
        op.deadline = deadline
    return op


def _solvable_op(m, name, coeffs, factors=None):
    """has_integer_biinfinite; factors None means: ask sympy."""
    aux = m.recurrence.AuxPolynomial(coeffs)

    def check(kept):
        err = _not_raised(kept)
        if err:
            return err
        answer, witness = kept
        facs = factors if factors is not None else checks.sympy_factors(coeffs)
        return checks.check_surjection(answer, witness or (), facs)

    return Op(
        name=name,
        call=lambda ctx: m.recurrence.has_integer_biinfinite(aux),
        check=check,
        keep=lambda r: (r[0], None if r[1] is None else tuple(r[1].dense())),
        summary=lambda r: (r[0], str(r[1])),
    )


def _closed_form(roots, cs, n):
    return sum(Fraction(c) * Fraction(r) ** n for r, c in zip(roots, cs))


def _window_ops(m, tag, roots, cs):
    """propagate, apply_shift_factor and minimal_recurrence on x_n = sum c_i r_i^n."""
    R = m.recurrence
    d = len(roots)
    aux = [1]
    for r in roots:
        aux = checks.pmul(aux, [-r, 1])
    f = R.AuxPolynomial(aux)
    seed = [_closed_form(roots, cs, n) for n in range(d)]
    ops = []

    def check_prop(kept, direction, steps):
        err = _not_raised(kept)
        if err:
            return err
        values, integral = kept
        idx = range(d, d + steps) if direction == "forward" else range(-1, -steps - 1, -1)
        want = [_closed_form(roots, cs, n) for n in idx]
        if list(values) != want:
            return f"{direction} values differ from the closed form"
        if list(integral) != [v.denominator == 1 for v in want]:
            return "integrality flags are wrong"
        return None

    for direction, steps in (("forward", 40), ("backward", 25)):
        ops.append(
            Op(
                name=f"propagate:{tag}:{direction}",
                call=lambda ctx, dr=direction, st=steps: R.propagate(
                    f, seed, R.Direction.FORWARD if dr == "forward" else R.Direction.BACKWARD, st
                ),
                check=lambda kept, dr=direction, st=steps: check_prop(kept, dr, st),
                keep=lambda r: (r.values, r.integral),
                summary=lambda r: r.first_nonintegral,
            )
        )
    lo, length = -3, 2 * (d + 1) + 5
    window = R.SequenceWindow(base=lo, values=tuple(_closed_form(roots, cs, n) for n in range(lo, lo + length)))
    g = m.laurent.LaurentPoly.from_coeffs([-roots[0], 1])

    def check_shift(kept):
        err = _not_raised(kept)
        if err:
            return err
        base, values = kept
        want = [_closed_form(roots[1:], [c * (r - roots[0]) for r, c in zip(roots[1:], cs[1:])], n) for n in range(lo, lo + length - 1)]
        if base != lo or list(values) != want:
            return "apply_shift_factor differs from the closed form"
        return None

    ops.append(
        Op(
            name=f"shift:{tag}",
            call=lambda ctx: R.apply_shift_factor(g, window),
            check=check_shift,
            keep=lambda w: (w.base, w.values),
            summary=lambda w: w.values[:3],
        )
    )

    def check_minimal(kept):
        err = _not_raised(kept)
        if err:
            return err
        return None if kept == tuple(aux) else f"minimal recurrence {kept}, expected {tuple(aux)}"

    ops.append(
        Op(
            name=f"minimal:{tag}",
            call=lambda ctx: R.minimal_recurrence(window, d + 1),
            check=check_minimal,
            keep=lambda a: None if a is None else a.ascending,
            summary=lambda a: None if a is None else a.ascending,
        )
    )
    return ops


def _witness_op(m, name, coeffs, lo, hi):
    R = m.recurrence
    f = R.AuxPolynomial(coeffs)

    def check(kept):
        err = _not_raised(kept)
        if err:
            return err
        base, values = kept
        if base != lo or len(values) != hi - lo + 1:
            return f"window [{base}, {base + len(values) - 1}], asked for [{lo}, {hi}]"
        if not any(values) or any(Fraction(v).denominator != 1 for v in values):
            return "window is zero or not integral"
        dd = len(coeffs) - 1
        for i in range(len(values) - dd):
            if sum(c * values[i + k] for k, c in enumerate(coeffs)):
                return f"window breaks the recurrence at index {lo + i}"
        return None

    return Op(
        name=name,
        call=lambda ctx: R.witness_sequence(f, lo, hi),
        check=check,
        keep=lambda w: (w.base, w.values),
        summary=lambda w: w.values,
    )


def build_recurrence_cyclic(m, seed: int, cli, work: str):
    ops = []
    for n in list(range(2, 49)) + [60, 72, 84, 90, 96, 105, 120]:
        coeffs = [-1] + [0] * (n - 1) + [1]
        expected = [(checks.cyclotomic(d), 1) for d in range(1, n + 1) if n % d == 0]
        ops.append(_factor_op(m, f"factor:t^{n}-1", coeffs, expected, HEAVY_DEADLINE_S if n == 120 else None))
    for k in (3, 4, 5):
        sd = checks.swinnerton_dyer(k)
        ops.append(_factor_op(m, f"factor:swinnerton-dyer-{k}", list(sd), [(sd, 1)], HEAVY_DEADLINE_S if k == 5 else None))

    # Ten fixed products of three distinct cyclotomic polynomials of degree
    # 24 to 36: past 48, the cost of recombination swings by orders of
    # magnitude from one product to the next, and even within 24 to 36 it
    # runs from 8 to 90 ms, so seeded products moved op_p90_ms from seed to
    # seed.  The seeded families after them have fixed sizes, so that their
    # cost stays in a narrow band for every seed.  Their counts put the
    # median operation inside the dense band of 1.0-1.6 ms operations
    # (witnesses, minimal recurrences, t^n - 1 for n up to about 20) rather
    # than in the thin gap below it, where it jumped from run to run.
    rng = _sample_rng("cyclotomic-products")
    for i in range(10):
        while True:
            ds = rng.sample(range(1, 37), 3)
            if 24 <= sum(len(checks.cyclotomic(d)) - 1 for d in ds) <= 36:
                break
        prod = [1]
        for d in ds:
            prod = checks.pmul(prod, list(checks.cyclotomic(d)))
        ops.append(_solvable_op(m, f"solvable:cyclotomic-{i}", prod, [(checks.cyclotomic(d), 1) for d in ds]))
    # In the three families below the magnitudes, which set the cost, are
    # fixed by the index; the seed picks the signs.
    rng = _stream(seed, "recurrences")
    for i in range(10):
        mags = random.Random(5000 + i)
        coeffs = [rng.choice((1, -1)) * mags.randint(int(k in (0, 4)), 9) for k in range(5)]
        ops.append(_solvable_op(m, f"solvable:random-{i}", coeffs))

    rng = _stream(seed, "windows")
    triples = list(itertools.combinations(range(1, 6), 3))
    for i in range(20):
        roots = [rng.choice((1, -1)) * r for r in triples[i % len(triples)]]
        cs = [rng.choice((1, -1)) * (1 + (i + k) % 4) for k in range(3)]
        ops.extend(_window_ops(m, f"w{i}", roots, cs))
    rng = _stream(seed, "witnesses")
    for i in range(30):
        unit = [rng.choice((1, -1)), -(1 + i % 4), 1]
        other = [rng.choice((1, -1)) * (1 + i % 5), rng.choice((1, -1)) * (2 + i // 5 % 2)]
        ops.append(_witness_op(m, f"witness:{i}", checks.pmul(unit, other), -20, 20))

    # Censuses over cyclic groups: fixed orders and windows, seeded stencils.
    rng = _stream(seed, "cyclic-census")
    census_inputs = []
    for i, (n, w) in enumerate(((5, 4), (7, 4), (11, 3), (13, 3), (17, 3), (19, 3))):
        cs = [rng.randrange(1, n)] + [rng.randrange(n) for _ in range(w - 1)] + [rng.randrange(1, n)]
        census_inputs.append((f"prime{i}", n, cs, False))
    for i, (n, w) in enumerate(((4, 3), (6, 3), (8, 3), (9, 3), (10, 3), (12, 2))):
        cs = [rng.choice([c for c in range(-n, n + 1) if c % n]) for _ in range(w + 1)]
        census_inputs.append((f"composite{i}", n, cs, False))
    census_inputs.append(("z31-w4", 31, [-2, 0, 0, 0, 1], True))
    for tag, n, cs, heavy in census_inputs:
        pres = m.words.parse_presentation(stencil_presentation(cs))
        group = m.repshift.FiniteGroup.cyclic(n)
        rs, templates = _rs_op(m, f"rs:{tag}", pres, {"t": 1, "a": 0}, "t")
        ops.append(rs)
        graph_ops = _graph_ops(m, tag, rs.name, f"Z{n}", group, GroupModel("cyclic", n), templates, 200, None, heavy)
        if tag.startswith("prime") or heavy:
            graph_ops[1].check = _with_rank_count(graph_ops[1].check, n, cs)
        ops.extend(graph_ops[:2])

    # An abelian, non-cyclic table under a name that starts with "cyclic(".
    klein = m.repshift.FiniteGroup.from_table(KLEIN_TABLE, name="cyclic(4).txt")
    kpres = m.words.parse_presentation("<t, a | t a^2 t^-1 a^-2>")

    def klein_call(ctx):
        sp = m.rscover.reidemeister_schreier(kpres, {"t": 1, "a": 0})
        return m.repshift.census(m.repshift.build_sft(sp, klein))

    def klein_check(c):
        err = _not_raised(c)
        if err:
            return err
        # Squares are trivial in the Klein four-group, so every window is
        # allowed: the full shift on 4 symbols.
        model = GroupModel("klein", 4)
        src, dst = [], []
        for s in range(4):
            for y in checks.expected_successors(s, [[(0, -2), (1, 2)]], 1, 4, model.elements, model.mul, model.power, 0):
                src.append(s)
                dst.append(y)
        want = checks.perron_entropy(4, src, dst)
        if abs(c.entropy - want) > ENTROPY_TOL:
            return f"entropy {c.entropy:.6f}, expected {want:.6f} (log 4)"
        return None

    ops.append(
        Op(
            name="census:klein4-named-cyclic(4)",
            call=klein_call,
            check=klein_check,
            summary=lambda c: (c.classification, round(c.entropy, 9)),
            known_fault=NAME_FAULT,
        )
    )

    _write(work, "dyadic.pres", "<t, a | t a t^-1 a^-2>")

    def expect_recurrence(answer, witness, window=None):
        def expect(result):
            if result["answer"] != answer or result["witness"] != witness:
                return f"answer {result['answer']} witness {result['witness']!r}"
            if window is not None:
                vals = result["window"]["values"]
                if len(vals) != window[1] - window[0] + 1 or not any(vals):
                    return "window has the wrong length or is zero"
                for i in range(len(vals) - 2):
                    if vals[i + 2] != vals[i + 1] + vals[i]:
                        return "window breaks x[n+2] = x[n+1] + x[n]"
            return None

        return expect

    ops.append(cli_op("cli-recurrence-fib", ["recurrence", "1,-1,-1", "--witness", "-5", "5", "--json"], "recurrence", "1,-1,-1", cli, expect_recurrence(True, "t^2 - t - 1", (-5, 5))))
    ops.append(cli_op("cli-recurrence-t6", ["recurrence", "1,0,0,0,0,0,-1", "--json"], "recurrence", "1,0,0,0,0,0,-1", cli, expect_recurrence(True, "t - 1")))
    ops.append(cli_op("cli-recurrence-2-3-5", ["recurrence", "2,-3,5", "--json"], "recurrence", "2,-3,5", cli, expect_recurrence(False, None)))

    def expect_z7(result):
        # x[i+1] = 2 x[i] mod 7 is a bijection of Z7: 7 points, all essential.
        c = result["census"]
        if (result["state_count"], result["essential_count"], c["classification"], c["count"]) != (7, 7, "Finite", 7):
            return f"reps over Z7: {result}"
        return None

    ops.append(cli_op("cli-reps-dyadic-z7", ["reps", "dyadic.pres", "--chi", "t=1,a=0", "--group", "Z7", "--json"], "reps", "<t, a | t a t^-1 a^-2>", cli, expect_z7))
    return ops


KLEIN_TABLE = "4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n"


def _with_rank_count(check, p, cs):
    """Also compare the census count with the mod-p rank count."""

    def wrapped(c):
        err = check(c)
        if err:
            return err
        want = checks.rank_count(cs, p)
        if c.count != want:
            return f"census count {c.count}, rank count {want}"
        return None

    return wrapped


# -- nonabelian-reps --------------------------------------------------------------


# Two-bridge knots whose weight-zero form has a shift presentation of width 2.
REPS_PAIRS = ((3, 1), (5, 2), (5, 3), (7, 3), (7, 4), (9, 4), (9, 5), (11, 5), (11, 6), (13, 7))


def seeded_conjugate(rng: random.Random, pres) -> str:
    """The one-relator presentation with its relator rotated, maybe inverted.

    A cyclic rotation and an inversion change the words but not the group,
    nor the allowed windows over any finite group (a word is trivial exactly
    when its rotations and its inverse are).  They do change the template,
    and with it the cost of ``build_sft`` by up to a fifth, so callers key
    ``rng`` by the input, not by the seed.
    """
    syl = list(pres.relators[0].syllables)
    k = rng.randrange(len(syl))
    syl = syl[k:] + syl[:k]
    if rng.random() < 0.5:
        syl = [(g, -e) for g, e in reversed(syl)]
    return "<" + ",".join(pres.generators) + " | " + _word_text(_cyclic_reduce(syl)) + ">"


def build_nonabelian_reps(m, seed: int, cli, work: str):
    corpus = load_corpus()
    groups = {k: m.repshift.FiniteGroup.symmetric(k) for k in (3, 4, 5)}
    models = {k: GroupModel("symmetric", math.factorial(k)) for k in (3, 4, 5)}
    bases = [(f"family{n}", m.twobridge.family_presentation(n)) for n in range(1, 11)]
    bases += [(f"tb{p}-{q}", corpus.weight_zero_form(p, q)[0]) for p, q in REPS_PAIRS]
    # Each relator is rotated and maybe inverted by an amount fixed by its
    # name; the seed picks the order in which the twenty knots run, which
    # leaves the cost of each operation alone.
    inputs = [(tag, m.words.parse_presentation(seeded_conjugate(_sample_rng(tag), pres))) for tag, pres in bases]
    _stream(seed, "order").shuffle(inputs)

    chi = {"u": 1, "a": 0}
    ops = []
    for tag, pres in inputs:
        rs, templates = _rs_op(m, f"rs:{tag}", pres, chi, "u")
        ops.append(rs)
        width = max(max((o for t in templates for o, _ in t), default=0), 1)
        for k in (3, 4):
            states = math.factorial(k) ** width
            if states > (1296 if k == 3 else 576):
                continue
            ops.extend(_graph_ops(m, tag, rs.name, f"S{k}", groups[k], models[k], templates, 64, 4))
    # The largest graphs: 24^3 and 120^2 states.
    rs72, t72 = _rs_op(m, "rs:tb7-2-s4", corpus.weight_zero_form(7, 2)[0], chi, "u")
    ops.append(rs72)
    ops.extend(_graph_ops(m, "tb7-2", rs72.name, "S4", groups[4], models[4], t72, 32, 3, heavy=True))
    pres3 = m.twobridge.family_presentation(3)
    rs3, t3 = _rs_op(m, "rs:family3-s5", pres3, chi, "u")
    ops.append(rs3)
    ops.extend(_graph_ops(m, "family3", rs3.name, "S5", groups[5], models[5], t3, 24, 2, heavy=True))

    files = {
        "family3.pres": pres3.to_text(),
        "tb5-3.pres": corpus.weight_zero_form(5, 3)[0].to_text(),
    }
    for fname, text in files.items():
        _write(work, fname, text)

    def expect_family3_s3(result):
        # family(3) over S3: 36 states, 22 essential, entropy (1/3) log 3.
        c = result["census"]
        if (result["state_count"], result["essential_count"], c["classification"]) != (36, 22, "PositiveEntropy"):
            return f"reps family3/S3: {result['state_count']} {result['essential_count']} {c['classification']}"
        if abs(c["entropy"] - math.log(3) / 3) > ENTROPY_TOL:
            return f"entropy {c['entropy']}"
        return None

    def expect_rs_family3(result):
        want = own_template(tuple(pres3.relators[0].syllables), "u")
        return None if result["width"] == max(o for _, o, _ in want) else f"width {result['width']}"

    def expect_family3_text(result):
        want = "<u,a | " + _word_text([("u", 1), ("a", 3), ("u", 1), ("a", -3), ("u", -1), ("a", 2), ("u", -1), ("a", -3)]) + ">"
        return None if result["text"] == want else f"text {result['text']}"

    def expect_tb53_s4(result):
        # The figure-eight knot over S4: 576 states, every one essential.
        if (result["state_count"], result["essential_count"], result["census"]["classification"]) != (576, 576, "Finite"):
            return f"reps tb5-3/S4: {result['state_count']} {result['essential_count']}"
        return None

    ops.append(cli_op("cli-reps-family3-s3", ["reps", "family3.pres", "--chi", "u=1,a=0", "--group", "S3", "--max-period", "4", "--json"], "reps", files["family3.pres"], cli, expect_family3_s3))
    ops.append(cli_op("cli-rs-family3", ["rs", "family3.pres", "--chi", "u=1,a=0", "--json"], "rs", files["family3.pres"], cli, expect_rs_family3))
    ops.append(cli_op("cli-twobridge-family3", ["twobridge", "--family", "3", "--json"], "twobridge", "family:3", cli, expect_family3_text))
    ops.append(cli_op("cli-reps-tb5-3-s4", ["reps", "tb5-3.pres", "--chi", "u=1,a=0", "--group", "S4", "--json"], "reps", files["tb5-3.pres"], cli, expect_tb53_s4))
    return ops


# Rounds of the light operations per pass, odd so that each operation's
# median latency is one of its samples.  nonabelian-reps has the most
# operations under a millisecond and the cheapest rounds, so it takes more.
ROUNDS = {"criteria": 3, "recurrence-cyclic": 3, "nonabelian-reps": 5}

BUILDERS = {
    "criteria": build_criteria,
    "recurrence-cyclic": build_recurrence_cyclic,
    "nonabelian-reps": build_nonabelian_reps,
}
