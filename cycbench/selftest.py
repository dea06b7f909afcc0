"""Self-test of the benchmark, in a fast mode.

Runs a few operations of each workload once, confirms that their checks
accept the program's real outputs and reject a planted wrong answer for
every kind of check, and that the known-fault operations are reported as
failed operations (stopped or wrong), not as crashes.

    python3 cycbench/selftest.py
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def run_ops(ops, names, cli):
    """Run the named operations (and what they need) once; return kept outputs."""
    wanted = set(names)
    for op in reversed(ops):
        if op.name in wanted:
            wanted.update(op.needs)
    chosen = [op for op in ops if op.name in wanted]
    pr = harness.run_pass(chosen, cli, first=True)[0]
    return {op.name: op for op in chosen}, pr


def planted(op, kept, mutate, what):
    """The check accepts the real output and rejects the mutated one."""
    expect(op.check(kept) is None, f"{op.name}: real output accepted")
    bad = mutate(copy.deepcopy(kept))
    err = op.check(bad)
    expect(err is not None, f"{op.name}: planted {what} rejected ({err})")


def _replace(ns, **changes):
    if dataclasses.is_dataclass(ns):
        return dataclasses.replace(ns, **changes)
    out = copy.copy(ns)
    for k, v in changes.items():
        setattr(out, k, v)
    return out


def test_criteria(cli, work):
    m = workloads.load_cycover()
    ops = workloads.build_criteria(m, 1, cli, work)
    names = ["corpus-dyadic", "corpus-nocover", "torus-2-15", "knotlike-n5-0", "corpus-torus23",
             "cli-twobridge-5-3", "cli-criteria-dyadic"]
    byname, pr = run_ops(ops, names, cli)
    k = pr.kept
    expect(all(pr.results[n].ok for n in names), "criteria operations ran")

    op = byname["corpus-dyadic"]
    planted(op, k[op.name], lambda r: _replace(r, delta=(r.delta[0] + 1,) + r.delta[1:]), "Delta (Fox determinant)")
    planted(op, k[op.name], lambda r: _replace(r, primes=[(3, 1, 9, 4, "finite", 4)] + r.primes[1:]), "r_p (rank count)")
    planted(op, k[op.name], lambda r: _replace(r, answer=not r.answer), "surjection verdict (sympy)")
    planted(op, k[op.name], lambda r: _replace(r, fg="FG"), "finite generation")
    planted(op, k[op.name], lambda r: _replace(r, index2=not r.index2), "index-2 answer")
    op = byname["corpus-nocover"]
    planted(op, k[op.name], lambda r: _replace(r, kervaire=(False,) + r.kervaire[1:]), "H1 = Z")
    op = byname["torus-2-15"]
    planted(op, k[op.name], lambda r: _replace(r, witness=(1, 1, 1)), "T(2,p) cyclotomic witness")
    planted(op, k[op.name], lambda r: _replace(r, delta=r.delta + (0, 1)), "T(2,p) cyclotomic product")
    op = byname["knotlike-n5-0"]
    planted(op, k[op.name], lambda r: _replace(r, delta=tuple(2 * c for c in r.delta)), "Delta of a 5-generator input")
    op = byname["corpus-torus23"]
    planted(op, k[op.name], lambda r: ValueError("something else"), "domain error")
    for name in ("cli-twobridge-5-3", "cli-criteria-dyadic"):
        op = byname[name]
        planted(op, k[name], lambda raw: raw.replace(b'"version"', b'"versio"'), "CLI key set")
        planted(op, k[name], lambda raw: raw.replace(b'"input_digest":"', b'"input_digest":"0'), "CLI digest")
        planted(op, k[name], lambda raw: raw + b" ", "CLI bytes differ between calls")
    planted(byname["cli-criteria-dyadic"], k["cli-criteria-dyadic"],
            lambda raw: raw.replace(b'"delta":"t - 2"', b'"delta":"t - 3"'), "CLI delta")

    # The Smith-form fault: stopped at its deadline and counted failed.
    fault = [op for op in ops if op.known_fault]
    for op in fault:
        op.deadline = 1.0
    pr = harness.run_pass(fault, cli, first=True)[0]
    for op in fault:
        res = pr.results[op.name]
        expect(res.stopped and not res.ok, f"{op.name}: known fault stopped and failed, not a crash")
    attempted, failed, correct, _ = run.account(fault, [pr], {})
    expect((attempted, failed, correct) == (len(fault), len(fault), True), "known faults count as failed, run stays correct")


def test_recurrence(cli, work):
    m = workloads.load_cycover()
    ops = workloads.build_recurrence_cyclic(m, 1, cli, work)
    names = ["factor:t^12-1", "factor:swinnerton-dyer-3", "solvable:cyclotomic-0", "solvable:random-0",
             "propagate:w0:forward", "propagate:w0:backward", "shift:w0", "minimal:w0", "witness:0",
             "census:prime0:" + next(op.name.split(":")[-1] for op in ops if op.name.startswith("census:prime0:")),
             "census:klein4-named-cyclic(4)", "cli-recurrence-fib"]
    byname, pr = run_ops(ops, names, cli)
    k = pr.kept
    expect(all(pr.results[n].ok for n in names), "recurrence-cyclic operations ran")

    op = byname["factor:t^12-1"]
    planted(op, k[op.name], lambda r: (r[0], r[1], r[2], r[3][:-1]), "t^n - 1 factor set (cyclotomic)")
    op = byname["factor:swinnerton-dyer-3"]
    planted(op, k[op.name], lambda r: (r[0], r[1], r[2], [((1, 1), 1), ((1, 0, 1), 1)]), "Swinnerton-Dyer irreducibility")
    op = byname["solvable:cyclotomic-0"]
    planted(op, k[op.name], lambda r: (False, None), "solvability verdict (known factors)")
    op = byname["solvable:random-0"]
    planted(op, k[op.name], lambda r: (not r[0], (1, 1) if not r[0] else None), "solvability verdict (sympy)")
    for name in ("propagate:w0:forward", "propagate:w0:backward"):
        op = byname[name]
        planted(op, k[name], lambda r: (r[0][:-1] + (r[0][-1] + 1,), r[1]), "propagated value (closed form)")
    op = byname["shift:w0"]
    planted(op, k[op.name], lambda r: (r[0], (r[1][0] + 1,) + r[1][1:]), "shift-factor window (closed form)")
    op = byname["minimal:w0"]
    planted(op, k[op.name], lambda r: r + (1,), "minimal recurrence (closed form)")
    op = byname["witness:0"]
    planted(op, k[op.name], lambda r: (r[0], (r[1][0] + 1,) + r[1][1:]), "witness window (recurrence)")
    build = next(op for op in byname.values() if op.name.startswith("build:prime0:"))
    census = next(op for op in byname.values() if op.name.startswith("census:prime0:"))

    def shift_edges(gd):
        gd.dst = (gd.dst + 1) % gd.n
        return gd

    planted(build, k[build.name], shift_edges, "SFT edges (own group arithmetic)")
    planted(census, k[census.name], lambda c: _replace(c, count=c.count + 1), "census count (rank count)")
    op = byname["cli-recurrence-fib"]
    planted(op, k[op.name], lambda raw: raw.replace(b'"answer":true', b'"answer":false'), "CLI recurrence answer")

    klein = byname["census:klein4-named-cyclic(4)"]
    err = klein.check(k[klein.name])
    expect(err is not None and klein.known_fault is not None, f"Klein four table named cyclic(4).txt is a known wrong answer ({err})")
    attempted, failed, correct, _ = run.account([klein], [pr], {klein.name: err})
    expect((attempted, failed, correct) == (1, 1, True), "the name-dispatch fault counts as failed, run stays correct")


def test_reps(cli, work):
    m = workloads.load_cycover()
    ops = workloads.build_nonabelian_reps(m, 1, cli, work)
    names = ["rs:family3", "build:family3:S3", "census:family3:S3", "entropy:family3:S3", "periodic:family3:S3:4",
             "census:family2:S4", "cli-reps-family3-s3"]
    byname, pr = run_ops(ops, names, cli)
    k = pr.kept
    expect(all(pr.results[n].ok for n in names), "nonabelian-reps operations ran")
    op = byname["rs:family3"]
    planted(op, k[op.name], lambda sp: _replace(sp, templates=((("a", 0, 1),),)), "Reidemeister-Schreier template")

    def drop_edge(gd):
        gd.dst = gd.dst.copy()
        gd.dst[:] = gd.dst[::-1]
        return gd

    op = byname["build:family3:S3"]
    planted(op, k[op.name], drop_edge, "SFT edges (own permutation composition)")
    op = byname["census:family3:S3"]
    planted(op, k[op.name], lambda c: _replace(c, classification="Finite"), "census classification")
    op = byname["entropy:family3:S3"]
    planted(op, k[op.name], lambda h: h + 0.01, "entropy (numpy Perron root)")
    op = byname["periodic:family3:S3:4"]
    planted(op, k[op.name], lambda labs: labs[:-1], "periodic labeling count (trace A^N)")
    op = byname["census:family2:S4"]
    planted(op, k[op.name], lambda c: _replace(c, entropy=c.entropy * 1.01), "census entropy (numpy Perron root)")
    op = byname["cli-reps-family3-s3"]
    planted(op, k[op.name], lambda raw: raw.replace(b'"essential_count":22', b'"essential_count":21'), "CLI reps census")


def test_speed(cli):
    """Scaling to the reference speed: a slow stretch halves what it saw."""
    ref = speed.REF_CHUNK_S
    s = speed.Sampler()
    s.starts = [float(i) for i in range(12)]
    s.chunks = [ref] * 6 + [2 * ref] * 6
    expect(abs(s.scaled(9.2, 9.7) - 0.25) < 1e-12, "an interval in a stretch at half speed counts half")
    expect(abs(s.scaled(0.2, 1.7) - (1.5 - ref)) < 1e-12, "an interval at the reference speed counts whole, less its sample")
    expect(abs(s.scaled(5.5, 6.5) - (1 - 2 * ref) / 2) < 1e-12, "a short interval takes the samples nearest to it")
    expect(abs(speed.scaled_child(0.2 + 6 * 2 * ref, [2 * ref] * 6) - 0.1) < 1e-12, "a subprocess's own samples scale it")

    s = speed.Sampler()
    s.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() < t0 + 0.5:
            pass
        t1 = time.perf_counter()
    finally:
        s.stop()
    expect(len(s.chunks) >= 5, f"the sampler ticks while the process computes ({len(s.chunks)} samples)")
    expect(s.scaled(t0, t1) > 0, "a sampled interval scales to a positive time")

    cli.run(["twobridge", "5", "3", "--json"], 30.0)
    t = cli.last_times
    expect(len(t["speed_samples"]) >= 4 and t["import_s"] > 0 and t["main_s"] > 0, "a CLI call reports its times and speed samples")


def main() -> int:
    src = os.path.join(ROOT, "src")
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as work:
        cli = harness.CliRunner(src, work)
        test_speed(cli)
        test_criteria(cli, work)
        test_recurrence(cli, work)
        test_reps(cli, work)
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
