"""cycover benchmark: one workload, one seed, timed passes, checked outputs.

    python3 cycbench/run.py --workload criteria --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  A run sets the workload up several times (import, input
generation, group construction) and reports the median as ``setup_s``, then
runs whole passes over the workload's operations, single-process and
single-threaded, each operation under its own deadline, until ``--seconds``
have gone by.  Outputs of the first pass are checked afterwards, outside the
timed region, against computations made apart from the program
(``checks.py``); every later pass must repeat the first one's outputs.

``--trace 0`` prints the end-to-end metrics, every timing at the reference
speed: scaled by a reference loop timed all through the run, in this
process and inside each CLI subprocess (``speed.py``), so that the host's
drift does not move them.  ``--trace 1`` runs every
operation twice in a row, untraced and then traced, and prints the
per-layer metrics: self seconds and call counts, for the traced set-up plus
one traced pass (the mean when there were several), and the tracing
overhead (traced minus untraced pass time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The spans, the
per-operation results and the result line are also written to
``cycbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_ROUNDS = 15


def _purge() -> None:
    """Forget cycover and the loaded test helpers, so the next import is real."""
    for name in list(sys.modules):
        if name == "cycover" or name.startswith("cycover.") or name.startswith("cycbench_tests_"):
            del sys.modules[name]


def setup(workload: str, seed: int, cli, work: str, tracer=None):
    """Import cycover, generate the inputs, construct the groups.

    Returns the operations of one pass and the perf_counter span of the
    set-up.
    """
    import harness
    import workloads

    _purge()
    t0 = time.perf_counter()
    m = workloads.load_cycover()
    if tracer is not None:
        tracer.install()
    ops = workloads.BUILDERS[workload](m, seed, cli, work)
    return harness.expand(ops, workloads.ROUNDS[workload]), (t0, time.perf_counter())


def quantile_band(values, lo: float, hi: float) -> float:
    """The mean of the values ranked from the lo to the hi quantile.

    An estimate of the quantile midway between them that moves less than a
    single order statistic where the values near it are sparse.
    """
    v = sorted(values)
    return statistics.fmean(v[round(lo * (len(v) - 1)) : round(hi * (len(v) - 1)) + 1])


def account(ops, passes, kept_errors):
    """(attempted, failed, correct, notes) over every pass."""
    attempted = failed = 0
    correct = True
    notes = []
    first = passes[0]
    for op in ops:
        wrong = kept_errors.get(op.base)
        if wrong and op.name == op.base:
            correct = correct and bool(op.known_fault)
            kind = "known fault" if op.known_fault else "WRONG"
            notes.append(f"{kind} {op.name}: {wrong}")
        for i, pr in enumerate(passes):
            attempted += 1
            res = pr.results[op.name]
            bad = not res.ok or wrong is not None
            base = first.summaries.get(op.base, pr.summaries.get(op.name))
            if res.ok and pr.summaries[op.name] != base:
                bad = True
                correct = False
                notes.append(f"WRONG {op.name}: pass {i + 1} differs from the first run of {op.base}")
            if bad:
                failed += 1
                if not res.ok:
                    kind = "known fault" if op.known_fault else "unexpected"
                    notes.append(f"failed {op.name} in pass {i + 1} ({kind}): {res.error}")
    return attempted, failed, correct, notes


def run_checks(ops, first):
    """Check the first pass's outputs; returns {op name: what is wrong}."""
    errors = {}
    for op in ops:
        if op.name not in first.kept:
            continue
        try:
            err = op.check(first.kept[op.name])
        except Exception:  # a check that crashes cannot vouch for the output
            err = "check raised:\n" + traceback.format_exc()
        if err:
            errors[op.name] = err
    return errors


def reference_seconds(op, res, sampler) -> float:
    """An operation's time at the reference speed (``speed.py``); a stopped
    operation counts at its deadline."""
    if res.stopped:
        return op.deadline
    if res.cli_times:
        return speed.scaled_child(res.seconds, res.cli_times["speed_samples"])
    return sampler.scaled(res.start, res.end)


def end_to_end(ops, passes, setups, errors, peak_kb, sampler):
    """Every timing at the reference speed.

    The latency of an operation is the median of its successful samples
    (every round of every pass); the percentiles are taken over operations,
    the 90th as the mean of those ranked between the 85th and the 95th.
    """
    samples: dict = {}
    walls = [0.0] * len(passes)
    for op in ops:
        for i, pr in enumerate(passes):
            res = pr.results[op.name]
            seconds = reference_seconds(op, res, sampler)
            walls[i] += seconds
            if res.ok and op.base not in errors:
                samples.setdefault((op.base, op.cli is not None), []).append(seconds)
    lat = [statistics.median(v) for (_, is_cli), v in samples.items() if not is_cli]
    cli_lat = [statistics.median(v) for (_, is_cli), v in samples.items() if is_cli]
    return {
        "setup_s": {"value": statistics.median(sampler.scaled(a, b) for a, b in setups), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
        "op_p90_ms": {"value": 1e3 * quantile_band(lat, 0.85, 0.95), "unit": "ms"},
        "cli_p50_ms": {"value": 1e3 * statistics.median(cli_lat), "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def per_layer(setup_tr, pass_tr, traced_passes, overhead):
    """Self seconds and counts: the traced set-up plus one traced pass."""
    n_traced = len(traced_passes)
    cli_times = [r.cli_times for pr in traced_passes for r in pr.results.values() if r.cli_times]

    def s(*names):
        return setup_tr.self_s(*names) + pass_tr.self_s(*names) / n_traced

    def calls(name):
        return setup_tr.calls.get(name, 0) + pass_tr.calls.get(name, 0) / n_traced

    def count(name):
        return setup_tr.counts.get(name, 0) + pass_tr.counts.get(name, 0) / n_traced

    trial = calls("intfactor.trial_div")
    states = count("states")
    values = {
        "words.parse_s": s("words.parse"),
        "words.smith_s": s("words.smith"),
        "words.smith_calls": calls("words.smith"),
        "alexander.fox_s": s("alexander.fox"),
        "alexander.bareiss_s": s("alexander.bareiss"),
        "alexander.mod_p_s": s("alexander.mod_p"),
        "criteria.prime_counts_s": s("criteria.prime_counts"),
        "criteria.reduce_mod_calls": calls("criteria.reduce_mod"),
        "criteria.kervaire_s": s("criteria.kervaire"),
        "laurent.factor_s": s("laurent.factor"),
        "laurent.exact_div_s": s("laurent.exact_div"),
        "intfactor.squarefree_s": s("intfactor.squarefree"),
        "intfactor.gcd_s": s("intfactor.gcd"),
        "intfactor.prime_choice_s": s("intfactor.prime_choice"),
        "intfactor.berlekamp_s": s("intfactor.berlekamp"),
        "intfactor.nullspace_s": s("intfactor.nullspace"),
        "intfactor.berlekamp_calls": calls("intfactor.berlekamp"),
        "intfactor.hensel_s": s("intfactor.hensel"),
        "intfactor.modular_factors": count("modular_factors"),
        "intfactor.recombine_s": s("intfactor.recombine"),
        "intfactor.trial_div_s": s("intfactor.trial_div"),
        "intfactor.trial_divs": trial,
        "intfactor.trial_div_hit_ratio": count("trial_div_hits") / trial if trial else 0.0,
        "rscover.rewrite_s": s("rscover.rewrite"),
        "repshift.group_s": s("repshift.group"),
        "repshift.build_s": s("repshift.build"),
        "repshift.window_check_s": s("repshift.window_check"),
        "repshift.window_checks": calls("repshift.window_check"),
        "repshift.power_calls": calls("repshift.power"),
        "repshift.trim_s": s("repshift.trim"),
        "repshift.census_s": s("repshift.census"),
        "repshift.scc_s": s("repshift.scc"),
        "repshift.entropy_s": s("repshift.entropy"),
        "repshift.periodic_s": s("repshift.periodic"),
        "repshift.states": states,
        "repshift.edges": count("edges"),
        "repshift.essential_ratio": count("essential") / states if states else 0.0,
        "recurrence.solvable_s": s("recurrence.solvable"),
        "recurrence.window_s": s("recurrence.window"),
        "recurrence.minimal_s": s("recurrence.minimal"),
        "cli.import_s": sum(t["import_s"] for t in cli_times) / n_traced,
        "cli.main_s": sum(t["main_s"] for t in cli_times) / n_traced,
        "bench.trace_overhead_s": overhead,
    }
    out = {}
    for name, value in values.items():
        unit = "s" if name.endswith("_s") else ("ratio" if name.endswith("ratio") else "count")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("criteria", "recurrence-cyclic", "nonabelian-reps"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cycover", "__init__.py")):
        print(f"error: no cycover sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "tests", "corpus.py")):
        print("error: tests/corpus.py is missing; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    import tracer as tracing

    work = os.path.join(OUT, "work")
    os.makedirs(work, exist_ok=True)
    cli = harness.CliRunner(SRC, work)

    sampler = speed.Sampler()
    if not args.trace:
        sampler.start()
    setups = []
    for _ in range(SETUP_ROUNDS):
        ops, span = setup(args.workload, args.seed, cli, work)
        setups.append(span)
    import cycover

    if not os.path.abspath(cycover.__file__).startswith(SRC + os.sep):
        print(f"error: cycover was imported from {cycover.__file__}, not {SRC}", file=sys.stderr)
        return 2

    passes = []
    setup_tr = pass_tr = None
    untraced, traced = [], []
    start = time.perf_counter()
    if not args.trace:
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(harness.run_pass(ops, cli, first=not passes)[0])
    else:
        setup_tr = tracing.Tracer()
        ops, _ = setup(args.workload, args.seed, cli, work, tracer=setup_tr)
        setup_tr.uninstall()
        pass_tr = tracing.Tracer()
        while not passes or time.perf_counter() - start < args.seconds:
            plain, traced_pass = harness.run_pass(ops, cli, first=not passes, tracer=pass_tr)
            untraced.append(plain.wall_s)
            traced.append(traced_pass)
            passes += [plain, traced_pass]
    if not args.trace:
        sampler.stop()
    # Peak memory of set-up and the first pass, up to its known faults.
    peak_kb = passes[0].peak_kb
    errors = run_checks(ops, passes[0])
    attempted, failed, correct, notes = account(ops, passes, errors)
    for note in notes:
        print(note, file=sys.stderr)

    if args.trace:
        overhead = statistics.median(pr.wall_s for pr in traced) - statistics.median(untraced)
        metrics = per_layer(setup_tr, pass_tr, traced, overhead)
        trace = {"setup": setup_tr.trace_json(), "passes": pass_tr.trace_json(), "traced_passes": len(traced)}
        with open(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump(trace, fh)
    else:
        metrics = end_to_end(ops, passes, setups, errors, peak_kb, sampler)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "setup_rounds_s": [b - a for a, b in setups],
        "speed_samples": {"at": sampler.starts, "seconds": sampler.chunks},
        "operations": {
            op.name: {
                "seconds": [pr.results[op.name].seconds for pr in passes],
                "reference_seconds": None if args.trace else [reference_seconds(op, pr.results[op.name], sampler) for pr in passes],
                "span": [(pr.results[op.name].start, pr.results[op.name].end) for pr in passes],
                "ok": [pr.results[op.name].ok for pr in passes],
                "wrong": errors.get(op.base),
                "known_fault": op.known_fault,
            }
            for op in ops
        },
        "result": result,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
