"""Operations, per-operation deadlines, timed passes and failure accounting."""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

CLI_PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_probe.py")

# Deadlines sit well above the slowest operation of their kind that succeeds
# today, on the 2-vCPU VM the benchmark was written on: light operations
# finish in under 0.9 s, the heaviest (T(2,301) in criteria) in up to 16 s.
DEFAULT_DEADLINE_S = 4.0
HEAVY_DEADLINE_S = 60.0
# Samples of each CLI call per pass, whatever the workload's rounds: a
# subprocess's start-up time scatters more than an in-process call's.
CLI_ROUNDS = 3


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a stopped operation.

    A BaseException, so the program's own ``except ValueError`` and
    ``except Exception`` handlers cannot swallow it.
    """


def _alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Op:
    """One timed call into cycover.

    ``call(ctx)`` runs the operation; ``ctx`` maps the names of earlier
    operations of the same pass to their outputs.  ``keep`` reduces the
    first pass's output to what ``check`` needs; ``check`` returns None or a
    description of what is wrong.  ``summary`` is compared across passes.
    ``known_fault`` names the program fault that makes this operation fail
    today; only such operations may fail without making the run incorrect.
    """

    name: str
    call: Callable[[dict], object]
    check: Callable[[object], Optional[str]]
    keep: Callable[[object], object] = lambda out: out
    summary: Callable[[object], object] = lambda out: None
    deadline: float = DEFAULT_DEADLINE_S
    known_fault: Optional[str] = None
    cli: Optional[list] = None  # argv after ``python -m cycover.cli``
    needs: tuple = ()  # names of earlier operations whose outputs ``call`` reads
    repeat: bool = True  # whether a light operation runs in every round

    @property
    def base(self) -> str:
        """The operation's name without its round suffix."""
        return self.name.split("#")[0]

    @property
    def light(self) -> bool:
        return self.repeat and self.deadline == DEFAULT_DEADLINE_S and self.known_fault is None


def expand(ops: list, rounds: int) -> list:
    """The operations of one pass: all once, then the light ones (default
    deadline, no known fault, ``repeat`` set) rounds - 1 more times, and the
    CLI calls until they have CLI_ROUNDS, so that each light latency is
    sampled at several moments of the pass; the known faults come last."""
    out = [op for op in ops if not op.known_fault]
    for r in range(1, max(rounds, CLI_ROUNDS)):
        again = [op for op in ops if op.light and (r < rounds or op.cli is not None)]
        out += [dataclasses.replace(op, name=f"{op.name}#{r}") for op in again]
    # Known faults last: what a stopped operation leaves in memory depends
    # on how far it got, and the pass reads its peak memory before them.
    return out + [op for op in ops if op.known_fault]


@dataclass
class OpResult:
    seconds: float
    ok: bool  # finished without an exception or a stop
    stopped: bool = False
    error: str = ""
    start: float = 0.0  # perf_counter at the start and at the end
    end: float = 0.0
    cli_times: Optional[dict] = None  # what cli_probe.py reported, for a CLI call


@dataclass
class PassResult:
    results: dict = field(default_factory=dict)  # op name -> OpResult
    kept: dict = field(default_factory=dict)  # base name -> kept output (first pass)
    summaries: dict = field(default_factory=dict)
    peak_kb: int = 0  # peak resident memory before the pass's first known fault

    @property
    def wall_s(self) -> float:
        return sum(r.seconds for r in self.results.values())


class CliRunner:
    """Runs the cycover command line in a subprocess, through
    ``cli_probe.py``; the times it reports are left in ``last_times``."""

    def __init__(self, src_dir: str, work_dir: str):
        self.env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED="0")
        self.work_dir = work_dir
        self.last_times: Optional[dict] = None

    def run(self, argv: list, timeout: float) -> bytes:
        self.last_times = None
        proc = subprocess.run(
            [sys.executable, CLI_PROBE] + list(argv), cwd=self.work_dir, env=self.env, capture_output=True, timeout=timeout
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode().strip()[-300:]}")
        self.last_times = json.loads(proc.stderr.decode().strip().splitlines()[-1])
        return proc.stdout


def run_pass(ops: list, cli: CliRunner, first: bool, tracer=None):
    """Run every operation once, in order, each under its deadline.

    Returns (untraced pass, traced pass or None).  With a tracer, each
    operation runs twice in a row, untraced and then traced, so that both
    timings see the same state of the machine and their difference is the
    tracing overhead.
    """
    plain, traced = PassResult(), (PassResult() if tracer is not None else None)
    ctx: dict = {}
    last_use = {}
    for i, op in enumerate(ops):
        for name in op.needs:
            last_use[name] = i
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        for i, op in enumerate(ops):
            if op.known_fault and not plain.peak_kb:
                plain.peak_kb = _peak_kb()
            _clean_heap()
            res, value = _run_one(op, ctx, cli, None)
            _record(plain, op, res, value, first)
            if traced is not None:
                _clean_heap()
                tracer.install()
                try:
                    tres, tvalue = _run_one(op, ctx, cli, tracer)
                finally:
                    tracer.uninstall()
                _record(traced, op, tres, tvalue, False)
                del tvalue
            if res.ok and op.base in last_use:
                ctx[op.base] = value
            # Drop outputs no later operation reads, so large graphs do not
            # pile up across the pass.
            for name in op.needs:
                if last_use[name] == i:
                    ctx.pop(name, None)
            del value
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        gc.unfreeze()
    plain.peak_kb = plain.peak_kb or _peak_kb()
    return plain, traced


def _peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _clean_heap() -> None:
    """Collect, then freeze what survives.

    Every operation then starts with an empty young heap, and the cyclic
    collector inside it walks only what the operation itself allocated, as
    it would in a process of its own; without the freeze each collection
    also walked every earlier input and output, which cost more than the
    operations themselves on nonabelian-reps.
    """
    gc.collect()
    gc.freeze()


def _record(pr: PassResult, op: Op, res: OpResult, value, first: bool) -> None:
    pr.results[op.name] = res
    if res.ok:
        pr.summaries[op.name] = _summary(op, value)
        if first and op.name == op.base:
            pr.kept[op.name] = value if isinstance(value, Exception) else op.keep(value)


def _summary(op: Op, value):
    if isinstance(value, Exception):
        return type(value).__name__
    return op.summary(value)


def _run_one(op: Op, ctx: dict, cli: CliRunner, tracer):
    if op.cli is not None:
        t0 = time.perf_counter()
        try:
            value = cli.run(op.cli, op.deadline)
        except subprocess.TimeoutExpired:
            return _timed(t0, False, stopped=True, error="deadline"), None
        except RuntimeError as e:
            return _timed(t0, False, error=str(e)), None
        return _timed(t0, True, cli_times=cli.last_times), value

    value = None
    stopped = False
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.deadline)
        try:
            if tracer is None:
                value = op.call(ctx)
            else:
                with tracer.op_span(op.name):
                    value = op.call(ctx)
        except Exception as e:
            # A raised exception is an output too: some operations are
            # expected to raise a domain error, and their check says so.
            value = e
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        stopped = True
    if stopped:
        return _timed(t0, False, stopped=True, error=f"stopped at the {op.deadline:g} s deadline"), None
    return _timed(t0, True), value


def _timed(t0: float, ok: bool, **kw) -> OpResult:
    t1 = time.perf_counter()
    return OpResult(t1 - t0, ok, start=t0, end=t1, **kw)
