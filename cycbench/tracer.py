"""Span and counter tracing of cycover's layers, installed from outside.

The tracer rebinds each function named in LAYERS to a wrapper, in every
loaded ``cycover`` module that holds it (and on the class, for methods), and
restores the originals on ``uninstall``.  No program file is touched.  A span
wrapper records the call's duration; its self time is the duration minus the
time covered by the spans it encloses.  A count wrapper only counts calls, for
functions called millions of times.

Small arithmetic helpers (``_intfactor.mul``, ``gf_*``, ``LaurentPoly``
operators, ``FiniteGroup.mul``) are deliberately not wrapped: their time
lands in the self time of the layer function that called them, which is the
layer the per-layer metrics speak of, and wrapping them would multiply the
tracing cost.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SPAN = "span"
COUNT = "count"

# (module, attribute, span name, mode).  Several functions may share a name;
# their self times add up under it.
LAYERS = (
    ("words", "parse_presentation", "words.parse", SPAN),
    ("words", "smith_diagonal", "words.smith", SPAN),
    ("alexander", "fox_derivative_abelianized", "alexander.fox", SPAN),
    ("alexander", "alexander_matrix", "alexander.fox", SPAN),
    ("alexander", "_det", "alexander.bareiss", SPAN),
    ("alexander", "mod_p_table", "alexander.mod_p", SPAN),
    ("alexander", "alexander_polynomial", "alexander.polynomial", SPAN),
    ("criteria", "count_prime_index", "criteria.prime_counts", SPAN),
    ("criteria", "classify_prime", "criteria.prime_counts", SPAN),
    ("criteria", "kervaire_check", "criteria.kervaire", SPAN),
    ("criteria", "surjects_to_Z", "criteria.surjects", SPAN),
    ("criteria", "brown_finite_generation", "criteria.brown", SPAN),
    ("criteria", "analyze", "criteria.analyze", SPAN),
    ("laurent", "LaurentPoly.reduce_mod", "criteria.reduce_mod", COUNT),
    ("laurent", "factor_over_Z", "laurent.factor", SPAN),
    ("laurent", "exact_div", "laurent.exact_div", SPAN),
    ("_intfactor", "squarefree_decomposition", "intfactor.squarefree", SPAN),
    ("_intfactor", "int_poly_gcd", "intfactor.gcd", SPAN),
    ("_intfactor", "_choose_prime", "intfactor.prime_choice", SPAN),
    ("_intfactor", "berlekamp", "intfactor.berlekamp", SPAN),
    ("_intfactor", "_left_nullspace", "intfactor.nullspace", SPAN),
    ("_intfactor", "hensel_lift", "intfactor.hensel", SPAN),
    ("_intfactor", "factor_squarefree", "intfactor.recombine", SPAN),
    # Named per call: see Tracer._exact_div_name.
    ("_intfactor", "exact_div_int", "intfactor.exact_div_int", SPAN),
    ("rscover", "reidemeister_schreier", "rscover.rewrite", SPAN),
    ("rscover", "abelianized_recurrence", "rscover.rewrite", SPAN),
    ("repshift", "FiniteGroup.cyclic", "repshift.group", SPAN),
    ("repshift", "FiniteGroup.symmetric", "repshift.group", SPAN),
    ("repshift", "FiniteGroup.from_table", "repshift.group", SPAN),
    ("repshift", "FiniteGroup.power", "repshift.power", COUNT),
    ("repshift", "build_sft", "repshift.build", SPAN),
    ("repshift", "_window_ok", "repshift.window_check", SPAN),
    ("repshift", "_trim", "repshift.trim", SPAN),
    ("repshift", "census", "repshift.census", SPAN),
    ("repshift", "_sccs", "repshift.scc", SPAN),
    ("repshift", "entropy", "repshift.entropy", SPAN),
    ("repshift", "enumerate_periodic", "repshift.periodic", SPAN),
    ("recurrence", "has_integer_biinfinite", "recurrence.solvable", SPAN),
    ("recurrence", "witness_sequence", "recurrence.window", SPAN),
    ("recurrence", "propagate", "recurrence.window", SPAN),
    ("recurrence", "apply_shift_factor", "recurrence.window", SPAN),
    ("recurrence", "minimal_recurrence", "recurrence.minimal", SPAN),
)

TRIAL_DIV = "intfactor.trial_div"
RECOMBINE = "intfactor.recombine"

# Spans kept whole for the trace file; deeper spans are only aggregated.
KEEP_DEPTH = 2
KEEP_MAX = 200_000


class Tracer:
    """Aggregates self time and call counts per span name.

    ``stack`` frames are [name, start_ns, child_ns].  The benchmark opens one
    root span per operation with ``op_span`` so that the spans of one
    operation share its identifier in the trace file.
    """

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.op_id = 0
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter_ns(), 0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        dur = end - frame[1]
        name = frame[0]
        self.self_ns[name] += dur - frame[2]
        self.calls[name] += 1
        depth = len(self.stack)
        if self.stack:
            self.stack[-1][2] += dur
        if depth <= KEEP_DEPTH and len(self.spans) < KEEP_MAX:
            self.spans.append((self.op_id, depth, name, frame[1], end))

    def op_span(self, name: str):
        """Context manager for the root span of one benchmark operation."""
        tracer = self

        class _Op:
            def __enter__(self_inner):
                tracer.op_id += 1
                self_inner.depth = len(tracer.stack)
                self_inner.frame = tracer._enter("op:" + name)

            def __exit__(self_inner, *exc):
                # A deadline may interrupt a wrapper between its push and
                # its pop; drop whatever such an interruption left behind.
                del tracer.stack[self_inner.depth + 1 :]
                tracer._exit(self_inner.frame)
                return False

        return _Op()

    def _exact_div_name(self) -> str:
        # Trial divisions are the exact divisions made by recombination.
        if self.stack and self.stack[-1][0] == RECOMBINE:
            return TRIAL_DIV
        return "intfactor.exact_div_int"

    def _span_wrapper(self, fn, name: str):
        tracer = self
        trial = fn.__name__ == "exact_div_int"
        choose = fn.__name__ == "_choose_prime"
        build = fn.__name__ == "build_sft"

        def wrapper(*args, **kwargs):
            frame = tracer._enter(tracer._exact_div_name() if trial else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if trial and frame[0] == TRIAL_DIV and out is not None:
                tracer.counts["trial_div_hits"] += 1
            elif choose:
                tracer.counts["modular_factors"] += len(out[1])
            elif build:
                tracer.counts["states"] += out.state_count
                tracer.counts["edges"] += sum(len(t) for t in out.successors)
                tracer.counts["essential"] += out.essential_count
            return out

        return functools.update_wrapper(wrapper, fn)

    def _count_wrapper(self, fn, name: str):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind every function in LAYERS in all loaded cycover modules."""
        mods = {n: m for n, m in sys.modules.items() if n == "cycover" or n.startswith("cycover.")}
        for modname, attr, name, mode in LAYERS:
            home = mods["cycover." + modname]
            make = self._span_wrapper if mode == SPAN else self._count_wrapper
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(home, clsname)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(make(raw.__func__, name))
                else:
                    new = make(raw, name)
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(home, attr)
            wrapped = make(orig, name)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / 1e9

    def trace_json(self) -> dict:
        return {
            "self_s": {k: v / 1e9 for k, v in sorted(self.self_ns.items())},
            "calls": dict(sorted(self.calls.items())),
            "counts": dict(sorted(self.counts.items())),
            "spans_kept": len(self.spans),
            "spans": [
                {"op": op, "depth": d, "name": n, "start_ns": s, "end_ns": e}
                for op, d, n, s, e in self.spans
            ],
        }
