"""Representations of the weighting kernel into a finite group, as a shift.

A homomorphism from the kernel to a finite group F assigns an element of F
to each indexed generator a_i, subject to every shift of every template
evaluating to the identity.  These assignments are exactly the biinfinite
paths in a finite graph: states are windows of w consecutive values
(w = template width) and an edge extends a window by one symbol.  The
census classifies that shift: only the trivial point, finitely many
points, infinitely many with zero entropy, or positive entropy.

The edges are found by solving each template for the appended symbol, the
hole, instead of trying every candidate.  A template is rotated so that its
last hole syllable comes last (a word is trivial iff its rotation is); its
hole-free segments are then evaluated on all source windows at once, and
the word reads S0 y^e1 S1 ... y^ek = 1.  With one hole the successors are
the e-th roots of S0^-1, read from a root table; with several, each
candidate y costs one table lookup per segment; with none, the template
allows every successor or none.  Element powers come from a per-element
table, so no cost depends on the size of an exponent.

The graph is stored flat, in CSR (compressed sparse row) form: two
array('I'), `offsets` with one entry per state plus one, and `targets` with
one entry per edge, so the successors of state s are
targets[offsets[s]:offsets[s + 1]], ascending.  A state costs four bytes
plus four per edge and one for its essential flag, and the trim, census,
SCC, entropy and periodic walks index these arrays.  `SftGraph.successors`
reads them back as a sequence of per-state target arrays.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate, chain, compress, islice, permutations, repeat
from operator import gt, not_, sub
from typing import Optional

from .rscover import ShiftPresentation, abelianized_recurrence

STATE_CAP = 10**6
ENTROPY_MAX_ITER = 100000  # power-iteration steps before entropy gives up


class CapExceeded(ValueError):
    """State space or enumeration larger than the fixed cap STATE_CAP."""


class MultiSymbolUnsupported(ValueError):
    """Only single-symbol shift presentations are supported."""


class BadGroupTable(ValueError):
    pass


class FiniteGroup:
    """A finite group given by its multiplication table.

    Element 0 is the identity.  mult[i][j] is the index of g_i * g_j.
    """

    def __init__(self, name: str, labels: tuple[str, ...], mult: tuple[tuple[int, ...], ...]):
        n = len(labels)
        if n == 0:
            raise BadGroupTable("empty group")
        if len(mult) != n or any(len(row) != n for row in mult):
            raise BadGroupTable("multiplication table is not square")
        for row in mult:
            if any(not 0 <= x < n for x in row):
                raise BadGroupTable("table entry out of range")
        # identity checks
        for i in range(n):
            if mult[0][i] != i or mult[i][0] != i:
                raise BadGroupTable("element 0 is not an identity")
        # Latin square (cancellation laws)
        full = set(range(n))
        for i in range(n):
            if set(mult[i]) != full or {mult[j][i] for j in range(n)} != full:
                raise BadGroupTable("table is not a Latin square")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if mult[i][j] == 0:
                    inv[i] = j
                    break
        if any(v is None for v in inv):
            raise BadGroupTable("missing inverses")
        self.name = name
        self.labels = labels
        self.mult = mult
        self.inv = tuple(inv)
        # powers[x] = (x^0, x^1, ..., x^(k-1)) with k the order of x; right
        # multiplication by x is a bijection, so the walk returns to 0.
        powers = []
        for x in range(n):
            seq = [0]
            cur = x
            while cur != 0:
                seq.append(cur)
                cur = mult[cur][x]
            powers.append(tuple(seq))
        self.powers = tuple(powers)

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, i: int, j: int) -> int:
        return self.mult[i][j]

    def power(self, i: int, e: int) -> int:
        seq = self.powers[i]
        return seq[e % len(seq)]

    def power_map(self, e: int) -> list[int]:
        """[x^e for x in the group], read from the power table."""
        return [seq[e % len(seq)] for seq in self.powers]

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.mult[i][j] == self.mult[j][i] for i in range(n) for j in range(i))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.order})"

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if not 1 <= n <= 64:
            raise BadGroupTable(f"cyclic order must be in [1, 64], got {n}")
        labels = tuple(str(i) for i in range(n))
        mult = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls(f"cyclic({n})", labels, mult)

    @classmethod
    def symmetric(cls, k: int) -> "FiniteGroup":
        """Permutations of k points in lexicographic order, identity first.

        Composition convention: (f*g)(x) = f(g(x)).
        """
        if not 1 <= k <= 5:
            raise BadGroupTable(f"symmetric degree must be in [1, 5], got {k}")
        perms = sorted(permutations(range(k)))
        index = {p: i for i, p in enumerate(perms)}
        mult = tuple(
            tuple(index[tuple(f[g[x]] for x in range(k))] for g in perms) for f in perms
        )
        labels = tuple(_cycle_notation(p) for p in perms)
        return cls(f"symmetric({k})", labels, mult)

    @classmethod
    def from_table(cls, text: str, name: str = "custom") -> "FiniteGroup":
        """First line: order n.  Then n lines of n indices; element 0 = identity.

        Unlike the built-in groups, the table is checked for associativity.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise BadGroupTable("empty table file")
        try:
            n = int(lines[0])
        except ValueError:
            raise BadGroupTable(f"bad order line: {lines[0]!r}")
        if len(lines) != n + 1:
            raise BadGroupTable(f"expected {n} table rows, got {len(lines) - 1}")
        mult = []
        for ln in lines[1:]:
            try:
                row = tuple(int(x) for x in ln.split())
            except ValueError:
                raise BadGroupTable(f"bad table row: {ln!r}")
            mult.append(row)
        labels = tuple(f"g{i}" for i in range(n))
        group = cls(name, labels, tuple(mult))
        # (ab)c = a(bc) for all c: row ab equals row b mapped through row a
        for a, row in enumerate(mult):
            for b in range(n):
                ab_c, a_bc = mult[row[b]], tuple(map(row.__getitem__, mult[b]))
                if ab_c != a_bc:
                    c = next(c for c in range(n) if ab_c[c] != a_bc[c])
                    raise BadGroupTable(
                        f"table is not associative: ({a}*{b})*{c} != {a}*({b}*{c})"
                    )
        return group


def _cycle_notation(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        cycles.append(cyc)
    if not cycles:
        return "id"
    return "".join("(" + "".join(str(x + 1) for x in c) + ")" for c in cycles)


class Successors(Sequence):
    """The edges of a shift graph in CSR form, read as one sequence per state.

    `offsets` (n + 1 entries) and `targets` (one per edge) are array('I');
    item s is targets[offsets[s]:offsets[s + 1]], the ascending successors
    of state s, as a new array, so the graph cannot be changed through it.
    """

    __slots__ = ("offsets", "targets")

    def __init__(self, offsets: array, targets: array):
        self.offsets = offsets
        self.targets = targets

    @classmethod
    def from_rows(cls, rows) -> "Successors":
        """From (base, ys) pairs, one per state in state order: the targets
        of the state are base + y for y in ys."""
        offsets = array("I", [0])
        targets = array("I")
        append, mark = targets.append, offsets.append
        for base, ys in rows:
            for y in ys:
                append(base + y)
            mark(len(targets))
        return cls(offsets, targets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, s: int) -> array:
        s = range(len(self))[s]
        return self.targets[self.offsets[s] : self.offsets[s + 1]]

    def __iter__(self):
        offsets = self.offsets
        return map(self.targets.__getitem__, map(slice, offsets, islice(offsets, 1, None)))

    def __eq__(self, other):
        if not isinstance(other, Successors):
            return NotImplemented
        return self.offsets == other.offsets and self.targets == other.targets

    def __repr__(self):
        return f"Successors({[t.tolist() for t in self]})"


def _sources(offsets: array):
    """The source state of every edge, in edge order (an iterator)."""
    degrees = map(sub, islice(offsets, 1, None), offsets)
    return chain.from_iterable(map(repeat, range(len(offsets) - 1), degrees))


class SftGraph:
    """Transition graph of the representation shift.

    States are windows of `window` consecutive group elements, encoded
    big-endian: index = sum of digit_k * order^(window-1-k).  An edge
    appends one element on the right; the label of a state is its first
    (most significant) coordinate.

    `successors` holds the edges in CSR form (see `Successors`).  `essential`
    is a bytearray, 1 for the states left by the trim: those on a
    biinfinite path.
    """

    __slots__ = ("window", "group", "successors", "essential")

    def __init__(self, window: int, group: FiniteGroup, successors: Successors):
        self.window = window
        self.group = group
        self.successors = successors
        self.essential = _trim(successors)

    @property
    def state_count(self) -> int:
        return len(self.successors)

    @property
    def essential_count(self) -> int:
        return self.essential.count(1)


def _trim(successors: Successors) -> bytearray:
    """Iteratively drop states with no predecessor or no successor.

    First the states without a predecessor go, found by following
    successors; every survivor then has a predecessor.  Then the states
    without a successor go, found by following predecessors, which a
    counting sort of the surviving edges by target lays out in CSR form;
    removing such a state takes no predecessor from a survivor.
    """
    offsets, targets = successors.offsets, successors.targets
    n = len(successors)
    alive = bytearray(b"\x01") * n
    in_deg = [0] * n
    for t in targets:
        in_deg[t] += 1
    dead = list(compress(range(n), map(not_, in_deg))) if 0 in in_deg else []
    while dead:
        s = dead.pop()
        alive[s] = 0
        for t in targets[offsets[s] : offsets[s + 1]]:
            in_deg[t] -= 1
            if not in_deg[t]:
                dead.append(t)
    # A survivor's successors all survive, so its out-degree is its own;
    # alive[s] > out_deg[s] picks the survivors without a successor.
    out_deg = list(map(sub, islice(offsets, 1, None), offsets))
    dead = list(compress(range(n), map(gt, alive, out_deg))) if 0 in out_deg else []
    if not dead:
        return alive
    # in_deg now counts surviving predecessors
    pred_offsets = list(accumulate(in_deg, initial=0))
    fill = pred_offsets[1:]
    preds = array("I", bytes(4 * pred_offsets[-1]))
    for s in compress(range(n), alive):
        for t in targets[offsets[s] : offsets[s + 1]]:
            fill[t] -= 1
            preds[fill[t]] = s
    while dead:
        t = dead.pop()
        alive[t] = 0
        for s in preds[pred_offsets[t] : pred_offsets[t + 1]]:
            out_deg[s] -= 1
            if not out_deg[s]:
                dead.append(s)
    return alive


def build_sft(sp: ShiftPresentation, F: FiniteGroup) -> SftGraph:
    """Transition graph over F for a single-symbol shift presentation.

    The successors of a source window are the values y of the newest offset
    w, the hole, for which every template is trivial on the window extended
    by y.  Each template is solved for y (see the module docstring) and the
    solutions of several templates are intersected, in ascending order.  A
    template narrower than w is checked at offset 0 only: its other shifts
    are checked from the other windows.  Over an abelian F each template is
    replaced by its exponent sums per offset, so it has at most one hole
    syllable.

    Width-0 presentations (all template letters at one index) get a graph
    on F itself whose edges leave the states satisfying the unary relation.
    """
    if len(sp.symbols) != 1:
        raise MultiSymbolUnsupported(f"need exactly one symbol, have {len(sp.symbols)}")
    n = F.order
    w = sp.width
    eff_w = max(w, 1)
    if n**eff_w > STATE_CAP:
        raise CapExceeded(f"{n}^{eff_w} states exceed the cap of {STATE_CAP}")

    templates = [[(off, e) for _, off, e in tpl] for tpl in sp.templates]
    if F.is_abelian():
        # Exponent sums suffice for an abelian target.
        rows = abelianized_recurrence(sp)
        templates = [list(r.coefficients) for r in rows]

    if w == 0:
        rows = (range(n) if _window_ok(templates, (x,), F) else () for x in range(n))
        successors = Successors.from_rows(zip(repeat(0), rows))
        return SftGraph(window=w, group=F, successors=successors)

    solved = [_solve_template(tpl, F, w) for tpl in templates]
    allowed = iter(solved[0]) if len(solved) == 1 else map(_intersect, *solved)
    # State s keeps its last w-1 digits, (s mod n^(w-1)) * n, and appends y;
    # the states run through these stubs once per leading digit, taking the
    # next items of `allowed`.
    stubs = chain.from_iterable(repeat(range(0, n**w, n), n))
    successors = Successors.from_rows(zip(stubs, allowed))
    del solved, allowed  # free the segment values before the trim
    return SftGraph(window=w, group=F, successors=successors)


def _window_ok(templates, window, F: FiniteGroup) -> bool:
    for tpl in templates:
        acc = 0
        for off, e in tpl:
            acc = F.mul(acc, F.power(window[off], e))
        if acc != 0:
            return False
    return True


def _intersect(first, *rest):
    return [y for y in first if all(y in ys for ys in rest)]


def _solve_template(tpl, F: FiniteGroup, w: int):
    """The allowed hole values of one template, ascending, for each source
    window in state order (an iterator)."""
    if all(off != w for off, _ in tpl):
        tpl = tpl + [(w, 0)]  # S y^0 = 1 allows every y or none
    cut = max(i for i, (off, _) in enumerate(tpl) if off == w) + 1
    segments, exps, seg = [], [], []
    for off, e in tpl[cut:] + tpl[:cut]:
        if off == w:
            segments.append(_segment_values(seg, F, w))
            exps.append(e)
            seg = []
        else:
            seg.append((off, e))
    if len(exps) > 1:
        return _try_candidates(segments, [F.power_map(e) for e in exps], F.mult, F.order)
    # S y^e = 1: y runs over the e-th roots of S^-1, listed under S.
    roots = [[] for _ in range(F.order)]
    for y, g in enumerate(F.power_map(exps[0])):
        roots[F.inv[g]].append(y)
    return map(roots.__getitem__, segments[0])


def _try_candidates(segments, maps, mult, n: int):
    """S0 y^e1 S1 y^e2 ... = 1, tested for every y: one lookup per segment."""
    for vals in zip(*segments):
        pairs = list(zip(vals, maps))
        ys = []
        for y in range(n):
            acc = 0
            for v, pm in pairs:
                acc = mult[mult[acc][v]][pm[y]]
            if acc == 0:
                ys.append(y)
        yield ys


def _segment_values(seg, F: FiniteGroup, w: int) -> list[int]:
    """Value of a hole-free word on every source window, in state order.

    The word is cut into runs of strictly increasing offsets.  A run is
    evaluated by prefix expansion over the window digits, most significant
    first, and the runs are multiplied pointwise.
    """
    mult = F.mult
    runs: list[dict[int, int]] = []
    for off, e in seg:
        if not runs or off <= max(runs[-1]):
            runs.append({})
        runs[-1][off] = e
    out = None
    for run in runs:
        val = [0]
        for pos in range(w):
            pm = F.power_map(run.get(pos, 0))
            val = [mult[v][x] for v in val for x in pm]
        out = val if out is None else [mult[a][b] for a, b in zip(out, val)]
    return [0] * F.order**w if out is None else out


class RepCensus:
    # classification: OnlyTrivial | Finite | InfiniteZeroEntropy | PositiveEntropy
    __slots__ = ("classification", "count", "entropy", "state_count", "essential_count")

    def __init__(
        self,
        classification: str,
        count: Optional[int],
        entropy: float,
        state_count: int,
        essential_count: int,
    ):
        self.classification = classification
        self.count = count  # number of points when finite (1 for OnlyTrivial)
        self.entropy = entropy
        self.state_count = state_count
        self.essential_count = essential_count


def census(g: SftGraph, tol: float = 1e-6) -> RepCensus:
    ess_count = g.essential_count
    assert ess_count >= 1, "the all-identity state is always essential"
    if ess_count == 1:
        return RepCensus("OnlyTrivial", 1, 0.0, g.state_count, 1)
    _, offsets, targets = _essential_adjacency(g)
    # Every essential state keeps an essential successor and predecessor,
    # so the essential subgraph has at least one edge per state, and
    # exactly one iff every in- and out-degree in it is one.
    if len(targets) == ess_count:
        return RepCensus("Finite", ess_count, 0.0, g.state_count, ess_count)
    if _all_sccs_simple_cycles(offsets, targets):
        return RepCensus(
            "InfiniteZeroEntropy", None, 0.0, g.state_count, ess_count
        )
    h = _perron_log(offsets, targets, tol)
    return RepCensus("PositiveEntropy", None, h, g.state_count, ess_count)


def _essential_adjacency(g: SftGraph) -> tuple[Sequence[int], array, array]:
    """The subgraph on the essential states, in CSR form, as (nodes,
    offsets, targets): node i is state nodes[i], in state order.  When
    every state is essential this is the graph itself."""
    ess = g.essential
    offsets, targets = g.successors.offsets, g.successors.targets
    if 0 not in ess:
        return range(len(ess)), offsets, targets
    nodes = list(compress(range(len(ess)), ess))
    index = array("I", bytes(4 * len(ess)))
    for i, s in enumerate(nodes):
        index[s] = i
    sub_offsets = array("I", [0])
    sub_targets = array("I")
    append, mark = sub_targets.append, sub_offsets.append
    for s in nodes:
        for t in targets[offsets[s] : offsets[s + 1]]:
            if ess[t]:
                append(index[t])
        mark(len(sub_targets))
    return nodes, sub_offsets, sub_targets


def _sccs(offsets: array, targets: array) -> list[list[int]]:
    """Tarjan's algorithm, iterative, over a graph in CSR form."""
    n = len(offsets) - 1
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    sccs = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        # each frame is (state, next edge to follow)
        work = [(root, offsets[root])]
        while work:
            v, i = work[-1]
            if index[v] == -1:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            end = offsets[v + 1]
            while i < end:
                u = targets[i]
                i += 1
                if index[u] == -1:
                    work[-1] = (v, i)
                    work.append((u, offsets[u]))
                    break
                if on_stack[u] and index[u] < low[v]:
                    low[v] = index[u]
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        u = stack.pop()
                        on_stack[u] = 0
                        comp.append(u)
                        if u == v:
                            break
                    sccs.append(comp)
    return sccs


def _all_sccs_simple_cycles(offsets: array, targets: array) -> bool:
    """True when no strongly connected component carries two distinct cycles.

    A component is a simple cycle iff its internal edge count equals its
    size; singletons without self-loops carry no cycle at all.
    """
    sccs = _sccs(offsets, targets)
    comp_of = [0] * (len(offsets) - 1)
    for ci, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = ci
    internal_edges = [0] * len(sccs)
    for v, u in zip(_sources(offsets), targets):
        if comp_of[u] == comp_of[v]:
            internal_edges[comp_of[v]] += 1
    for ci, comp in enumerate(sccs):
        if len(comp) == 1 and internal_edges[ci] == 0:
            continue  # transit state, no cycle
        if internal_edges[ci] != len(comp):
            return False
    return True


def entropy(g: SftGraph, tol: float = 1e-6) -> float:
    """Log of the Perron root of the essential adjacency matrix.

    Power iteration on exact integer vectors applied to (A + I); the +I
    keeps periodic graphs from oscillating.  The growth ratio of the
    vector sum converges to 1 + the Perron root of A.
    """
    _, offsets, targets = _essential_adjacency(g)
    return _perron_log(offsets, targets, tol)


def _perron_log(offsets: array, targets: array, tol: float) -> float:
    """`entropy` of the essential subgraph given in CSR form."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a finite positive number, not {tol}")
    n = len(offsets) - 1
    if len(targets) <= n:
        # one essential successor per essential state: disjoint cycles
        return 0.0
    sources = list(_sources(offsets))
    v = [1] * n
    prev_ratio = None
    total = n
    for _ in range(ENTROPY_MAX_ITER):
        nxt = list(v)  # the +I part
        for s, t in zip(sources, targets):
            nxt[t] += v[s]
        new_total = sum(nxt)
        ratio = new_total / total
        if prev_ratio is not None and abs(ratio - prev_ratio) < tol:
            return math.log(ratio - 1.0) if ratio > 1.0 else 0.0
        prev_ratio = ratio
        v, total = nxt, new_total
        if total.bit_length() > 4000:
            # renormalize by a power of two to keep integers bounded
            shift = total.bit_length() - 2000
            v = [max(x >> shift, 1) for x in v]
            total = sum(v)
            prev_ratio = None
    raise ArithmeticError("entropy iteration did not converge")


def enumerate_periodic(g: SftGraph, max_period: int) -> list[tuple[str, ...]]:
    """All labelings of closed walks of length exactly max_period.

    Each walk gives the label sequence of its states' first coordinates;
    different phases of one orbit are distinct labelings.  Points of
    smaller period dividing max_period appear as their repeated tuples.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    N = max_period
    results: list[tuple[int, ...]] = []
    nodes, offsets, targets = _essential_adjacency(g)
    # the walks read single items, which lists hand out unboxed
    offsets, targets = offsets.tolist(), targets.tolist()
    scale = g.group.order ** (max(g.window, 1) - 1)
    first = [s // scale for s in nodes]  # the label of each node
    if N == 1:  # the self-loops
        loops = (v for v in range(len(nodes)) if v in targets[offsets[v] : offsets[v + 1]])
        results = [(first[v],) for v in loops]
    last = N - 1
    for start in range(len(nodes)) if N > 1 else ():
        # DFS over walks start = v0, v1, ..., v(N-1), where iters[d] yields
        # the candidates for v(d+1); the walk closes iff start follows
        # v(N-1), which a search of its ascending successors tells
        path = [start]
        iters = [iter(targets[offsets[start] : offsets[start + 1]])]
        while iters:
            v = next(iters[-1], None)
            if v is None:
                iters.pop()
                path.pop()
                continue
            if len(iters) < last:
                path.append(v)
                iters.append(iter(targets[offsets[v] : offsets[v + 1]]))
                continue
            hi = offsets[v + 1]
            j = bisect_left(targets, start, offsets[v], hi)
            if j < hi and targets[j] == start:
                results.append(tuple(map(first.__getitem__, path)) + (first[v],))
                if len(results) > STATE_CAP:
                    raise CapExceeded("periodic labeling count exceeds cap")
    results.sort()
    labels = g.group.labels
    return [tuple(labels[x] for x in tup) for tup in results]
