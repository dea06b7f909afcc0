"""Representations of the weighting kernel into a finite group, as a shift.

A homomorphism from the kernel to a finite group F assigns an element of F
to each indexed generator a_i, subject to every shift of every template
evaluating to the identity.  These assignments are exactly the biinfinite
paths in a finite graph: states are windows of w consecutive values
(w = template width) and an edge extends a window by one symbol.  The
census classifies that shift: only the trivial point, finitely many
points, infinitely many with zero entropy, or positive entropy.

The edges are found by solving each template for the appended symbol, the
hole, instead of trying every candidate.  A template is rotated so that a
hole syllable comes last (a word is trivial iff its rotation is); its
hole-free segments are then evaluated on the windows to solve only, one
syllable at a time, each reading the digit at its offset.  The word reads
S0 y^e1 S1 ... y^ek = 1, i.e. S0 = L(y)^-1.  L depends on a window only
through its inner tuple (S1, ..., S(k-1)), so the windows are grouped by
that tuple, and one table per tuple, listing each y under L(y)^-1,
answers its windows by a lookup on S0.
With one hole that is the table of e-th roots; with none, the template
allows every successor or none.  Element powers come from a per-element
table, so no cost depends on the size of an exponent.

Conjugating every coordinate of a window by one element of F maps the
graph onto itself: a template is a word, so its value on the conjugated
window is the conjugate of its value, trivial exactly when that is.  So
conjugation permutes the states, the edges and the essential states, and
the trim, the census and the periodic walks work on its orbits
(Lind-Marcus, *Symbolic Dynamics and Coding*, 4.4; Godsil-Royle,
*Algebraic Graph Theory*, 9.3).  When the graph is built, every window
gets the label of its orbit from a canonical form, one digit at a time:
the first digit goes to its class, then each prefix's stabilizer acts on
the next digit (`_label_orbits`).  F keeps the `Orbits` of each window
length, every window's label and carrier, derived once, when a graph first
needs them, and shared by every graph over F of that window.  The
templates are solved for the orbits' representatives only, and the graph
keeps their digits and nothing per state.  Every other view is cached on
its first read: the orbit graph B, which the program reads, with B[O, O']
edges from orbit O to orbit O', one for each successor of rep(O) in O'; the
per-state successors and essential flags, read by the tests and the
benchmark only.  Every state s of O has that many successors in O' (the
partition is equitable), so row s of A^k sums to B^k[O, O'] over O': B has
the Perron root of A, and B on the essential orbits that of the essential
subgraph.  The trim and the census run on B: a state is essential, or has
one essential successor, exactly when its orbit does, and the components of
B decide zero entropy.  The power iteration of the entropy,
v <- (I + A^T) v from v = 1, keeps v constant on orbits, so it runs as
u <- (I + B^T) u from u[O] = |O|: with u[O] = |O| * v[O],
u'[O'] = u[O'] + sum over O of B[O, O'] * u[O] is |O'| times the step of
v.  So every total of the iteration, the floors that keep it bounded
included, is that of the iteration over all states, and so is the
entropy.  Closed walks are searched from each orbit's representative,
stepping by the digits and carriers, and conjugated into those of the
other states.  An abelian F has no inner automorphisms: the graph keeps
no labels, every orbit is one state, and B is the graph itself.

Over an abelian F only the exponent sums of the templates matter, and the
shift is a group shift (Kitchens, *Ergod. Th. Dyn. Sys.* 7, 1987): its e
essential windows form a subgroup of F^w, each with d essential
successors, which `build_sft` counts by linear algebra
(`rscover.essential_window_counts`).  The essential graph is d-regular, so
the census reads e and d alone; the per-state graph, which is its own
orbit graph, waits for a first read.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from collections.abc import Sequence
from functools import cached_property
from itertools import accumulate, chain, compress, islice, permutations, repeat
from operator import gt, not_, sub
from typing import Optional

from .rscover import ShiftPresentation, abelianized_recurrence, essential_window_counts

STATE_CAP = 10**6
MAX_SYMMETRIC_DEGREE = 6  # the table of S7 would hold 25.4M entries
MAX_CYCLIC_ORDER = 64
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
        """Derives only, and checks nothing: `mult` must be a group's table,
        as `cyclic` and `symmetric` build it (`from_table` checks one)."""
        self.order = n = len(labels)
        self.name = name
        self.labels = labels
        self.mult = mult
        self.inv = tuple(row.index(0) for row in mult)  # every row holds 0 once
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
        # A generating set, greedily, larger orders first to keep it short
        # (two elements for S3, S4 and S5, three for S6): every element is a
        # left-nested product of generators, so F is abelian exactly when
        # its generators commute pairwise.
        span, gens = {0}, []
        for x in sorted(range(n), key=lambda x: -len(powers[x])):
            if x in span:
                continue
            gens.append(x)
            todo = list(span)
            while todo:
                a = todo.pop()
                for y in gens:
                    b = mult[a][y]
                    if b not in span:
                        span.add(b)
                        todo.append(b)
            if len(span) == n:
                break
        self.generators = tuple(gens)
        # Conjugation rows, conj[g][x] = g x g^-1, and the order of the
        # centre, for a non-abelian F only; levels[k], the `Orbits` of the
        # windows of k + 1 digits (level 0: the conjugacy classes), which
        # `_label_orbits` derives once each, when a graph first needs them.
        self.conj, self.levels = None, []
        self.centre_order = n
        if any(mult[x][y] != mult[y][x] for x in gens for y in gens):
            cols = tuple(zip(*mult))  # cols[x][g] = g x
            self.conj = tuple(tuple(map(cols[i].__getitem__, row)) for row, i in zip(mult, self.inv))
            self.centre_order = self.conj.count(self.conj[0])

    def mul(self, i: int, j: int) -> int:
        return self.mult[i][j]

    def power(self, i: int, e: int) -> int:
        seq = self.powers[i]
        return seq[e % len(seq)]

    def power_map(self, e: int) -> list[int]:
        """[x^e for x in the group], read from the power table."""
        return [seq[e % len(seq)] for seq in self.powers]

    def is_abelian(self) -> bool:
        return self.conj is None

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.order})"

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if not 1 <= n <= MAX_CYCLIC_ORDER:
            raise BadGroupTable(f"cyclic order must be in [1, {MAX_CYCLIC_ORDER}], got {n}")
        labels = tuple(map(str, range(n)))
        mult = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls(f"cyclic({n})", labels, mult)

    @classmethod
    def symmetric(cls, k: int) -> "FiniteGroup":
        """Permutations of k points in lexicographic order, identity first.

        Composition convention: (f*g)(x) = f(g(x)).  Only the rows of the
        generators (0 1) and (0 1 ... k-1) are composed as permutations.
        Left multiplication is a homomorphism, row(s*g) = row(s) o row(g),
        so every other row is grown from the identity's by a search over
        the generators, each found once as one row mapped through another.
        """
        if not 1 <= k <= MAX_SYMMETRIC_DEGREE:
            raise BadGroupTable(f"symmetric degree must be in [1, {MAX_SYMMETRIC_DEGREE}], got {k}")
        perms = tuple(permutations(range(k)))  # lexicographic, identity first
        index = {p: i for i, p in enumerate(perms)}
        gens = {(*range(1, k), 0), (1, 0, *range(2, k)) if k > 1 else (0,)}
        gen_rows = [tuple(index[tuple(map(g.__getitem__, p))] for p in perms) for g in gens]
        rows = [None] * len(perms)
        rows[0] = tuple(range(len(perms)))
        todo = [0]
        for s in todo:
            row = rows[s]
            for g in gen_rows:
                sg = row[g[0]]  # g[0] = g*id indexes the generator itself
                if rows[sg] is None:
                    rows[sg] = tuple(map(row.__getitem__, g))
                    todo.append(sg)
        labels = tuple(_cycle_notation(p) for p in perms)
        return cls(f"symmetric({k})", labels, tuple(rows))

    @classmethod
    def from_table(cls, text: str, name: str = "custom") -> "FiniteGroup":
        """First line: order n.  Then n lines of n indices; element 0 = identity.

        The way in for tables from outside, so every check runs here: square,
        entries in [0, n), 0 an identity, a Latin square, and then, on the
        group built, associativity by Light's test: (x g) y = x (g y) for
        every generator g only.  The elements that pass are closed under
        products, and every element is a product of generators, so then
        every element passes.  Only a table that fails is scanned for its
        first failing triple, for the message.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise BadGroupTable("empty table file")
        try:
            n = int(lines[0])
        except ValueError:
            n = 0  # reported like an order below 1
        if n < 1:
            raise BadGroupTable(f"bad order line: {lines[0]!r}")
        if len(lines) != n + 1:
            raise BadGroupTable(f"expected {n} table rows, got {len(lines) - 1}")
        mult = []
        for ln in lines[1:]:
            try:
                mult.append(tuple(map(int, ln.split())))
            except ValueError:
                raise BadGroupTable(f"bad table row: {ln!r}")
        if any(len(row) != n for row in mult):
            raise BadGroupTable("multiplication table is not square")
        if min(map(min, mult)) < 0 or max(map(max, mult)) >= n:
            raise BadGroupTable("table entry out of range")
        if any(mult[0][i] != i or mult[i][0] != i for i in range(n)):
            raise BadGroupTable("element 0 is not an identity")
        full = set(range(n))  # a Latin square: the cancellation laws
        if any(set(row) != full for row in mult) or any(set(col) != full for col in zip(*mult)):
            raise BadGroupTable("table is not a Latin square")
        labels = tuple(f"g{i}" for i in range(n))
        group = cls(name, labels, tuple(mult))
        if _first_non_associative(group.mult, group.generators):
            a, b, c = _first_non_associative(group.mult, range(n))
            raise BadGroupTable(f"table is not associative: ({a}*{b})*{c} != {a}*({b}*{c})")
        return group


def _first_non_associative(mult, middles) -> Optional[tuple[int, int, int]]:
    """The first triple (a, b, c), by a and then by the order of middles,
    with b in middles and (ab)c != a(bc), or None.  (ab)c = a(bc) for all c
    when row ab equals row b mapped through row a."""
    for a, row in enumerate(mult):
        for b in middles:
            ab_c, a_bc = mult[row[b]], tuple(map(row.__getitem__, mult[b]))
            if ab_c != a_bc:
                return a, b, next(c for c in range(len(mult)) if ab_c[c] != a_bc[c])
    return None


def _cycle_notation(perm: tuple[int, ...]) -> str:
    seen, cycles = set(), []
    for x in range(len(perm)):
        cycle = []
        while x not in seen:
            seen.add(x)
            cycle.append(str(x + 1))
            x = perm[x]
        if len(cycle) > 1:
            cycles.append("(" + "".join(cycle) + ")")
    return "".join(cycles) or "id"


class Successors(Sequence):
    """Edges in CSR (compressed sparse row) form, read as one sequence per node.

    `offsets` (n + 1 entries) and `targets` (one per edge) are array('I');
    item s is targets[offsets[s]:offsets[s + 1]], the successors of node s,
    as a new array, so the graph cannot be changed through it.  A shift
    graph's successors are ascending; an orbit graph's are in the order of
    its representative's digits, parallel edges apart.
    """

    __slots__ = ("offsets", "targets")

    def __init__(self, offsets: array, targets: array):
        self.offsets = offsets
        self.targets = targets

    @classmethod
    def from_rows(cls, n: int, w: int, rows, states=None) -> "Successors":
        """The successors of windows of max(w, 1) digits over n elements,
        one row of last digits y per window: those of window s are
        (s mod n^(w-1)) n + y.  The windows are `states`, or every window
        in order."""
        span = n ** max(w, 1)
        if states is None:
            bases = chain.from_iterable(repeat(range(0, span, n), n))
        else:
            bases = (s * n % span for s in states)
        offsets = array("I", [0])
        targets = array("I")
        append, mark = targets.append, offsets.append
        for base, ys in zip(bases, rows):
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

    A graph keeps its conjugacy orbits (see `Orbits`; None over an abelian
    F, where each state is its own orbit) and the digits of each orbit's
    representative r: digits[o] lists the y that may follow r, whose
    successors are (r mod n^(w-1)) n + y.  An abelian build keeps the
    abelianized templates and `counts`, (e, d) (see the module docstring),
    and no digits: every window's are solved on the first read of the
    orbit graph, straight into its successors.

    Every other view is a cached property, derived once, on its first
    read: `_orbit_graph`, the orbit graph in CSR form, one node per orbit,
    and the trim's flags on it, which the program reads; and, for the tests
    and the benchmark only, `essential`, 1 for the states on a biinfinite
    path, and `successors`, each state's from its representative's digits,
    conjugated by its carrier; over an abelian F, `_orbit_graph`'s own two.
    """

    __slots__ = ("window", "group", "state_count", "orbits", "digits", "templates", "counts", "__dict__")

    def __init__(self, window: int, group: FiniteGroup, digits: Optional[list] = None,
                 orbits: Optional[Orbits] = None, templates=None, counts=None):
        if orbits is None and not group.is_abelian():
            raise TypeError("a graph over a non-abelian group is built from its orbits and digits")
        self.window = window
        self.group = group
        self.digits, self.orbits, self.templates, self.counts = digits, orbits, templates, counts
        self.state_count = group.order ** max(window, 1)

    @cached_property
    def _orbit_graph(self) -> tuple[Successors, bytearray]:
        """The orbit graph and the trim's flags on it, derived in one read:
        over an abelian F, before the caller allocates anything more."""
        n, w, orbits = self.group.order, self.window, self.orbits
        if orbits is None:
            rows = self.digits
            if rows is None:
                rows = _allowed(self.templates, self.group, w, range(self.state_count))
            edges = Successors.from_rows(n, w, rows)
        else:
            # An edge from orbit o to the orbit of each successor of its
            # representative.  Conjugation is an automorphism, so a state
            # survives the trim exactly when its orbit does.
            edges = Successors.from_rows(n, w, self.digits, orbits.reps)
            edges.targets = array("I", map(orbits.label.__getitem__, edges.targets))
        return edges, _trim(edges)

    @cached_property
    def successors(self) -> Successors:
        conj, digits, orbits = self.group.conj, self.digits, self.orbits
        if orbits is None:
            return self._orbit_graph[0]
        rows = (sorted(map(conj[h].__getitem__, digits[o])) for o, h in zip(orbits.label, orbits.carry))
        return Successors.from_rows(self.group.order, self.window, rows)

    @cached_property
    def essential(self) -> bytearray:
        if self.orbits is None:
            return self._orbit_graph[1]
        alive = list(self._orbit_graph[1])  # lists index faster
        return bytearray(map(alive.__getitem__, self.orbits.label))

    @property
    def essential_count(self) -> int:
        if self.counts:
            return self.counts[0]
        return sum(compress(repeat(1) if self.orbits is None else self.orbits.sizes, self._orbit_graph[1]))


class Orbits:
    """The orbits of the windows of w digits under conjugation by F, level
    w - 1 of `F.levels`, shared read-only by the graphs over F of window w.

    Window s lies in orbit label[s], and the conjugation by carry[s] carries
    the representative of that orbit to s; both are array('I').  Orbit o
    has sizes[o] windows, and its least window reps[o] is its
    representative, fixed by the elements stabs[o] of F, ascending.
    """

    __slots__ = ("label", "carry", "reps", "sizes", "stabs")

    def __init__(self, F: FiniteGroup, label, carry, reps, stabs):
        self.label = label
        self.carry = carry
        self.reps = reps
        self.stabs = stabs
        self.sizes = [F.order // len(stab) for stab in stabs]


def _label_orbits(F: FiniteGroup, w: int) -> Orbits:
    """The conjugacy orbits of the windows of w >= 1 digits over a
    non-abelian F, labelled by a canonical form, one digit at a time
    (Holt-Eick-O'Brien, *Handbook of Computational Group Theory*, ch. 4).

    A window (p, x) whose prefix p is h . r, with r the representative of
    the prefix's orbit, is conjugate by h to (r, h^-1 x h), and the
    stabilizer of r moves only that last digit.  So each orbit of prefixes
    has a table over F, and a window costs one lookup in its prefix's
    table (`_next_level`).  The orbits depend on F and w alone: the levels
    of `F.levels` up to w - 1 that no earlier graph over F needed are
    derived here, once, each from the one before.
    """
    levels = F.levels
    while len(levels) < w:  # level 0 extends the empty window, fixed by all of F
        prev = levels[-1] if levels else Orbits(F, [0], [0], [0], [range(F.order)])
        levels.append(_next_level(F, prev))
    return levels[w - 1]


def _next_level(F: FiniteGroup, prev: Orbits) -> Orbits:
    """The orbits of the windows one digit longer than those of prev.

    Each orbit o of prev gets a table, a pair of rows over the new digit y:
    the orbit of the window (reps[o], y), and an element of stabs[o] that
    conjugates the least digit of that orbit to y; or, when stabs[o] is the
    centre, which moves no digit, a range and None: each y is an orbit of
    its own.  A window's prefix carrier h takes its new digit x to
    h^-1 x h, and the table's carrier c makes the window's h c.
    """
    n, mult, conj, inv = F.order, F.mult, F.conj, F.inv
    tables = []
    reps = []
    stabs = []
    for r, stab in zip(prev.reps, prev.stabs):
        first = len(reps)
        r *= n
        if len(stab) == F.centre_order:
            tables.append((range(first, first + n), None))
            reps += range(r, r + n)
            stabs += repeat(stab, n)
            continue
        row_label, row_carry = [-1] * n, [0] * n
        for y in range(n):
            if row_label[y] >= 0:
                continue
            o = len(reps)
            reps.append(r + y)
            fix = []
            for c in stab:
                x = conj[c][y]
                if x == y:
                    fix.append(c)
                if row_label[x] < 0:
                    row_label[x] = o
                    row_carry[x] = c
            stabs.append(fix if len(fix) < len(stab) else stab)
        tables.append((row_label, row_carry))
    label, carry = array("I"), array("I")
    for o, h in zip(prev.label, prev.carry):
        row_label, row_carry = tables[o]
        back = conj[inv[h]]
        label.extend(map(row_label.__getitem__, back))
        if row_carry is None:
            carry.extend(repeat(h, n))
        else:
            carry.extend(map(mult[h].__getitem__, map(row_carry.__getitem__, back)))
    return Orbits(F, label, carry, reps, stabs)


def _trim(graph: Successors) -> bytearray:
    """Iteratively drop states with no predecessor or no successor.

    First the states without a predecessor go, found by following
    successors; every survivor then has a predecessor.  Then the states
    without a successor go, found by following predecessors, which a
    counting sort of the surviving edges by target lays out in CSR form;
    removing such a state takes no predecessor from a survivor.
    """
    offsets, targets = graph.offsets, graph.targets
    n = len(graph)
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
    Over a non-abelian F only the orbit representatives are solved, and the
    graph keeps their digits (see `SftGraph`).  Over an abelian F nothing is
    solved: the graph keeps the counts of its essential windows.
    """
    if len(sp.symbols) != 1:
        raise MultiSymbolUnsupported(f"need exactly one symbol, have {len(sp.symbols)}")
    n = F.order
    w = sp.width
    eff_w = max(w, 1)
    if n**eff_w > STATE_CAP:
        raise CapExceeded(f"{n}^{eff_w} states exceed the cap of {STATE_CAP}")

    if F.is_abelian():
        # Exponent sums suffice for an abelian target.
        templates = [list(r.coefficients) for r in abelianized_recurrence(sp)]
        counts = essential_window_counts(templates, eff_w, F.powers)
        return SftGraph(window=w, group=F, templates=templates, counts=counts)
    templates = [[(off, e) for _, off, e in tpl] for tpl in sp.templates]
    orbits = _label_orbits(F, eff_w)
    return SftGraph(window=w, group=F, orbits=orbits, digits=list(_allowed(templates, F, w, orbits.reps)))


def _allowed(templates, F, w, sources):
    """The allowed hole values of each source window, ascending (with
    w = 0, all of F or none)."""
    if w == 0:
        return [range(F.order) if _window_ok(templates, (x,), F) else () for x in sources]
    solved = [_solve_template(tpl, F, w, sources) for tpl in templates]
    return solved[0] if len(solved) == 1 else map(_intersect, *solved)


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


def _solve_template(tpl, F: FiniteGroup, w: int, windows: Sequence[int]):
    """The allowed hole values of one template, ascending, for each of the
    given source windows in turn.  The segment values are computed on
    those windows only; the windows are grouped by their inner tuple
    (S1, ..., S(k-1)), and each group gets its table (see the module
    docstring)."""
    if all(off != w for off, _ in tpl):
        tpl = tpl + [(w, 0)]  # S y^0 = 1 allows every y or none
    cut = max(i for i, (off, _) in enumerate(tpl) if off == w) + 1
    segs, exps, seg = [], [], []
    for off, e in tpl[cut:] + tpl[:cut]:
        if off == w:
            segs.append(seg)
            exps.append(e)
            seg = []
        else:
            seg.append((off, e))
    # The fewer offsets the inner segments read, the fewer tables.
    reads = [{off for off, _ in sg} for sg in segs]
    i = min(range(len(segs)), key=lambda i: len(set().union(*reads[:i], *reads[i + 1 :])))
    segs, exps = segs[i:] + segs[:i], exps[i:] + exps[:i]
    head, *inners = (_segment_values(sg, F, w, windows) for sg in segs)
    maps = [F.power_map(e) for e in exps]
    if not inners:
        return map(_hole_table(maps[0], F).__getitem__, head)

    parts = defaultdict(list)  # inner tuple -> the windows that have it
    for s, inner in enumerate(zip(*inners)):
        parts[inner].append(s)
    mult = F.mult
    allowed = [None] * len(head)
    for inner, members in parts.items():
        vals = maps[0]  # the values of y^e1 S1 ... y^ek
        for v, pm in zip(inner, maps[1:]):
            vals = [mult[mult[x][v]][p] for x, p in zip(vals, pm)]
        table = _hole_table(vals, F)
        for s in members:
            allowed[s] = table[head[s]]
    return allowed


def _hole_table(values, F: FiniteGroup) -> list[list[int]]:
    """The candidates y, ascending, listed under values[y]^-1."""
    table = [[] for _ in range(F.order)]
    for y, x in enumerate(values):
        table[F.inv[x]].append(y)
    return table


def _segment_values(seg, F: FiniteGroup, w: int, windows: Sequence[int]) -> list[int]:
    """Value of a hole-free word on each of the given source windows: each
    syllable reads the window digit at its offset, in the order the word
    has them, and multiplies its power into the running values."""
    n, mult = F.order, F.mult
    vals = repeat(0)
    for off, e in seg:
        pm, scale = F.power_map(e), n ** (w - 1 - off)
        vals = [mult[v][pm[s // scale % n]] for v, s in zip(vals, windows)]
    return vals if seg else [0] * len(windows)


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


def check_tol(tol: float) -> None:
    """Raise ValueError unless the census tolerance is finite and positive."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a finite positive number, not {tol}")


def check_max_period(max_period: int) -> None:
    """Raise ValueError unless the walk length is at least 1, and
    CapExceeded past STATE_CAP: the all-identity walk alone has that many
    labels."""
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if max_period > STATE_CAP:
        raise CapExceeded(f"period {max_period} exceeds the cap of {STATE_CAP} labels")


def census(g: SftGraph, tol: float = 1e-6) -> RepCensus:
    """Classify the shift of g.  Zero entropy is decided exactly, from the
    strongly connected components; otherwise `_perron_log` estimates it to
    tol, which must be finite and positive even when no iteration runs.
    Past the OnlyTrivial test it reads only the orbit graph restricted to
    the essential orbits, and their sizes (see the module docstring); from
    an abelian build, only its counts."""
    check_tol(tol)
    ess_count, states = g.essential_count, g.state_count
    assert ess_count >= 1, "the all-identity state is always essential"
    if ess_count == 1:
        return RepCensus("OnlyTrivial", 1, 0.0, states, 1)
    if g.counts:
        # d successors each: `_perron_log`'s sum grows by 1 + d a step, so it
        # would return math.log(d), 0.0 when d = 1.
        h = math.log(g.counts[1])
        return RepCensus("PositiveEntropy" if h else "Finite", None if h else ess_count, h, states, ess_count)
    edges, alive = g._orbit_graph
    offsets, targets = _restrict(edges, alive)
    # The trim leaves every essential orbit an essential successor, so
    # one edge per node means exactly one each: one per essential state.
    if len(targets) == len(offsets) - 1:
        return RepCensus("Finite", ess_count, 0.0, states, ess_count)
    if _zero_entropy(offsets, targets):
        return RepCensus(
            "InfiniteZeroEntropy", None, 0.0, states, ess_count
        )
    sizes = [1] * ess_count if g.orbits is None else list(compress(g.orbits.sizes, alive))
    h = _perron_log(sizes, offsets, targets, tol)
    return RepCensus("PositiveEntropy", None, h, states, ess_count)


def _restrict(graph: Successors, alive: bytearray) -> tuple[array, array]:
    """The subgraph of graph on the nodes where alive is 1, renumbered in
    order, as (offsets, targets); graph's own arrays when every node is."""
    offsets, targets = graph.offsets, graph.targets
    if 0 not in alive:
        return offsets, targets
    nodes = list(compress(range(len(alive)), alive))
    index = dict(zip(nodes, range(len(nodes))))
    sub_offsets, sub_targets = array("I", [0]), array("I")
    append, mark = sub_targets.append, sub_offsets.append
    for s in nodes:
        for t in targets[offsets[s] : offsets[s + 1]]:
            if alive[t]:
                append(index[t])
        mark(len(sub_targets))
    return sub_offsets, sub_targets


def _sccs(offsets: array, targets: array) -> list[int]:
    """Tarjan's algorithm, iterative, over a graph in CSR form: the number
    of each state's strongly connected component.  Components are numbered
    as they close, in reverse topological order: every edge between two
    components goes to the lower number."""
    n = len(offsets) - 1
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # -1 until the state's component closes
    cursor = offsets[:-1]  # the next edge of each state to follow
    stack = []
    counter = closed = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        path = [root]
        while path:
            v = path[-1]
            i = cursor[v]
            if i < offsets[v + 1]:
                cursor[v] = i + 1
                u = targets[i]
                if index[u] == -1:
                    index[u] = low[u] = counter
                    counter += 1
                    stack.append(u)
                    path.append(u)
                elif comp[u] == -1 and index[u] < low[v]:
                    low[v] = index[u]
                continue
            path.pop()
            if path and low[v] < low[path[-1]]:
                low[path[-1]] = low[v]
            if low[v] == index[v]:
                u = -1
                while u != v:
                    u = stack.pop()
                    comp[u] = closed
                closed += 1
    return comp


def _zero_entropy(offsets: array, targets: array) -> bool:
    """True when no strongly connected component carries two cycles, that
    is, when no node has two edges into its own component, parallel edges
    counted apart: then the Perron root is at most 1, on a multigraph such
    as the orbit graph too.  A node's edges are consecutive, so no source
    may repeat among the edges inside components."""
    comp = _sccs(offsets, targets)
    last = -1
    for v, u in zip(_sources(offsets), targets):
        if comp[u] == comp[v]:
            if v == last:
                return False
            last = v
    return True


def entropy(g: SftGraph, tol: float = 1e-6) -> float:
    """The entropy of the shift of g, `census(g, tol).entropy`: the log of
    the Perron root of the essential adjacency matrix, exactly 0.0 when
    that root is at most 1."""
    return census(g, tol).entropy


def _perron_log(sizes: Sequence[int], offsets: array, targets: array, tol: float) -> float:
    """`entropy` of an orbit graph B in CSR form whose entropy is positive,
    where node i is an orbit of sizes[i] states (see the module docstring).

    Power iteration on exact integer vectors, v <- (I + A^T) v from v = 1
    over the states, run as u <- (I + B^T) u from u = sizes, where u[i] is
    sizes[i] times the value v of each state of orbit i; the +I keeps
    periodic graphs from oscillating.  The growth ratio of sum(u), the sum
    of v over all states, converges to 1 + the Perron root of A.
    """
    sources = list(_sources(offsets))
    u = list(sizes)
    prev_ratio = None
    total = sum(u)
    for _ in range(ENTROPY_MAX_ITER):
        nxt = list(u)  # the +I part
        for s, t in zip(sources, targets):
            nxt[t] += u[s]
        new_total = sum(nxt)
        ratio = new_total / total
        if prev_ratio is not None and abs(ratio - prev_ratio) < tol:
            return math.log(ratio - 1.0) if ratio > 1.0 else 0.0
        prev_ratio = ratio
        u, total = nxt, new_total
        if total.bit_length() > 4000:
            # renormalize every state's v by a power of two to keep
            # integers bounded
            shift = total.bit_length() - 2000
            u = [size * max((x // size) >> shift, 1) for x, size in zip(u, sizes)]
            total = sum(u)
            prev_ratio = None
    raise ArithmeticError("entropy iteration did not converge")


def enumerate_periodic(g: SftGraph, max_period: int) -> list[tuple[str, ...]]:
    """All labelings of closed walks of length exactly max_period.

    Each walk gives the label sequence of its states' first coordinates;
    different phases of one orbit are distinct labelings.  Points of
    smaller period dividing max_period appear as their repeated tuples.
    The walks are searched from the representative of each essential
    conjugacy orbit (see `Orbits`), stepping to the states of essential
    orbits only; those from the other states are their conjugates by the
    carriers.  A state v steps to (v mod n^(w-1)) n + h y h^-1,
    h = carry[v], for the digits y of its orbit (see `SftGraph`); over an
    abelian F, where each state is its own orbit, off the orbit graph,
    which is the graph itself: no per-state view is read.  The last state
    of a walk ends in the first w - 1 digits of the first, so with w >= 2
    only one successor of the state before it is tried.  CapExceeded is
    raised as soon as the labelings hold more than STATE_CAP labels,
    max_period each.
    """
    check_max_period(max_period)
    N = max_period
    edges, alive = g._orbit_graph
    n = g.group.order
    scale = n ** (max(g.window, 1) - 1)
    if g.orbits is None:  # each state is an orbit, carried to itself by the identity
        label = reps = range(g.state_count)
        carry, sizes, conj, inv = bytes(g.state_count), b"\x01" * g.state_count, (range(n),), (0,)
        digits = Successors(edges.offsets, array("I", map(n.__rmod__, edges.targets)))
    else:
        label, carry, reps, sizes = g.orbits.label, g.orbits.carry, g.orbits.reps, g.orbits.sizes
        conj, inv, digits = g.group.conj, g.group.inv, g.digits
    results = []
    found = {}  # orbit -> the labelings of its representative's walks
    total = 0  # the labelings of every state searched or conjugated so far
    depth = N - 2
    for o in compress(range(len(reps)), alive):
        start, size = reps[o], sizes[o]
        lo = len(results)
        head = start // n  # the first w - 1 digits
        final, second = start % n, head % n
        # DFS over walks start = v0, ..., v(N-2): iters[d] yields the last
        # digits of the candidates for v(d+1), to add to bases[d], and path
        # holds the labels of v0 ... vd.  start's carrier is the identity.
        if N > 2:
            path, bases, iters = [start // scale], [start % scale * n], [iter(digits[o])]
        elif N == 2:
            path, bases, iters = [], [0], [iter((start,))]
        else:  # the self-loops
            if start % scale == head and final in digits[o]:
                results.append((start // scale,))
            iters = []
        while iters:
            y = next(iters[-1], None)
            if y is None:
                iters.pop()
                bases.pop()
                del path[-1:]
                continue
            v = bases[-1] + y
            q = label[v]
            if not alive[q]:
                continue
            if len(iters) < depth:
                path.append(v // scale)
                bases.append(v % scale * n)
                iters.append(map(conj[carry[v]].__getitem__, digits[q]))
                continue
            # v = v(N-2): v(N-1) ends in head, and start follows it
            h, ys = carry[v], digits[q]
            if scale == 1:
                ends = map(conj[h].__getitem__, ys)
            else:
                c = v % scale * n + second
                if c % scale != head or conj[inv[h]][second] not in ys:
                    continue
                ends = (c,)
            for c in ends:
                q = label[c]
                if alive[q] and conj[inv[carry[c]]][final] in digits[q]:
                    results.append((*path, v // scale, c // scale))
                    if (total + len(results) - lo) * N > STATE_CAP:
                        raise CapExceeded(f"periodic labels exceed the cap of {STATE_CAP}")
        if len(results) > lo:
            total += (len(results) - lo) * size
            if total * N > STATE_CAP:
                raise CapExceeded(f"periodic labels exceed the cap of {STATE_CAP}")
            if size > 1:
                found[o] = results[lo:]
    if found:  # the states of those orbits, but their representatives
        for u in compress(range(len(label)), map(found.__contains__, label)):
            if u != reps[label[u]]:
                row = conj[carry[u]]
                results += [tuple(map(row.__getitem__, walk)) for walk in found[label[u]]]
    results.sort()
    labels = g.group.labels
    return [tuple(labels[x] for x in tup) for tup in results]
