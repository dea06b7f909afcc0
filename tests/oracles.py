"""Independent cross-checks used by the test suite.

Each oracle recomputes a result the library produces, by a different
mechanism: factorization by bounded divisor search, products term by
term, determinants by the Leibniz expansion over plain dicts, gcds by
Euclid over the rationals, factorization over GF(p) by trial
division by every monic polynomial of low degree, cyclotomic polynomials by
rational division of t^m - 1 and the cyclotomic factors of a polynomial by
trying every one of small enough degree, biinfinite solution
counts by Gaussian elimination on stencil matrices, solvability by brute
seed propagation, entropy by a dense eigenvalue call, shift-graph edges by
evaluating every template on every window, the essential states of a graph
by repeated degree counts, closed walks by an exact matrix power, the
census class by degree counts and reachability, and Brown's
finite-generation verdict by a letter-by-letter walk.  None of them share code paths with the
implementations they audit.
"""

import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from cycover.laurent import LaurentPoly


# -- factorization by box search ----------------------------------------


def _divisors(n):
    n = abs(n)
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _poly_div_exact(num, den):
    """Exact quotient of dense integer polynomials, else None."""
    num = [Fraction(c) for c in num]
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = num[i + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            num[i + j] -= q[i] * d
    if any(c != 0 for c in num):
        return None
    if any(c.denominator != 1 for c in q):
        return None
    return [int(c) for c in q]


def _primitive_positive(c):
    g = math.gcd(*(abs(x) for x in c))
    if c[-1] < 0:
        g = -g
    return tuple(x // g for x in c)


def _split(c):
    """Irreducible factors of a primitive poly with c[0] != 0, lc > 0."""
    n = len(c) - 1
    if n == 0:
        return []
    if n == 1:
        return [tuple(c)]
    bound = math.ceil(4 * math.isqrt(sum(x * x for x in c)) + 4)
    for m in range(1, n // 2 + 1):
        for lead in _divisors(c[-1]):
            for const in _divisors(c[0]):
                for signed_const in (const, -const):
                    middles = product(range(-bound, bound + 1), repeat=m - 1)
                    for mid in middles:
                        g = (signed_const,) + mid + (lead,)
                        q = _poly_div_exact(list(c), list(g))
                        if q is None:
                            continue
                        return sorted(
                            _split(_primitive_positive(g))
                            + _split(_primitive_positive(tuple(q)))
                        )
    return [tuple(c)]


def box_factor(f: LaurentPoly):
    """Multiset of irreducible factors as canonical LaurentPolys.

    Exhaustive search over divisor candidates whose end coefficients
    divide the input's and whose middle coefficients sit inside a norm
    box.  Exponential, fine for degree <= 4.
    """
    dense = f.shifted_to_zero().dense()
    if not dense:
        raise ValueError("zero polynomial")
    parts = _split(_primitive_positive(tuple(dense)))
    out = {}
    for part in parts:
        g = LaurentPoly.from_coeffs(part)
        out[g] = out.get(g, 0) + 1
    return sorted(out.items(), key=lambda kv: (kv[0].degree_span(), kv[0].dense()))


# -- products, gcds and factors over GF(p), the direct way ---------------


def schoolbook_mul(f, g):
    """Product of dense integer polynomials, term by term, high zeros dropped."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return out


def leibniz_det(rows):
    """Determinant of a square matrix of Laurent polynomials, each {exponent: coeff}.

    The sum over all permutations of the signed products of one entry per
    row and column, multiplied term by term in plain dicts.
    """
    k = len(rows)
    total = {}
    for perm in permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = {0: -1 if inversions % 2 else 1}
        for i, j in enumerate(perm):
            out = {}
            for e1, c1 in term.items():
                for e2, c2 in rows[i][j].items():
                    out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
            term = out
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


def gcd_over_Q(f, g):
    """Primitive gcd with positive lead, by Euclid's algorithm over Fraction."""
    a = [Fraction(c) for c in f]
    b = [Fraction(c) for c in g]
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    while b:
        rem = list(a)
        while len(rem) >= len(b):
            coef = rem[-1] / b[-1]
            shift = len(rem) - len(b)
            for j, c in enumerate(b):
                rem[shift + j] -= coef * c
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        a, b = b, rem
    if not a:
        return []
    den = math.lcm(*(c.denominator for c in a))
    return list(_primitive_positive([int(c * den) for c in a]))


def gf_factor_bruteforce(f, p):
    """Monic irreducible factors of f over GF(p), with multiplicity, sorted.

    Trial division by every monic polynomial of degree 1, 2, ... in turn,
    up to half the degree of what is left: a divisor found at the lowest
    degree still possible is irreducible.  All candidates of one degree are
    divided at once, as rows of an integer array.
    """
    rest = [c % p for c in f]
    while rest and rest[-1] == 0:
        rest.pop()
    inv = pow(rest[-1], -1, p)
    rest = [c * inv % p for c in rest]
    out = []
    d = 1
    while 2 * d <= len(rest) - 1:
        # Rows: the monic candidates of degree d, low coefficients first.
        low = np.array(list(product(range(p), repeat=d)), dtype=np.int64).reshape(-1, d)
        cands = np.hstack([low, np.ones((len(low), 1), dtype=np.int64)])
        rem = np.tile(np.array(rest, dtype=np.int64), (len(cands), 1))
        for k in range(len(rest) - 1, d - 1, -1):
            rem[:, k - d : k + 1] = (rem[:, k - d : k + 1] - rem[:, k : k + 1] * cands) % p
        for c, r in zip(cands, rem):
            if r.any():
                continue
            g = [int(x) for x in c]
            while (q := _gf_exact_quotient(rest, g, p)) is not None:
                out.append(g)
                rest = q
        d += 1
    if len(rest) > 1:
        out.append(rest)
    return sorted(out)


def _gf_exact_quotient(f, g, p):
    """f / g over GF(p) for monic g when g divides f, else None."""
    rem = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = rem[k + len(g) - 1] % p
        for j, c in enumerate(g):
            rem[k + j] = (rem[k + j] - q[k] * c) % p
    return None if any(rem) else q


# -- cyclotomic factors by rational division -----------------------------


def totients_upto(n):
    """[phi(0), phi(1), ..., phi(n)] by a sieve, phi(0) = 0."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


_CYCLOTOMIC = {}


def cyclotomic(m):
    """Phi_m, dividing t^m - 1 by Phi_d for each divisor d < m of m in turn."""
    if m not in _CYCLOTOMIC:
        f = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                f = _poly_div_exact(f, cyclotomic(d))
        _CYCLOTOMIC[m] = f
    return list(_CYCLOTOMIC[m])


def cyclotomic_divisors(f):
    """Ascending m with Phi_m dividing f, trying every m with phi(m) <= deg f.

    phi(m) >= sqrt(m / 2) for every m, so no such m exceeds 2 deg(f)^2.
    """
    n = len(f) - 1
    phi = totients_upto(2 * n * n)
    candidates = [m for m in range(1, len(phi)) if phi[m] <= n]
    return [m for m in candidates if _poly_div_exact(f, cyclotomic(m)) is not None]


# -- biinfinite solution counts mod p -----------------------------------


def _nullspace_mod_p(rows, ncols, p):
    a = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                c = a[i][col]
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = (-a[ri][fc]) % p
        basis.append(v)
    return basis


def _rank_mod_p(rows, p):
    a = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                c = a[i][col]
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def window_rank_count(coeff_pairs, p, inner=24):
    """Number of biinfinite solutions mod p of one recurrence stencil.

    Builds every shift of the stencil inside a padded window, solves for
    the nullspace by elimination, and counts the dimension left after
    projecting onto the inner window, discarding boundary-only freedom.
    Returns p ** dimension.
    """
    if all(c % p == 0 for _, c in coeff_pairs):
        raise ValueError("stencil vanishes mod p, count is not finite")
    offsets = [o for o, _ in coeff_pairs]
    w = max(offsets) - min(offsets) if offsets else 0
    length = inner + 2 * (w + 1)
    rows = []
    for i in range(length - w):
        row = [0] * length
        for off, c in coeff_pairs:
            row[i + off - min(offsets)] += c
        rows.append(row)
    basis = _nullspace_mod_p(rows, length, p)
    if not basis:
        return 1
    start = (length - inner) // 2
    projected = [v[start : start + inner] for v in basis]
    return p ** _rank_mod_p(projected, p)


# -- brute-force solvability over a seed box ----------------------------


def _seeds_survive(asc, seeds, steps):
    """Seeds (rows) whose forward propagation stays integral for `steps`.

    Stages int64 vector arithmetic while values are provably inside the
    safe range, then finishes the survivors with exact Python integers.
    Dead rows are compacted away each step; row identity is preserved by
    returning the surviving seed rows themselves.
    """
    d = len(asc) - 1
    lead = asc[-1]
    seeds = np.asarray(seeds, dtype=np.int64)
    if abs(lead) == 1:
        return seeds  # division by a unit never fails
    window = seeds.copy()
    safe_steps = 0
    limit = 2**62 // (sum(abs(c) for c in asc) + 1)
    while safe_steps < steps and len(seeds):
        if int(np.abs(window).max(initial=1)) >= limit:
            break
        s = np.zeros(len(seeds), dtype=np.int64)
        for k in range(d):
            s += asc[k] * window[:, k]
        alive = s % lead == 0
        seeds = seeds[alive]
        window = np.concatenate(
            [window[alive, 1:], (-s[alive] // lead)[:, None]], axis=1
        )
        safe_steps += 1
    if safe_steps < steps and len(seeds):
        keep = []
        for idx in range(len(seeds)):
            vals = [int(x) for x in window[idx]]
            ok = True
            for _ in range(steps - safe_steps):
                s = sum(asc[k] * vals[k] for k in range(d))
                if s % lead:
                    ok = False
                    break
                vals = vals[1:] + [-s // lead]
            if ok:
                keep.append(idx)
        seeds = seeds[keep]
    return seeds


def _seed_grid(box, d):
    if (box, d) not in _GRIDS:
        grid = np.array(
            list(product(range(-box, box + 1), repeat=d)), dtype=np.int64
        )
        _GRIDS[(box, d)] = grid[~np.all(grid == 0, axis=1)]
    return _GRIDS[(box, d)]


_GRIDS = {}


def propagation_box_verdict(asc, box=10, steps=40):
    """True iff some nonzero seed in [-box, box]^d propagates integrally
    for `steps` steps in both directions."""
    d = len(asc) - 1
    fwd = _seeds_survive(tuple(asc), _seed_grid(box, d), steps)
    if not len(fwd):
        return False
    # backward propagation is forward propagation of the reversed stencil
    # applied to the reversed seed; only forward survivors need it
    bwd = _seeds_survive(tuple(reversed(asc)), fwd[:, ::-1].copy(), steps)
    return bool(len(bwd))


# -- spectral radius ----------------------------------------------------


def perron_entropy(graph):
    """log of the spectral radius of the essential adjacency matrix."""
    nodes = [s for s in range(graph.state_count) if graph.essential[s]]
    if not nodes:
        return 0.0
    pos = {s: i for i, s in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)))
    for s in nodes:
        for t in graph.successors[s]:
            if graph.essential[t]:
                a[pos[s], pos[t]] = 1.0
    rho = max(abs(np.linalg.eigvals(a)))
    return float(np.log(rho)) if rho > 1.0 else 0.0


# -- essential states, closed walks and census class --------------------


def essential_fixed_point(n, edges):
    """Flags of the states on a biinfinite path of the graph (n, edges).

    Every round drops each state with no live in-edge or no live
    out-edge, counting only edges between live states, until a round
    drops nothing.
    """
    live = [True] * n
    while True:
        has_in, has_out = [False] * n, [False] * n
        for s, t in edges:
            if live[s] and live[t]:
                has_out[s] = has_in[t] = True
        nxt = [live[s] and has_in[s] and has_out[s] for s in range(n)]
        if nxt == live:
            return live
        live = nxt


def _essential_matrix(n, edges):
    live = essential_fixed_point(n, edges)
    index = {s: i for i, s in enumerate(s for s in range(n) if live[s])}
    a = [[0] * len(index) for _ in index]
    for s, t in edges:
        if s in index and t in index:
            a[index[s]][index[t]] = 1
    return a


def closed_walks(n, edges, length):
    """trace(A^length) of the essential adjacency matrix, in exact integers."""
    a = _essential_matrix(n, edges)
    k = len(a)
    power = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(length):
        power = [[sum(row[m] * a[m][j] for m in range(k)) for j in range(k)] for row in power]
    return sum(power[i][i] for i in range(k))


def census_class(n, edges):
    """(classification, count) from degree counts and reachability.

    OnlyTrivial: one essential state.  Finite: every essential in- and
    out-degree is 1, so the points are the essential states.  Otherwise
    the entropy is positive iff some state has two out-edges to states
    from which it can be reached again (transitive closure by Warshall).
    """
    a = _essential_matrix(n, edges)
    k = len(a)
    if k == 1:
        return "OnlyTrivial", 1
    out_deg = [sum(row) for row in a]
    in_deg = [sum(a[i][j] for i in range(k)) for j in range(k)]
    if all(d == 1 for d in out_deg + in_deg):
        return "Finite", k
    reach = [[bool(a[i][j]) or i == j for j in range(k)] for i in range(k)]
    for m in range(k):
        for i in range(k):
            if reach[i][m]:
                reach[i] = [x or y for x, y in zip(reach[i], reach[m])]
    if any(sum(1 for j in range(k) if a[i][j] and reach[j][i]) >= 2 for i in range(k)):
        return "PositiveEntropy", None
    return "InfiniteZeroEntropy", None


# -- shift-graph successors by brute force ------------------------------


def _power_by_multiplication(mult, x, e):
    """x^e by repeated multiplication, e reduced mod the order of x."""
    order, acc = 1, x
    while acc != 0:
        acc = mult[acc][x]
        order += 1
    acc = 0
    for _ in range(e % order):
        acc = mult[acc][x]
    return acc


def brute_successors(templates, mult_table, w):
    """Successor lists of the window graph over a group given by its table.

    States are windows of max(w, 1) elements, big-endian; appending y to a
    state and dropping its first element gives the target.  An edge is kept
    when every template, a list of (offset, exponent) syllables read at
    offset 0 of the extended window, multiplies out to the identity 0.
    """
    n = len(mult_table)
    k = max(w, 1)
    powers = {}

    def value(tpl, win):
        acc = 0
        for off, e in tpl:
            key = (win[off], e)
            if key not in powers:
                powers[key] = _power_by_multiplication(mult_table, *key)
            acc = mult_table[acc][powers[key]]
        return acc

    out = []
    for src in product(range(n), repeat=k):
        succ = []
        for y in range(n):
            win = src + (y,)
            if all(value(tpl, win) == 0 for tpl in templates):
                succ.append(sum(d * n**i for i, d in enumerate(reversed(win[1:]))))
        out.append(succ)
    return out


# -- Brown's criterion by letters ---------------------------------------


def brown_by_letters(relator_letters, chi):
    """Brown's verdict from the height before every single letter.

    relator_letters yields (generator, +1/-1); returns "FG", "OneSided",
    "NotFG", or "Inapplicable" for the empty word.
    """
    heights, h = [], 0
    for g, sgn in relator_letters:
        heights.append(h)
        h += sgn * chi[g]
    if not heights:
        return "Inapplicable"
    unique = [heights.count(max(heights)) == 1, heights.count(min(heights)) == 1]
    return {2: "FG", 1: "OneSided", 0: "NotFG"}[sum(unique)]
