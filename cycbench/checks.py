"""Independent checks of cycover's outputs.

Nothing here calls cycover: each check recomputes what it needs from plain
data (coefficient lists, relator syllables, permutations, edge lists) by a
different route from the program's, using exact integers and Fractions,
numpy for eigenvalues, sympy for factorization, and the mod-p rank count of
``tests/oracles.py``.  Each function returns None when the output is right
and a short description of the difference otherwise.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
CLI_KEYS = {"command", "input_digest", "version", "result"}

# -- dense integer polynomials, ascending coefficients ---------------------


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def pdiv_exact(a, b):
    """a / b over Z when exact, else None."""
    a, b = trim(a), trim(b)
    if len(a) < len(b):
        return None if a else []
    rem = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(b) - 1]
        if c % b[-1]:
            return None
        q[k] = c // b[-1]
        if q[k]:
            for j, y in enumerate(b):
                rem[k + j] -= q[k] * y
    return q if not any(rem) else None


def canonical(a):
    """Drop low zeros, make the leading coefficient positive."""
    a = trim(a)
    while a and a[0] == 0:
        a = a[1:]
    if a and a[-1] < 0:
        a = [-x for x in a]
    return tuple(a)


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple:
    """Phi_n by dividing t^n - 1 by Phi_d for the proper divisors d of n."""
    f = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            f = pdiv_exact(f, list(cyclotomic(d)))
    return tuple(f)


def swinnerton_dyer(k: int) -> tuple:
    """prod (t - sum +-sqrt(p_i)) over the first k primes, exactly.

    P_{i+1}(t) = P_i(t - sqrt p) P_i(t + sqrt p) = A^2 - p B^2, where
    P_i(t + sqrt p) = A(t) + B(t) sqrt p.
    """
    primes = [2, 3, 5, 7, 11, 13][:k]
    poly = [0, 1]  # t
    for p in primes:
        n = len(poly) - 1
        a = [0] * (n + 1)
        b = [0] * (n + 1)
        for i, c in enumerate(poly):
            # (t + s)^i with s^2 = p: binomial expansion split by parity of s.
            for j in range(i + 1):
                term = c * math.comb(i, j)
                power = i - j  # of s
                coeff = term * p ** (power // 2)
                if power % 2 == 0:
                    a[j] += coeff
                else:
                    b[j] += coeff
        poly = [x - p * y for x, y in zip(_pad(pmul(a, a), 2 * n + 1), _pad(pmul(b, b), 2 * n + 1))]
        poly = trim(poly)
    return tuple(poly)


def _pad(a, n):
    return list(a) + [0] * (n - len(a))


# -- the Alexander polynomial at integers, from the relator words ---------


def fox_det_at(generators, relators, chi, x: int, delete: str) -> Fraction:
    """det of the Fox Jacobian at t = x with the column of `delete` removed.

    Every relator is read letter by letter: the free derivative of a word
    by g at t = x is the sum of the prefix values at each g (for g^-1, minus
    the value after it), where a prefix evaluates to x^(weight so far).
    """
    cols = [g for g in generators if g != delete]
    rows = []
    for rel in relators:
        d = {g: Fraction(0) for g in cols}
        h = 0
        for g, e in rel:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                if step < 0:
                    h -= chi[g]
                if g in d:
                    d[g] += step * Fraction(x) ** h
                if step > 0:
                    h += chi[g]
        rows.append([d[g] for g in cols])
    return fraction_det(rows)


def fraction_det(rows) -> Fraction:
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [u - f * v for u, v in zip(a[r], a[c])]
    return det


def _power_of(r: Fraction, x: int):
    """k with |r| = |x|^k, or None."""
    num, den = abs(r.numerator), r.denominator
    ax = abs(x)
    k = 0
    for big, sign in ((num, 1), (den, -1)):
        while big > 1:
            if big % ax:
                return None
            big //= ax
            k += sign
    return k


def check_delta(delta_low: int, delta_coeffs, generators, relators, chi, delete, xs=(2, 3, -2)):
    """Delta agrees with the Fox determinant at each x, up to one unit +-t^k."""
    unit = None
    for x in xs:
        lhs = sum(Fraction(c) * Fraction(x) ** (delta_low + i) for i, c in enumerate(delta_coeffs))
        rhs = fox_det_at(generators, relators, chi, x, delete)
        if lhs == 0 or rhs == 0:
            if lhs != rhs:
                return f"Delta({x}) = {lhs} but the Fox determinant is {rhs}"
            continue
        ratio = lhs / rhs
        k = _power_of(ratio, x)
        if k is None:
            return f"Delta({x}) / det = {ratio} is not a unit +-{x}^k"
        sign = 1 if ratio > 0 else -1
        if x < 0 and k % 2:
            sign = -sign
        if unit is None:
            unit = (sign, k)
        elif unit != (sign, k):
            return f"unit {unit} at one point but {(sign, k)} at t = {x}"
    return None


# -- factorization -------------------------------------------------------


def check_factors(got, expected, what: str):
    """got, expected: iterables of (coefficient tuple, multiplicity)."""
    g = sorted((canonical(f), m) for f, m in got)
    e = sorted((canonical(f), m) for f, m in expected)
    if g != e:
        return f"{what}: factors {_short(g)} expected {_short(e)}"
    return None


def _short(factors):
    return [(len(f) - 1, m) for f, m in factors]


def sympy_factors(coeffs):
    """Irreducible factors over Z as (ascending tuple, multiplicity)."""
    import sympy

    t = sympy.Symbol("t")
    poly = sympy.Poly(list(reversed(list(coeffs))), t)
    _, facs = sympy.factor_list(poly)
    return [(canonical(reversed([int(c) for c in f.all_coeffs()])), m) for f, m in facs]


def stored_factors():
    """Factor lists of inputs too large for sympy within a run.

    Regenerate with ``python3 cycbench/regen.py``.
    """
    with open(os.path.join(DATA, "factors.json")) as fh:
        raw = json.load(fh)
    return {k: [(tuple(f), m) for f, m in v] for k, v in raw.items()}


def poly_key(coeffs) -> str:
    return hashlib.sha256(json.dumps(list(canonical(coeffs))).encode()).hexdigest()[:16]


def monic_both_ends(f) -> bool:
    f = canonical(f)
    return len(f) >= 2 and abs(f[0]) == 1 and abs(f[-1]) == 1


def check_surjection(answer, witness, factors):
    """The verdict: some factor of degree >= 1 is monic at both ends."""
    candidates = sorted(
        (canonical(f) for f, _ in factors if monic_both_ends(f)), key=lambda f: (len(f), f)
    )
    if bool(candidates) != answer:
        return f"surjection answer {answer}, factors say {bool(candidates)}"
    if answer and canonical(witness) != candidates[0]:
        return f"witness of degree {len(witness) - 1} is not the least monic factor"
    return None


# -- counts of maps to Z/p ---------------------------------------------------


@lru_cache(maxsize=None)
def _tests_oracles():
    path = os.path.join(ROOT, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("cycbench_tests_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def rank_count(coeffs, p: int) -> int:
    """p ** (solutions mod p) by elimination on stencil matrices (tests/oracles.py)."""
    pairs = [(i, c) for i, c in enumerate(coeffs) if c]
    return _tests_oracles().window_rank_count(pairs, p)


def span_mod_p(coeffs, p: int):
    nz = [i for i, c in enumerate(coeffs) if c % p]
    return None if not nz else nz[-1] - nz[0]


# -- graphs ----------------------------------------------------------------


def perron_entropy(n: int, src, dst) -> float:
    """log of the spectral radius of an n-node graph given by edge arrays."""
    import numpy as np

    if n == 0:
        return 0.0
    if n <= 1500:
        a = np.zeros((n, n))
        np.add.at(a, (np.asarray(src), np.asarray(dst)), 1.0)
        rho = float(max(abs(np.linalg.eigvals(a))))
    else:
        rho = _sparse_perron(n, np.asarray(src), np.asarray(dst))
    return math.log(rho) if rho > 1.0 + 1e-12 else 0.0


def _sparse_perron(n, src, dst, iters=20000, tol=1e-13):
    """Power iteration on A + I from the all-ones vector."""
    import numpy as np

    v = np.ones(n)
    prev = None
    for _ in range(iters):
        w = v + np.bincount(dst, weights=v[src], minlength=n)
        lam = w.sum() / v.sum()
        v = w / w.max()
        if prev is not None and abs(lam - prev) < tol * lam:
            break
        prev = lam
    return lam - 1.0


def closed_walks(n: int, src, dst, length: int) -> int:
    """trace(A^length) in exact integers."""
    adj = [[] for _ in range(n)]
    for s, t in zip(src, dst):
        adj[int(s)].append(int(t))
    total = 0
    for start in range(n):
        vec = {start: 1}
        for _ in range(length):
            nxt: dict = {}
            for s, c in vec.items():
                for t in adj[s]:
                    nxt[t] = nxt.get(t, 0) + c
            vec = nxt
        total += vec.get(start, 0)
    return total


def symmetric_elements(k: int):
    """Permutations of range(k) in lexicographic order."""
    return sorted(permutations(range(k)))


def compose(f, g):
    """(f * g)(x) = f(g(x))."""
    return tuple(f[x] for x in g)


def perm_power(f, e: int):
    if e < 0:
        inv = [0] * len(f)
        for i, y in enumerate(f):
            inv[y] = i
        f, e = tuple(inv), -e
    out = tuple(range(len(f)))
    for _ in range(e):
        out = compose(out, f)
    return out


def window_ok(templates, window, elements, mul, power, identity) -> bool:
    """Every template evaluates to the identity on the window."""
    for tpl in templates:
        acc = identity
        for off, e in tpl:
            acc = mul(acc, power(elements[window[off]], e))
        if acc != identity:
            return False
    return True


def expected_successors(state, templates, width, order, elements, mul, power, identity):
    digits = []
    s = state
    for _ in range(width):
        digits.append(s % order)
        s //= order
    digits.reverse()
    stub = (state % order ** (width - 1)) * order if width > 1 else 0
    return [
        stub + y
        for y in range(order)
        if window_ok(templates, tuple(digits) + (y,), elements, mul, power, identity)
    ]


def check_cli_json(raw: bytes, command: str, source: str):
    """Parses, carries the fixed key set, digests the input it was given."""
    try:
        rep = json.loads(raw)
    except ValueError as e:
        return f"output is not JSON: {e}"
    if set(rep) != CLI_KEYS:
        return f"keys {sorted(rep)}"
    if rep["command"] != command:
        return f"command {rep['command']!r}"
    if rep["input_digest"] != hashlib.sha256(source.encode()).hexdigest():
        return "input digest is not the sha256 of the input"
    return None
