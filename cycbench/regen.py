"""Regenerate cycbench/data/factors.json: sympy factorizations of large inputs.

sympy needs up to half a minute for some of the criteria workload's
Alexander polynomials, too long for every run, so their factor lists are
stored.  Each polynomial is computed here without cycover, as the Fox
derivative of the two-bridge relator, and keyed by checks.poly_key.

    python3 cycbench/regen.py
"""

import json
import os
import sys

import checks
import workloads


def main() -> int:
    out = {}
    for p, q in workloads.LARGE_TWO_BRIDGE:
        relator = workloads._cyclic_reduce(workloads.two_bridge_word(p, q))
        delta = checks.canonical(workloads.dense_of(workloads.fox_poly(relator, "v", {"u": 1, "v": 1})))
        if len(delta) - 1 <= 120:
            continue
        print(f"({p},{q}): degree {len(delta) - 1}", file=sys.stderr, flush=True)
        out[checks.poly_key(delta)] = [[list(f), m] for f, m in checks.sympy_factors(delta)]
    with open(os.path.join(checks.DATA, "factors.json"), "w") as fh:
        json.dump(out, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
