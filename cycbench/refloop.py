"""The reference loop of the host-speed samples (see ``speed.py``).

Kept free of imports beyond ``time``, so that the CLI wrapper
``cli_probe.py`` can time it without adding to the CLI's start-up.
"""

import time

LOOP = 5000

_TABLE = list(range(1024))
_SLOTS = dict.fromkeys(range(64), 0)


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic, list and dict access.

    It allocates no containers, so it never starts the cyclic collector.
    """
    acc = 0
    table, slots = _TABLE, _SLOTS
    for i in range(LOOP):
        acc = (acc * 31 + table[i & 1023]) % 1000003
        slots[i & 63] = acc
    return acc


def samples(k: int) -> list:
    """Seconds of k back-to-back runs of the reference loop."""
    out = []
    for _ in range(k):
        t0 = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - t0)
    return out
