"""Run the cycover command line as ``python -m cycover.cli`` would, timed.

Prints the command's own output unchanged and, as the last line of standard
error, a JSON object with the seconds spent importing ``cycover.cli`` and
inside ``main`` (each less the speed samples taken in it), and
``speed_samples``: the seconds of every run of the reference loop
(``refloop.py``) made in the process, two before the import, one on every
``TICK_S`` of the process's CPU time (an ``ITIMER_VIRTUAL`` timer) while
the import and ``main`` run, and two after.  The benchmark subtracts their
sum from the call's wall time and scales the rest to the reference speed by
their median (``speed.scaled_child``), since the host's speed inside the
subprocess is what the call saw.  Every CLI call of the benchmark runs this
way.

    PYTHONPATH=src python3 cycbench/cli_probe.py twobridge 5 3 --json
"""

import json
import signal
import sys
import time

import refloop

TICK_S = 0.01
chunks = refloop.samples(2)


def _tick(signum, frame):
    t0 = time.perf_counter()
    refloop.reference_loop()
    chunks.append(time.perf_counter() - t0)


signal.signal(signal.SIGVTALRM, _tick)
signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)
t0, s0 = time.perf_counter(), sum(chunks)
import cycover.cli  # noqa: E402

t1, s1 = time.perf_counter(), sum(chunks)
code = 1
try:
    code = cycover.cli.main(sys.argv[1:])
finally:
    signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    t2, s2 = time.perf_counter(), sum(chunks)
    chunks += refloop.samples(2)
    sys.stdout.flush()
    times = {"import_s": (t1 - t0) - (s1 - s0), "main_s": (t2 - t1) - (s2 - s1), "speed_samples": chunks}
    print(json.dumps(times), file=sys.stderr)
sys.exit(code)
