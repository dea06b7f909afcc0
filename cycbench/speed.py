"""Host-speed sampling, so that timings taken at different moments compare.

The benchmark runs on a shared VM whose speed drifts by 20-30% for seconds
to minutes at a time: a fixed Python loop timed back to back there reads
anywhere from 9 to 14 ms over one minute.  Every end-to-end timing is
therefore reported *at the reference speed*.  While a ``Sampler`` runs, an
interval timer (``ITIMER_VIRTUAL``, so it ticks only while this process
itself computes) interrupts the process every ``SAMPLE_EVERY_S`` of its CPU
time and times a fixed reference loop of the benchmark's own, which does not
touch cycover.  A measured interval is then reported as

    scaled = own * REF_CHUNK_S / m

where ``own`` is the interval's wall time less the samples taken inside it,
and ``m`` is the median reference-loop time over those samples, widened to
the ``MIN_SAMPLES`` samples nearest to the interval when fewer were taken
inside it.  A change to cycover moves ``own`` and not ``m``; a
slow stretch of the host moves both.  ``REF_CHUNK_S`` is about the median
time of the reference loop on the reference machine (a 2-vCPU x86 VM,
Python 3.11.7; medians of single runs there ranged from 0.96 to 1.35 ms),
so scaled figures read as seconds there.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time

from refloop import reference_loop

SAMPLE_EVERY_S = 0.025
MIN_SAMPLES = 5
REF_CHUNK_S = 0.0010


class Sampler:
    """Times the reference loop on every tick of a CPU-time interval timer.

    A tick's handler runs whole between two bytecodes of the interrupted
    code, so each sample lies wholly inside or wholly outside any interval
    that the interrupted code timed.
    """

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at the start of each sample
        self.chunks: list[float] = []  # reference-loop seconds of each sample
        self._prefix = [0.0]  # sums of chunks[:i]
        self._busy = False
        self._old = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_loop()
        self.chunks.append(time.perf_counter() - t0)
        self.starts.append(t0)
        self._busy = False

    def start(self) -> None:
        self._old = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._old)

    def scaled(self, a: float, b: float) -> float:
        """The perf_counter interval [a, b], less the samples taken inside
        it, in seconds at the reference speed."""
        starts = self.starts
        if len(self._prefix) != len(self.chunks) + 1:
            self._prefix = list(itertools.accumulate(self.chunks, initial=0.0))
        lo, hi = bisect.bisect_left(starts, a), bisect.bisect_right(starts, b)
        own = (b - a) - (self._prefix[hi] - self._prefix[lo])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(starts)):
            if hi >= len(starts) or (lo > 0 and a - starts[lo - 1] <= starts[hi] - b):
                lo -= 1
            else:
                hi += 1
        return own * REF_CHUNK_S / statistics.median(self.chunks[lo:hi])


def scaled_child(seconds: float, chunks) -> float:
    """A subprocess's wall ``seconds``, less the reference-loop ``chunks``
    it ran, at the reference speed measured by those chunks."""
    return (seconds - sum(chunks)) * REF_CHUNK_S / statistics.median(chunks)
