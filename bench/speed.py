"""Host speed reference for the benchmark.

On a shared host one CPU runs at about half speed for episodes of 0.1 s to
minutes (measured: a fixed loop takes 1.05 ms or 1.9 ms, and the two CPUs
switch independently).  Raw wall times of the same work then
spread by 25-45% between runs, far more than the bounds a result must hold.

run.py pins itself, and so every process it starts, to one CPU, and a
``Sampler`` thread times a fixed pure-Python loop on that CPU every
INTERVAL_S.  A time is reported scaled by NOMINAL_S over the loop's mean
time during the measured interval: seconds on a host where the loop takes
NOMINAL_S.  The sampler takes about 4% of the CPU.
"""

import bisect
import threading
import time
from fractions import Fraction

NOMINAL_S = 0.001
# speed episodes can be as short as one 0.1 s sample; on 150 s of fixed work,
# sampling every 25 ms instead of 100 ms cut the spread of 10-s means of the
# scaled times from 2.4% to 0.8%
INTERVAL_S = 0.025


def _loop():
    # integers, small Fractions, tuples and a dict, as in tropcount's hot paths
    total = 0
    table = {}
    for i in range(1, 370):
        f = Fraction(i, i + 1) + Fraction(i + 2, 3)
        total += f.numerator % 7 + (i * i) % 5
        table[i & 255] = (total, f)
    return total


class Sampler:
    """Times ``_loop`` every INTERVAL_S in a background thread while in a
    ``with`` block; afterwards ``scale`` turns wall times into scaled ones."""

    def __init__(self):
        self.starts = []
        self.seconds = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while True:
            start = time.perf_counter()
            # CPU time of this thread: the loop shares its CPU with the work
            # and may be preempted by it
            cpu = time.thread_time()
            _loop()
            self.seconds.append(time.thread_time() - cpu)
            self.starts.append(start)
            if self._stop.wait(INTERVAL_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, t0, t1):
        """NOMINAL_S over the loop's mean time in [t0, t1] (perf_counter
        times), or at the sample nearest to the interval if none is inside."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        if lo == hi:
            near = [i for i in (lo - 1, lo) if 0 <= i < len(self.starts)]
            lo = min(near, key=lambda i: min(abs(self.starts[i] - t0), abs(self.starts[i] - t1)))
            hi = lo + 1
        inside = self.seconds[lo:hi]
        return NOMINAL_S * len(inside) / sum(inside)
