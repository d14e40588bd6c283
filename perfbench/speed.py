"""The machine's current speed, sampled while a measurement runs.

On a shared host the CPU's speed drifts by up to 2x in phases lasting from
seconds to minutes. Process CPU time does not show it (it tracks wall time
within 5%): the slow phases are a slower CPU, not time taken from the
process. A timed pass therefore reads 2x slower in a slow phase although
the program did the same work.

``Speedometer`` measures that speed from inside the process. While it runs,
a SIGALRM timer interrupts the main thread every ``INTERVAL_S`` seconds of
wall time and times ``LOOPS`` turns of a fixed pure-Python integer loop.
The loop does not depend on bnsl, so its time moves only with the machine;
over a pass of the hill-climbing workload its mean time and the pass time
correlate at about 0.9. A time measured while it runs is multiplied by
``scale()``, ``REFERENCE_S`` over the loop's mean time meanwhile, which
gives seconds at the speed where the loop takes ``REFERENCE_S``. The time
spent in the loop itself is counted in ``spent`` so that callers can take
it out of what they time.

The loop's few objects stay in the core's L1 cache, so it does not see
slow phases of the shared caches, which the program does see. A second loop
over a table larger than L2 would see them, but its time then depends on
how much of the table the program evicted between two samples (3.4x
between a warm and a cold table), so a change to the program's memory use
would move the scale. The scaling also assumes that the program runs in
one thread, as the benchmark configures it: a busy second thread would
slow the loop (through the GIL) and so hide part of its own cost.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

INTERVAL_S = 0.05
LOOPS = 15_000
REFERENCE_S = 1.5e-3  # the loop's mean time on the 2-core reference machine


def loop_seconds() -> float:
    """Time one run of the fixed loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class Speedometer:
    """Samples ``loop_seconds()`` on a wall-clock timer while ``running``."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the loop so far
        self._on = False

    def _tick(self, signum, frame) -> None:
        t = loop_seconds()
        self.samples.append(t)
        self.spent += t

    @contextmanager
    def running(self, on: bool = True):
        """Sample while the block runs (not at all when ``on`` is false)."""
        if not on:
            yield self
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._on = True
        try:
            yield self
        finally:
            self._on = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, since: int = 0) -> float:
        """Factor to seconds at the reference speed for a time measured since ``samples[since]``.

        1.0 for a speedometer that never ran.
        """
        window = self.samples[since:]
        if not window:
            if not self._on:
                return 1.0
            window = [loop_seconds()]
        return REFERENCE_S * len(window) / sum(window)
