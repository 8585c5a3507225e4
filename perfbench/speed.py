"""A clock that reads reference seconds: wall time rescaled to the machine's speed.

The benchmark runs on a virtual machine whose host is shared.  The same
operation takes up to twice as long in one minute as in the next, and the
process's CPU time grows with its wall time, so the loss is not visible from
inside.  A fixed calibration loop slows by the same factor at the same
moment.  `ReferenceClock` runs the loop every PERIOD_S seconds (on SIGALRM,
in the main thread) and advances at REFERENCE_LOOP_S / (the loop's last
time) reference seconds per wall second.  The time spent in the loop itself
is left out of both of its clocks.

A change to qdlab cannot move the loop (it calls numpy only), so a program
that gets slower still reads slower by the same share.  The loop does what
the Faddeev q-product does: log(1 - exp(-z)) on complex arrays.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.1
# A time of the calibration loop on the reference machine (2-vCPU Xeon at
# 2.1 GHz, one BLAS thread, numpy with OpenBLAS 0.3.31), where it ranges from
# 1.7 to 3.2 ms with the host's load.  It fixes the scale of reference
# seconds and nothing else.
REFERENCE_LOOP_S = 0.0021

_Z = np.linspace(0.05, 3.0, 4096) * (1 + 0.3j)


def _loop() -> None:
    for k in range(1, 9):
        np.log1p(-np.exp(-k * _Z)).sum()


class ReferenceClock:
    """Reference seconds since `start`, a time.perf_counter() value."""

    def __init__(self, start: float):
        self._busy = False
        self.spent = 0.0  # wall seconds spent in the calibration loop
        before = time.perf_counter()
        rate = self._rate()
        # (reference seconds at `last`, perf_counter at `last`, current rate);
        # replaced as a whole, so that now() never reads half an update
        self._state = ((before - start) * rate, time.perf_counter(), rate)

    def _rate(self) -> float:
        start = time.perf_counter()
        _loop()
        end = time.perf_counter()
        self.spent += end - start
        return REFERENCE_LOOP_S / (end - start)

    def sample(self, *_signal) -> None:
        """Close the interval since the last sample at its rate; measure a new rate."""
        if self._busy:
            return
        self._busy = True
        ref, last, rate = self._state
        ref += (time.perf_counter() - last) * rate
        rate = self._rate()
        self._state = (ref, time.perf_counter(), rate)
        self._busy = False

    def now(self) -> float:
        while True:
            state = self._state
            value = state[0] + (time.perf_counter() - state[1]) * state[2]
            if state is self._state:  # no sample ran in between
                return value

    def wall(self) -> float:
        """time.perf_counter() less the time spent in the calibration loop."""
        return time.perf_counter() - self.spent

    def run(self) -> None:
        """Sample every PERIOD_S seconds from now on."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
