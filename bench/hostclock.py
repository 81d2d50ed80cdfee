"""Times adjusted for the speed of a shared host.

On a shared virtual machine the same code runs at one speed for a while,
then up to 60 % slower for tens of seconds at a time, with process CPU time
equal to wall time (the process is not descheduled; the core it gets is
slower). Runs of a few tens of seconds then differ by more than any useful
bound. Much of that swing is shared, though. Over four minutes in 8 s
windows, the time of 100 single-row ``predict`` plus ``decide`` calls moved
by a factor of 1.75 while its ratio to a fixed set of small numpy matrix
products stayed within a factor of 1.24 (log-log slope 1.07). Pure-Python
loops tracked it worse (slope 0.65 to 0.81, ratio range 1.39 to 1.49): they
slow more than the library does.

So the benchmark times those matrix products right before and right after
each measured interval, and reports the interval's time multiplied by
``PIECE_S`` over the mean of the two reference timings: the time the interval
would take on a host that runs the reference in ``PIECE_S``. The reference
lives here, outside the program, so a change to the program moves the
adjusted times and a change of host speed does not. Reference timings are
not part of any measured interval.
"""
from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

# one reference piece: products of a 256x64 batch with a 64x64 matrix, the
# shape of the library's training batches
PRODUCTS = 24
PIECES = 5
# about the seconds of one piece on a 2-vCPU Intel Xeon (family 6, model 207)
# KVM guest at its faster speed; it sets the scale of the adjusted times,
# nothing else
PIECE_S = 2.0e-3
# a reference older than this no longer describes the host's current speed
STALE_S = 0.05

_rng = np.random.default_rng(0)
_H = _rng.standard_normal((256, 64))
_W = _rng.standard_normal((64, 64)) / 8.0


def _piece() -> float:
    h = _H
    for _ in range(PRODUCTS):
        h = np.tanh(h @ _W)
    return float(h[0, 0])


def reference() -> float:
    """Median time of one reference piece, over ``PIECES`` pieces.

    The collector is off meanwhile: right after a training the program's
    cyclic garbage is due, and collecting it here would count the program's
    work as the host's slowness. It runs at the program's next allocation.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PIECES):
            start = perf_counter()
            _piece()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class HostClock:
    """Adjusted timing of consecutive intervals.

    ``begin`` before an interval and ``factor`` after it; ``time`` does both
    around one call. Back-to-back intervals share the reference between them.
    """

    def __init__(self) -> None:
        self._ref = reference()
        self._ref_at = perf_counter()
        self.factors: list[float] = []   # one per interval, for the reference figures

    def begin(self) -> None:
        if perf_counter() - self._ref_at > STALE_S:
            self._ref = reference()
            self._ref_at = perf_counter()

    def factor(self) -> float:
        """PIECE_S over the mean reference time around the interval just ended."""
        before = self._ref
        self._ref = reference()
        self._ref_at = perf_counter()
        f = 2.0 * PIECE_S / (before + self._ref)
        self.factors.append(f)
        return f

    def time(self, fn, *args, **kwargs):
        """Call ``fn`` and return its result and its adjusted duration in seconds."""
        self.begin()
        start = perf_counter()
        result = fn(*args, **kwargs)
        raw = perf_counter() - start
        return result, raw * self.factor()

