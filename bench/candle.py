"""Machine-speed candle: a fixed computation, independent of the library,
timed between ops so that op times can be read at one reference speed.

Shared virtual CPUs, such as those of the reference machine below, change
speed by up to 40% for seconds to tens of seconds at a time, far more than
the changes the benchmark must resolve.  A run therefore times the candle
every CANDLE_EVERY seconds of op time and divides each op's wall time by
the machine's slowdown around it: candle time over the candle's reference
time, taken as the median of the readings within WINDOW seconds of the
op's midpoint (at least three), so that one stray reading does not carry
into the op.  The candle is built from this directory's own code (the
oracle's pure-Python field arithmetic, and numpy array arithmetic shaped
like the enumeration kernel), so no change to the library moves it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from bisect import bisect_left, bisect_right

import oracle

CANDLE_EVERY = 0.1  # seconds of op time between two candle readings
WINDOW = 1.5  # seconds either side of an op whose readings scale it

# typical candle seconds on the reference machine (2-vCPU Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6); they only fix the time unit
REFERENCE = {"python": 0.0080, "numpy": 0.0085}


class Candle:
    """Times the candle parts named in `kinds` and reports the slowdown
    against REFERENCE (1.0 = reference speed, 1.3 = 30% slower)."""

    def __init__(self, kinds: tuple[str, ...]):
        self.kinds = kinds
        rng = random.Random("candle")
        self.field = oracle.Field(3, 2)
        self.matrices = [[[rng.randrange(9) for _ in range(12)] for _ in range(6)]
                         for _ in range(4)]
        if "numpy" in kinds:
            import numpy as np

            gen = np.random.default_rng(7)
            self.np = np
            self.x = gen.integers(0, 27, (4096, 24), dtype=np.int64)
            self.y = gen.integers(0, 27, (1, 24), dtype=np.int64)

    def _python(self) -> None:
        for rows in self.matrices:
            oracle.rank(self.field, rows)

    def _numpy(self) -> None:
        np, x, y = self.np, self.x, self.y
        out = np.zeros_like(x)
        xs, ys, mult = x, y, 1
        for _ in range(3):  # digit-wise addition in GF(27)
            out += ((xs + ys) % 3) * mult
            xs, ys, mult = xs // 3, ys // 3, mult * 3
        np.bincount(np.count_nonzero(out, axis=1), minlength=25)

    def slowdown(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            spent = reference = 0.0
            for kind in self.kinds:
                part = self._python if kind == "python" else self._numpy
                t0 = time.perf_counter()
                part()
                spent += time.perf_counter() - t0
                reference += REFERENCE[kind]
        finally:
            if enabled:
                gc.enable()
        return spent / reference

    def read(self, readings: list[tuple[float, float]]) -> float:
        """Append (time, slowdown) to readings and return the slowdown."""
        value = self.slowdown()
        readings.append((time.perf_counter(), value))
        return value


def scale(latencies: list[float], midpoints: list[float],
          readings: list[tuple[float, float]]) -> list[float]:
    """Each latency divided by the median slowdown read within WINDOW of its
    midpoint, or else by the two readings before it and the one after."""
    times = [t for t, _ in readings]
    out = []
    for seconds, mid in zip(latencies, midpoints):
        lo, hi = bisect_left(times, mid - WINDOW), bisect_right(times, mid + WINDOW)
        if hi - lo < 3:
            i = bisect_left(times, mid)
            lo, hi = max(0, i - 2), min(len(times), i + 1)
        out.append(seconds / statistics.median(v for _, v in readings[lo:hi]))
    return out
