"""Scale wall times to a reference host speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes as neighbouring load comes and goes.  ``HostSpeed`` times a
fixed mix of interpreter work, small numpy calls and cache-resident
array passes (the median of five repetitions) before and after each
measured interval, and scales the interval's wall time by ``REF_S`` over
the mean of the two probes.  The loop uses none of the program's code,
so a change to the program moves scaled and raw times alike, while host
drift moves the probe and the program together.

Over 20 back-to-back serial force evaluations on a 2-cpu host, raw wall
time had an inter-quartile range of 0.28 of its median and scaled time
0.08 (correlation of probe and evaluation time 0.93).  ``run.py``
reports both; the end-to-end metrics use the scaled times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time (seconds) that defines the reference speed: the probe's
#: typical time on the 2-cpu host this benchmark was defined on, so
#: scaled times read as that host's wall seconds when it is unloaded.
REF_S = 0.035


class HostSpeed:
    """Brackets measured intervals with host-speed probes."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mid = rng.random((40_000, 3))
        self._buf = np.empty_like(self._mid)
        self._small = rng.random((64, 3))
        self.probes: list[float] = []
        self.start()

    def _once(self) -> float:
        t0 = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(40_000):
            d[i & 1023] = d.get(i & 1023, 0) + i
        for _ in range(1_500):
            np.sqrt(self._small.sum(axis=0))
        for _ in range(30):
            np.multiply(self._mid, 1.5, out=self._buf)
            np.add(self._buf, self._mid, out=self._buf)
            self._buf.sum(axis=1)
        return time.perf_counter() - t0

    def _probe(self) -> float:
        p = statistics.median(self._once() for _ in range(5))
        self.probes.append(p)
        return p

    def start(self) -> None:
        """Probe before an interval (or a group of them)."""
        self._before = self._probe()

    def factor(self) -> float:
        """Probe after the interval(s) since the last probe and return
        the scale factor; the new probe opens the next interval."""
        after = self._probe()
        f = REF_S / (0.5 * (self._before + after))
        self._before = after
        return f
