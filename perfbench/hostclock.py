"""Times scaled to a fixed host speed.

On a shared virtual machine the speed of one core drifts by tens of
percent over minutes, as other tenants come and go.  On a 2-vCPU Xeon VM
the median time of the same `ere_scan` (masses 1, 2, 3 at 240^2) moved
by 60% within four minutes, and even the best pass of a 25 s run of
720^2 scans moved by 50% between runs.  The drift hits the library and a
fixed loop of Python arithmetic and small numpy calls alike: over those
four minutes the ratio of the two stayed within about 5%.

So each run measures its host's speed as it goes: before and after every
timed block it runs a dose of that fixed loop.  A block's times are
scaled by CALIBRATION_REF_S over the mean time of one loop in the two
doses around it: the time the block would take on a host where one loop
takes CALIBRATION_REF_S.  The loop is benchmark code and never changes
with the library.  A library change that slows the whole process outside
its own calls (say, threads left spinning) would slow the loop too, and
so would be partly hidden.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# one loop on the VM above in its slow state
CALIBRATION_REF_S = 0.030
LOOPS_PER_DOSE = 5
_ANGLES = np.linspace(0.1, 3.0, 64)


def calibration_loop() -> float:
    """Python arithmetic and small numpy calls, like the library's inner loops."""
    s = 0.0
    for i in range(2500):
        s += float(np.sum(np.sin(_ANGLES + i) * np.cos(_ANGLES)))
        for j in range(20):
            s += (i * j) % 7
    return s


class HostClock:
    """Runs timed blocks between calibration doses."""

    def __init__(self):
        self.loops: list[float] = []
        self._last_dose = 0.0

    def dose(self) -> float:
        """Mean time of LOOPS_PER_DOSE calibration loops."""
        for _ in range(LOOPS_PER_DOSE):
            t0 = time.perf_counter()
            calibration_loop()
            self.loops.append(time.perf_counter() - t0)
        self._last_dose = statistics.mean(self.loops[-LOOPS_PER_DOSE:])
        return self._last_dose

    def measure(self, block):
        """Run block() between two doses (consecutive blocks share one);
        return its result and the factor that scales the times measured
        inside it to the reference speed."""
        before = self._last_dose or self.dose()
        result = block()
        return result, CALIBRATION_REF_S / ((before + self.dose()) / 2)
