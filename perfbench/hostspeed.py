"""Host-speed calibration.

The machines this benchmark runs on are shared, and their speed drifts
by tens of percent within a minute.  Between queries the benchmark times
a fixed pure-Python kernel that does not touch fhgames.  Every measured
interval is then scaled by ``REFERENCE_S`` over the mean kernel time of
the two probes that bracket it, so a time reads as seconds on a host that
runs the kernel in ``REFERENCE_S``.  Work done by fhgames is counted in
full; only the host's speed at the moment is divided out.
"""

from __future__ import annotations

import bisect
from time import perf_counter

# seconds between probes while queries run
PROBE_EVERY = 0.2
# the kernel's median time on the reference machine (a 2-vCPU Intel Xeon
# VM, Python 3.11.7); a scaled time is in that machine's seconds
REFERENCE_S = 0.0032


def kernel() -> int:
    """Fixed work in the mix of fhgames' sweeps: adds and shifts of
    4000-bit integers, tuple-keyed dict stores and calls.  Its working
    set is a few kilobytes, so its time does not depend on what the
    preceding query left in the caches."""
    a, b, table = (1 << 4000) // 3, (1 << 3990) // 7, {}
    for i in range(3000):
        c = (a + b) >> 1
        table[i & 63, i & 7] = c
        a, b = b, c + i
    return len(table)


class Calibration:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self.tracer = None

    def probe(self, force: bool = True) -> None:
        """Time the kernel once; unless forced, only when PROBE_EVERY has
        passed since the last probe.  With a tracer set, the probe is a
        ``bench.calibrate`` span."""
        start = perf_counter()
        if not force and self.ends and start - self.ends[-1] < PROBE_EVERY:
            return
        if self.tracer is not None:
            span = self.tracer.open("bench.calibrate", start)
        kernel()
        end = perf_counter()
        if self.tracer is not None:
            self.tracer.close(span, end)
        self.starts.append(start)
        self.ends.append(end)
        self.kernel_s.append(end - start)

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` in reference seconds.  Probes must bracket the
        interval: one ended before ``start``, one started after ``end``."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        if before < 0 or after == len(self.starts):
            raise ValueError("interval is not bracketed by probes")
        speed = (self.kernel_s[before] + self.kernel_s[after]) / 2
        return (end - start) * REFERENCE_S / speed
