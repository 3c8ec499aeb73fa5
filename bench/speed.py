"""The CPU's current speed, sampled from inside the measured process.

On a shared virtual machine the speed of a vCPU changes from one second to
the next, by up to 1.7x, with the load other tenants put on the host; the
same command, run twice, can differ that much.  `Probe` measures that
speed while the program runs: a timer signal interrupts the process every
`PERIOD_S` of CPU time and runs a fixed pure-Python kernel (rational
arithmetic, tuple-keyed dicts, integer products), and records how long the
kernel took.  `Probe.scale` turns an interval's wall time into the time it
would have taken at a fixed reference speed, the one at which the kernel
takes `KERNEL_REF_S`:

    scaled = (wall - kernel time inside the interval) * KERNEL_REF_S * mean(1 / kernel)

the mean taken over the samples inside the interval, widened to at least
`MIN_SAMPLES` of the nearest ones.  A sample stands for an equal slice of
CPU time, so the mean of 1/kernel weighs each slice by the work it could
do, and the product is the work done, in reference seconds.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
MIN_SAMPLES = 8
KERNEL_REF_S = 0.00025  # the kernel's time on a slow vCPU of the baseline machine


def kernel() -> Fraction:
    """Fixed work shaped like the program's: Fraction sums and products,
    tuple-keyed dict updates and a few wide integer products."""
    acc = Fraction(0)
    terms: dict = {}
    for i in range(1, 25):
        c = Fraction(i * i + 1, 2 * i + 3)
        key = (i & 3, i >> 2, 1)
        terms[key] = terms.get(key, 0) + c * acc
        acc += c
    x = 3**150
    for i in range(12):
        x = (x * (x >> 200) + i) & ((1 << 600) - 1)
    return acc + len(terms) + (x & 1)


class Probe:
    def __init__(self):
        self.starts: list[float] = []
        self.kernels: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.kernels.append(time.perf_counter() - start)
        self.starts.append(start)

    def start(self) -> None:
        for _ in range(3):  # warm the kernel's code and caches
            kernel()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Reference-speed seconds of the interval [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = sum(self.kernels[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            if lo > 0 and (hi == len(self.starts) or start - self.starts[lo - 1] < self.starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        if lo == hi:
            return end - start
        window = self.kernels[lo:hi]
        return (end - start - inside) * KERNEL_REF_S * sum(1 / k for k in window) / len(window)
