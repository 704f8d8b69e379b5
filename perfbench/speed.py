"""Host-speed reference used to normalise measured times.

On a shared virtual machine the CPU can run at full speed or at about half
speed, switching in episodes of a few seconds to tens of seconds.  On the
2-vCPU Xeon VM this benchmark was written on, a fixed 1 ms kernel timed in
2.5 s windows read either 1.1-1.3x or 2.0-2.2x its fastest time, slow in
about 40% of the windows, and hullkit ops slowed by 0.9 times as much as the
kernel did.  Raw op times therefore spread by up to 2x between runs of the
same code.

``HostSpeed`` times that kernel (a small qhull plus a per-simplex numpy loop,
the same kind of work as hullkit's hulls) between measured spans and every
PERIOD_S inside them.  A span is rescaled to what it would take on a host
where the kernel takes exactly NOMINAL_S, about its full-speed time on that
VM: its time, less the kernel runs inside it, is multiplied by the mean of
NOMINAL_S / kernel time over the kernel runs inside it and within WINDOW_S
of it.  The scale comes from many typical timings, never an extreme, so a
run spent wholly at half speed reads the same as one at full speed.  Kernel
runs are timed in thread CPU time, like the ops, so that neither counts time
in which another process (such as a set-up probe) held the CPU.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.spatial import ConvexHull

_POINTS = np.random.default_rng(0).normal(size=(40, 3))

#: Kernel time that measured intervals are scaled to.
NOMINAL_S = 1e-3

#: Interval between kernel timings inside an op.
PERIOD_S = 0.05

#: Kernel runs this close to a measured span count towards its scale.
WINDOW_S = 0.05


def _kernel():
    qh = ConvexHull(_POINTS)
    total = 0.0
    for simplex in qh.simplices:
        tri = _POINTS[simplex]
        total += float(np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])))
    return total


class HostSpeed:
    """Timestamped kernel timings of one run."""

    def __init__(self, warmup=5):
        self.stamps = []  # perf_counter() at the start of each kernel run
        self.samples = []  # its thread CPU time
        self.inside_s = 0.0
        for _ in range(warmup):
            _kernel()

    def _time_kernel(self):
        stamp = time.perf_counter()
        t0 = time.thread_time()
        _kernel()
        took = time.thread_time() - t0
        self.stamps.append(stamp)
        self.samples.append(took)
        return took

    def probe(self, repeats=1):
        """Time the kernel ``repeats`` times."""
        for _ in range(repeats):
            self._time_kernel()

    def sampled(self, _index, fn, *args):
        """``fn(*args)``, timing the kernel every PERIOD_S while it runs.

        The timings come from a SIGALRM handler, which Python runs between
        bytecodes of the main thread, so they interleave with the op's own
        Python-level work; ``inside_s`` is left holding their total.
        """
        inside = []

        def sample(signum, frame):
            inside.append(self._time_kernel())

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.inside_s = sum(inside)

    def rescale(self, seconds, start, end):
        """``seconds`` of work done between perf_counter() times ``start`` and
        ``end``, rescaled by the kernel runs from WINDOW_S before to WINDOW_S
        after that span."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        return seconds * statistics.fmean(NOMINAL_S / t for t in self.samples[lo:hi])
