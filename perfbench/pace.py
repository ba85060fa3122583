"""Host-speed correction for wall times measured on a shared machine.

The host this benchmark was tuned on changes speed by up to 2x for seconds
at a time, on each vCPU independently, and process CPU time follows the
wall time (it is not steal).  Two different kernels run back to back in one
thread slow down together, though: their times correlate at 0.96 and their
ratio varies five times less than either.  So a small fixed reference
kernel, run in the measuring thread while the operation runs, tells how
fast the host is at that moment.

``Pace`` runs the reference kernel from a SIGALRM handler every
``INTERVAL_S`` of wall time.  The handler runs between two bytecodes of
the main thread, so it sees the operation's own core and caches; it touches
none of the operation's data.  Afterwards ``corrected(start, end)`` splits
the wall interval into the stretches between reference runs, leaves out the
reference runs themselves, and scales each stretch by
``NOMINAL_REF_S / r``, where ``r`` is the median reference time of the
``WINDOW`` runs around it.  The result is the operation's wall time at the
host's nominal speed, in seconds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
import scipy.fft as sfft

INTERVAL_S = 0.025  # wall time between two reference runs
WINDOW = 15  # reference runs whose median sets one stretch's speed
# A typical reference time on the tuning machine (2-core x86-64 KVM guest,
# numpy 2.4, scipy 1.17).  It only sets the scale of corrected times.
NOMINAL_REF_S = 1.2e-3

_RNG = np.random.default_rng(12345)
_X = _RNG.standard_normal((32, 32))
_A = _RNG.standard_normal((64, 2, 2))
_A = _A + _A.transpose(0, 2, 1)


def reference_kernel() -> None:
    """A fixed mix of small FFTs, batched eigenvalues and array arithmetic."""
    for _ in range(14):
        sfft.irfft2(sfft.rfft2(_X, workers=1) * 0.5, s=_X.shape, workers=1)
    np.linalg.eigvalsh(_A)
    np.sqrt(_X * _X + 1.0).sum()


class Pace:
    """Samples the reference kernel in the main thread on a wall-clock timer."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference_kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._tick(None, None)  # warms the kernel; the first of the samples
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def corrected(self, start: float, end: float) -> tuple[float, float]:
        """(raw, corrected) seconds of operation work between start and end.

        Raw is the wall time minus the reference runs inside the interval;
        corrected scales it to the nominal host speed.  Reference runs just
        outside the interval count towards the speed of its first and last
        stretches.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        refs = [e - s for s, e in zip(self.starts, self.ends)]
        edges = [start]
        for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]):
            edges += [s, e]
        edges.append(end)
        raw = corrected = 0.0
        half = WINDOW // 2
        for k in range(lo, hi + 1):  # stretch k runs from reference k - 1 to reference k
            stretch = edges[2 * (k - lo) + 1] - edges[2 * (k - lo)]
            window = refs[max(0, k - half - 1):k + half]
            raw += stretch
            corrected += stretch * NOMINAL_REF_S / statistics.median(window)
        return raw, corrected
