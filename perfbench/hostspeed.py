"""Host-speed calibration: time measured on a drifting host, scaled to a
reference speed.

The benchmark runs on a few cores of a shared host whose speed is not
steady: it switches between a fast and a slow state (about 1.5 times
slower) several times a second, and the share of time in each drifts over
minutes, for Python and BLAS code alike. Wall times of the same code then
spread across runs by more than any useful regression bound, and a
percentile such as p50 jumps between the two states. So a fixed
calibration kernel, which calls nothing in pgot, runs right before every
timed unit, after the last one, and around every set-up. A span of time is
scaled by ``reference / cost``, where ``cost`` is the mean time of the
kernel runs that bracket the span or fall inside it: for one unit, the run
just before and the one just after it, which measured the host in the
state the unit ran in. A reported time is thus the time the same work
would take on a host that runs the kernel in its ``REFERENCE_S``; time spent
calibrating is left out. A change to pgot moves the scaled times as it
moves wall times, because the kernel does not depend on pgot.

The kernel mixes the two kinds of work pgot does: interpreted Python
(method calls and attribute access, as in op dispatch and the tape) and
numpy kernels (float64-upcast matmul and erf, as in ``engine``) on arrays
with as many rows as the workload has mesh points. So its share of numpy
time, and how it reacts to a slow host, follow the workload's: Python
dominates at N=256, numpy at N=8192. It writes into buffers it owns, so
that its time does not depend on the allocator's state.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.special import erf

clock = time.perf_counter

MAX_ROWS = 8192
# rows -> the kernel's time on the reference host: about its mean on a
# 2-vCPU x86-64 VM with one BLAS thread
REFERENCE_S = {256: 0.0017, 2048: 0.0032, 8192: 0.0115}


class _Acc:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def add(self, x):
        self.value += x


_RNG = np.random.default_rng(12345)
_X = _RNG.standard_normal((MAX_ROWS, 32)).astype(np.float32)
_W = (_RNG.standard_normal((32, 32)) / 6.0).astype(np.float64)
_Y32 = np.empty((MAX_ROWS, 32), np.float32)
_Y64 = np.empty((MAX_ROWS, 32), np.float64)
_H64 = np.empty((MAX_ROWS, 32), np.float64)


def kernel(rows: int) -> float:
    """Fixed work on ``rows`` rows, independent of pgot; returns a checksum."""
    acc = _Acc()
    for i in range(9000):
        acc.add(i * 0.5)
    y32, y64, h64 = _Y32[:rows], _Y64[:rows], _H64[:rows]
    y32[...] = _X[:rows]
    for _ in range(3):
        y64[...] = y32
        np.matmul(y64, _W, out=h64)
        y32[...] = h64
    np.multiply(h64, 0.7071067811865476, out=y64)
    erf(y64, out=y64)
    y64 += 1.0
    y64 *= h64
    return acc.value + float(y64[0, 0])


class HostClock:
    """Kernel runs taken during a run, and time spans scaled by them.

    A calibration is one kernel run, ``(start, end)`` on the
    ``perf_counter`` clock, and its cost ``end - start``. ``span(a, b)`` is
    the scaled time between two clock readings and ``raw_span(a, b)`` the
    unscaled one, both without calibration time.
    """

    def __init__(self, rows: int):
        self.rows = rows
        self.reference_s = REFERENCE_S[rows]
        self.starts: list[float] = []
        self.ends: list[float] = []
        kernel(rows)  # first touch of its buffers, not timed

    @property
    def costs(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def calibrate(self) -> None:
        start = clock()
        kernel(self.rows)
        end = clock()
        self.starts.append(start)
        self.ends.append(end)

    def scale(self, a: float, b: float) -> float:
        """Reference over the mean cost of the calibrations that bracket
        ``[a, b]`` (the last to end by ``a``, the first to start from ``b``)
        or fall inside it."""
        if not self.starts:
            raise RuntimeError("no calibration was taken")
        lo = max(bisect.bisect_right(self.ends, a) - 1, 0)
        hi = min(bisect.bisect_left(self.starts, b), len(self.starts) - 1)
        costs = [self.ends[k] - self.starts[k] for k in range(min(lo, hi), hi + 1)]
        return self.reference_s / statistics.fmean(costs)

    def raw_span(self, a: float, b: float) -> float:
        """Wall seconds from ``a`` to ``b``, calibration time left out."""
        total = b - a
        for k in range(bisect.bisect_right(self.ends, a), bisect.bisect_left(self.starts, b)):
            total -= min(b, self.ends[k]) - max(a, self.starts[k])
        return total

    def span(self, a: float, b: float) -> float:
        """Scaled seconds from clock reading ``a`` to ``b``."""
        return self.raw_span(a, b) * self.scale(a, b)

    def summary(self) -> dict:
        costs = self.costs
        return {
            "calibrations": len(costs),
            "rows": self.rows,
            "reference_s": self.reference_s,
            "cost_s_mean": statistics.fmean(costs),
            "cost_s_p10": float(np.percentile(costs, 10)),
            "cost_s_p90": float(np.percentile(costs, 90)),
        }
