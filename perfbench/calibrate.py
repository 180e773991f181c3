"""How fast the machine runs right now, from a fixed reference computation.

On a shared virtual machine the same job can take twice as long from one
minute to the next, and its speed moves within a second too, because other
tenants' work slows this one down.  While a job runs, `Sampler` times a short
reference loop every `INTERVAL_S` from a timer signal.  The job's slowdown is
the mean loop time over `REFERENCE_S`, the loop's time on the quiet machine
named below.  The end-to-end times are divided by that slowdown, so they read
as seconds on the quiet machine.  The time the samples take is subtracted
from the job's wall time.  The raw wall-clock figures are kept in the run
record.

The loop mixes what spraylab spends its time on: interpreter dispatch,
small-object churn, and small numpy calls (fancy indexing, bincount).  It
uses no spraylab code, so a change to the package cannot move it.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
# the loop's time on a 2-vCPU KVM guest of an Intel Xeon (family 6, model
# 207, 2.1 GHz) with Python 3.11.7 and numpy 2.4.6: the 10th percentile of
# its mean time during each of 512 jobs over 10 minutes of benchmark runs,
# which is its speed when other tenants leave the machine alone
REFERENCE_S = 0.00048

_rng = np.random.default_rng(0)
_T = 70
_IA, _IB, _IC = (_rng.integers(0, _T, size=495) for _ in range(3))
_A, _B = _rng.random(_T), _rng.random(_T)


class _Pair:
    __slots__ = ("coeffs", "tag")

    def __init__(self, coeffs, tag):
        self.coeffs = coeffs
        self.tag = tag


def reference_loop() -> float:
    acc = 0.0
    table: dict = {}
    for i in range(40):
        p = _Pair(_A * (1.0 + i), i)
        c = np.bincount(_IC, weights=p.coeffs[_IA] * _B[_IB], minlength=_T)
        acc += float(c[0]) + sum(float(v) for v in c[:8])
        for k in range(40):
            table[(i + k) & 63] = math.sqrt(k + acc % 7.0)
    return acc + sum(table.values())


def _sample() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def settled_slowdown() -> float:
    """The slowdown now, in a fresh process: a warm-up, then a median."""
    reference_loop()
    return statistics.median(_sample() for _ in range(15)) / REFERENCE_S


class Sampler:
    """Samples the reference loop once at `start` and then every INTERVAL_S
    until `stop`.  Uses SIGALRM, so only one may run at a time."""

    def _tick(self, signum=None, frame=None) -> None:
        self._samples.append(_sample())

    def start(self) -> None:
        self._samples = []
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple:
        """(slowdown, seconds the samples after the first one took)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return (statistics.fmean(self._samples) / REFERENCE_S,
                sum(self._samples[1:]))
