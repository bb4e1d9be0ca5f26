"""Host-speed gauge: how fast the host ran while the timed rounds ran.

On a shared host the same work can run 30 % slower for seconds or minutes
at a time, as other tenants load the machine, and one run cannot average
such drifts away.  While the rounds run, an interval timer (SIGALRM every
INTERVAL_S of wall time) interrupts the workload and takes a reading: the
time of a fixed computation of the benchmark's own, the tensor-axis ansatz
of ``checks.py`` on a fixed 10-node graph, which calls no program code.
The readings are spread evenly in time, so their mean tells how slow the
host was over a round.

Set-up time, spent in fresh processes, is scaled by readings taken just
before and just after each of them instead (``mean_reading_s``).

``clock()`` is a wall clock that leaves out the time the readings took.
``scale()`` is REF_S over the mean reading; a time multiplied by it reads as
seconds at the reference host speed, the gauge's median reading on the VM
the README's figures come from.
"""
from __future__ import annotations

import signal
import time
from statistics import fmean

import checks

N = 10
EDGES = tuple((i, (i + 1) % N) for i in range(N)) + ((0, 3), (2, 5), (4, 7), (6, 9), (8, 1))
REPS = 8
INTERVAL_S = 0.1
REF_S = 2.2e-4


def reading_s() -> float:
    """Mean seconds of one gauge computation: the host's speed right now.

    One untimed computation first, so that caches the workload left cold do
    not enter the reading.
    """
    checks.ansatz_state(N, EDGES, "sa", 1, (0.3, 0.7))
    t0 = time.perf_counter()
    for _ in range(REPS):
        checks.ansatz_state(N, EDGES, "sa", 1, (0.3, 0.7))
    return (time.perf_counter() - t0) / REPS


def mean_reading_s(count: int) -> float:
    """Mean of ``count`` readings taken back to back."""
    return fmean(reading_s() for _ in range(count))


class Gauge:
    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0  # wall seconds spent taking readings
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        """Wall seconds, without the time spent taking readings."""
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.readings.append(reading_s())
        finally:
            self.spent += time.perf_counter() - t0
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def scale(self, since: int = 0) -> float:
        """REF_S over the mean of the readings from index ``since`` on."""
        readings = self.readings[since:] or [reading_s()]
        return REF_S / fmean(readings)
