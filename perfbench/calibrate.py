"""Calibrated timing: wall time rescaled by the machine's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to about 1.6x, both within a fraction of a second and in phases lasting
minutes, and CPU time drifts with wall time.  Wall times of the same code
drift with it.  While a ``Clock`` is running, an interval timer interrupts
the process every ``PERIOD`` seconds and times one run of a small fixed
kernel; each timed call also times the kernel just before and just after
it.  The call's wall time, less the time spent in those samples, is
rescaled by the mean kernel time over the call:

    calibrated = (wall - sampling) * REFERENCE_S / mean(kernel samples)

A calibrated second is the time the call would take on a machine where one
``kernel()`` takes ``REFERENCE_S``.  The kernel is exact Gaussian-rational
arithmetic on ``fractions.Fraction``, the same kind of work critloci does,
and it imports nothing from critloci, so a change to the program cannot
change the scale: a change that makes the program faster or slower moves
the calibrated time just as it moves the wall time.
"""

from __future__ import annotations

import signal
from array import array
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.001  # about one kernel() on a 2-core x86-64 VM with Python 3.11
PERIOD = 0.04  # seconds of wall time between two samples; sampling costs about 3%


class _Gauss:
    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __add__(self, other):
        return _Gauss(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return _Gauss(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )


_ROW = [_Gauss(Fraction(i % 7 - 3, i % 5 + 1), Fraction(i % 3 - 1, 2)) for i in range(24)]


def kernel() -> _Gauss:
    """A fixed amount of exact arithmetic: dot products of a 24-entry row with
    two shifted copies of itself, keyed through a dict as sparse code does."""
    index = {i: z for i, z in enumerate(_ROW)}
    total = _Gauss(Fraction(0), Fraction(0))
    for shift in (1, 2):
        for i in range(len(_ROW)):
            total = total + index[i] * index[(i + shift) % len(_ROW)]
    return total


class Clock:
    """Times calls in calibrated seconds.  Use as a context manager: the
    interval timer runs inside the ``with`` block only."""

    def __init__(self):
        self.samples = array("d")  # every kernel time, in order
        self.sampling = 0.0  # wall seconds spent taking samples
        self._busy = False
        self._previous = None

    def _sample(self, *_signal) -> None:
        if self._busy:  # a tick that lands inside a sample is dropped
            return
        self._busy = True
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.samples.append(end - start)
        self.sampling += perf_counter() - start
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, call) -> tuple:
        """(result, wall seconds, calibrated seconds) of ``call()``; the wall
        seconds leave out the samples taken during the call."""
        self._sample()
        first, sampling = len(self.samples) - 1, self.sampling
        start = perf_counter()
        result = call()
        wall = perf_counter() - start - (self.sampling - sampling)
        self._sample()
        around = self.samples[first:]
        return result, wall, wall * REFERENCE_S * len(around) / sum(around)
