"""A fixed reference task that tracks how fast the host runs right now.

The benchmark's host is shared, and its speed drifts: the same code can run
twice as fast in one second as in the next, and a slow state can last from a
second to minutes.  Wall times taken alone then differ between runs by more
than any bound worth setting.  So the benchmark runs short slices of this
task next to the work it times, and reports each time at reference speed:
the measured time multiplied by ``REF_SLICE_S / (mean slice time nearby)``.
The raw times are reported alongside.

The task uses no part of the library, so a change to the library cannot move
it.  It mixes what the library spends its time on: ``Fraction``
arithmetic, small complex numpy matrices, LAPACK calls on them, and the
tuples, lists and dicts of Python bookkeeping.  The shares follow a
five-minute record of the library's items next to candidate tasks on a
2-vCPU host: this mix kept the ratio of item time to slice time steadiest
across the host's fast and slow states.  Pure integer loops tracked the
library worst, and are left out.
"""
from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

import numpy as np

# One slice takes this long at reference speed (about its time in the fast
# state of a 2-vCPU x86-64 host); it only sets the scale of the reported
# times.
REF_SLICE_S = 0.56e-3

_A = (np.arange(36).reshape(6, 6) % 7 - 3) + 1j * (np.arange(36).reshape(6, 6) % 5 - 2)


def reference_slice() -> float:
    """Run one slice of the reference task; return its wall time in seconds."""
    start = perf_counter()
    f = Fraction(1, 3)
    for i in range(40):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
    M = _A.copy()
    for _ in range(18):
        M = M @ _A
        M = M / np.abs(M).max()
    for _ in range(5):
        np.linalg.svd(M)
    table = {}
    for i in range(650):
        key = (i, i + 1)
        table[key] = [key, str(i)]
    sum(len(v) for v in table.values())
    return perf_counter() - start


class TimerSlices:
    """Slices run from a SIGALRM handler, one `every` seconds of wall time
    after the last, so that they sample the host's speed all through a
    stretch of work without that work calling them.  The handler runs in the
    main thread between bytecodes of whatever it is doing.  Start it in the
    main thread, after numpy is imported, and stop it there."""

    def __init__(self, every: float):
        self.every = every
        self.slices: list[float] = []
        self._on = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, every)

    def _tick(self, signum, frame) -> None:
        if self._on:
            self.slices.append(reference_slice())
            signal.setitimer(signal.ITIMER_REAL, self.every)

    def stop(self) -> list[float]:
        """Stop the timer; return the slice times."""
        self._on = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        # a signal still pending is ignored rather than fatal
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        return self.slices
