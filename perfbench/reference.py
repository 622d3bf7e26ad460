"""A fixed reference kernel that measures how fast the machine is right now.

`pass_norm` divides the mean pass time by the mean time of this kernel,
sampled every 0.25 s while the passes run, and `setup_s` is scaled by its
mean time during set-up (`ReferenceClock.mean_s`).  The kernel uses no
lorentzqrf code, so a library change cannot move it.  What it tracks is the
machine: on a shared host the kernel flips between about 6 ms and 10 ms, the
same pass can take half again as long a few minutes later, and interpreter
work, numpy transcendental functions and traffic through the last-level
cache, which the host's other tenants share, slow down together.  A variant
that kept its buffers within 256 KiB tracked the passes worse.
"""

from __future__ import annotations

import math
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

_GRID = np.linspace(0.0, 1.0, 1024)
# the kernel writes into buffers made once, so that sampling it in the middle
# of a library call does not move the process's peak memory.  They are
# resident from the first sample on, which comes before set-up, and run.py
# takes them out of peak_rss_mb.
_PHASES = np.empty((128, 1024), dtype=complex)
_ONES = np.ones(1_000_000)
_STREAM = np.empty(1_000_000)
RESIDENT_BYTES = _GRID.nbytes + _PHASES.nbytes + _ONES.nbytes + _STREAM.nbytes


@dataclass(frozen=True)
class _Point:
    t: float
    x: float


def reference_s() -> float:
    """Wall time of one run of the kernel (about 20 ms)."""
    start = perf_counter()
    acc = 0.0
    for i in range(2000):  # interpreter: frozen dataclasses and scalar math
        point = _Point(i * 1e-3, math.sin(i * 1e-3))
        acc += point.t * point.x
    np.outer(_GRID[:128], 1j * _GRID, out=_PHASES)
    np.exp(_PHASES, out=_PHASES)  # 131k complex exps
    acc += float(np.abs(_PHASES @ _GRID).sum())
    np.multiply(_ONES, 1.0001, out=_STREAM)  # streams 16 MB through the cache
    acc += float(_STREAM[-1])
    elapsed = perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return elapsed


class ReferenceClock:
    """Samples the reference kernel every `every_s` seconds of wall time.

    An interval timer (SIGALRM) runs the kernel between the bytecodes of
    whatever the process is doing, so a 30 s library call is sampled
    throughout and not only at its ends.  The handler's own time intervals
    are kept, so that callers can take them out of their timings.
    """

    def __init__(self, every_s: float = 0.25) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(reference_s())
        self.intervals.append((start, perf_counter()))

    def mean_s(self) -> float:
        """Mean sample, leaving out samples over twice the fastest.

        The machine's slow state is about 1.6 times its fast one.  A slower
        sample ran with its buffers evicted by a large library call (up to
        20 ms after a 1.3 GB `wavefunction_grid`), which says nothing about
        the machine's speed.  About 1 % of samples are left out.
        """
        fastest = min(self.samples)
        return statistics.fmean(s for s in self.samples if s <= 2.0 * fastest)

    def busy_s(self, start: float, end: float) -> float:
        """Time the samples took within [start, end]."""
        return sum(
            max(0.0, min(b, end) - max(a, start))
            for a, b in reversed(self.intervals)
            if b > start
        )

    def __enter__(self) -> "ReferenceClock":
        reference_s()  # the first call runs slow; keep it out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
