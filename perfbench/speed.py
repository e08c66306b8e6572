"""Machine-speed probe: puts measured times on one scale across runs.

The benchmark shares a small virtual machine with other tenants, and the
same code runs up to 1.8 times slower for stretches of seconds to minutes
while they are busy. A reference probe, a fixed loop of the kind of work
the program does (Python arithmetic on small numpy arrays), slows down in
step. ``Sampler`` runs the probe every ``INTERVAL_S`` of wall time from a
``SIGALRM`` handler while an operation runs, and once more after it, and
scales the operation's time by the mean, over the probes seen, of the
probe's nominal time over its measured time. With the probe right next to
each operation, this turns a 16-35% run-to-run spread into a few percent
on the same machine.

The probe does not touch the program, so a change to the program moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

INTERVAL_S = 0.05
# The probe's typical time on a 2-vCPU Intel Xeon host with Python 3.11 and
# numpy 2.4; it only sets the unit, so it never changes.
NOMINAL_PROBE_S = 350e-6


def at_nominal(raw_s: float, probes: List[float]) -> float:
    """``raw_s`` scaled to the probe's nominal speed.

    The probes come at even steps of wall time, and the work done in a step
    goes as the speed then, nominal / probe time, so the scale is the mean
    speed. The machine switches between a fast and a slow speed within
    seconds; the median probe would pick one of them, and left a single
    lattice verdict spreading twice as much.
    """
    return raw_s * statistics.fmean(NOMINAL_PROBE_S / p for p in probes)


def probe_seconds() -> float:
    x = np.linspace(0.0, 1.0, 32)
    total = 0.0
    start = time.perf_counter()
    for i in range(20):
        y = (np.roll(x, 1) - np.roll(x, -1)) * 0.5
        total += float(np.dot(y, x)) + math.sin(i * 0.1)
    return time.perf_counter() - start


class Sampler:
    """Probe samples taken during and right after timed operations."""

    def __init__(self):
        self._samples: List[float] = []
        # Wall time spent in the handler, which is not the program's time.
        self._handler_s = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self._samples.append(probe_seconds())
        self._handler_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> Tuple[int, float]:
        return len(self._samples), self._handler_s

    def since(self, mark: Tuple[int, float]) -> List[float]:
        """Probe times taken since ``mark``."""
        return self._samples[mark[0]:]

    def scaled(self, mark: Tuple[int, float], raw_s: float) -> float:
        """``raw_s`` measured since ``mark``, at the probe's nominal speed."""
        _, handler_before = mark
        own_s = raw_s - (self._handler_s - handler_before)
        self._samples.append(probe_seconds())
        return at_nominal(own_s, self.since(mark))

    def slowdown(self) -> float:
        """Median probe time over the nominal one, for the whole run."""
        return statistics.median(self._samples) / NOMINAL_PROBE_S
