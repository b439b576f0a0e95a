"""Machine-speed gauge.

This benchmark runs on shared virtual machines whose speed drifts by
20-40% over minutes (other tenants, turbo frequency), which no number of
repeats inside one run averages out.  `gauge()` times a fixed CPU kernel
that touches neither authcap nor the disk: a pure-Python loop and a chain
of small numpy products, the two kinds of work authcap's jobs do.  The
virtual CPUs change speed independently, so each timed piece of work
runs pinned to the CPU the gauge finds fastest just before it, and its
wall time is divided by the mean of the gauge readings taken on that CPU
just before and just after it and multiplied by `REFERENCE_S`: the time
it would take at the reference speed.
"""

from __future__ import annotations

import os
import time

import numpy as np

# Gauge time at the reference speed: the fastest readings on an Intel Xeon
# (2.1 GHz, 2 vCPU) virtual machine, Python 3.11, numpy 2.4.
REFERENCE_S = 0.0075

# Doubly stochastic, so the product chain stays a stochastic matrix: no
# overflow, underflow or subnormal operands.
_STEP = 0.5 * np.eye(8) + 0.5 / 8.0


def _kernel():
    s = 0
    for i in range(80_000):
        s += i * i
    a = np.eye(8)
    for _ in range(3_000):
        a = a @ _STEP


def gauge() -> float:
    """Wall time of the fixed kernel, in seconds.  The kernel runs once
    untimed first: a reading right after a child process exits would
    otherwise include refilling the caches."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class ReferenceClock:
    """Times work at the reference speed.

    `start()` reads the gauge on every CPU this process may use and pins
    the process (and so any child it starts) to the fastest; `stop(wall)`
    reads the gauge again and scales `wall` by the mean of the two readings
    on that CPU.  Used as a context manager it times its own block.  Scaled
    and wall times add up until `take()` returns and clears them.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.readings = []
        self.wall = self.scaled = 0.0
        self._first = self._t0 = 0.0

    def start(self):
        speeds = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = gauge()
        cpu = min(speeds, key=speeds.get)
        os.sched_setaffinity(0, {cpu})
        self._first = speeds[cpu]

    def stop(self, wall: float) -> float:
        last = gauge()
        self.readings += [self._first, last]
        scaled = wall * REFERENCE_S / (0.5 * (self._first + last))
        self.wall += wall
        self.scaled += scaled
        return scaled

    def take(self) -> tuple:
        """(wall, scaled) seconds timed since the last call."""
        out = (self.wall, self.scaled)
        self.wall = self.scaled = 0.0
        return out

    def __enter__(self):
        self.start()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.stop(time.perf_counter() - self._t0)
        return False
