"""Host-speed adjustment: what makes the numbers repeat on a shared host.

The sandbox this benchmark runs in is a small VM on a shared machine
whose speed drifts by tens of percent within seconds and by a factor of
two within an hour (README, "Why times are host-speed-adjusted").  Raw
latencies of two runs of the same code then differ by 15-30 %, more
than any bound worth having.  Within one stretch of a second, though,
everything slows by the same factor: a family's median over the run's
mean latency repeats to 1-7 %.

So between requests, every 20 ms, the benchmark times a fixed
calibration kernel (75 us of the interpreter and numpy work the program
is made of: row dicts built, copied, filtered and sorted, a small matrix
norm, a nested list turned into bytes and hashed).  The median of the
last 16 kernel times over ``REFERENCE_S`` is the host's current slowdown,
and every measured time is divided by it.  A reported time is therefore
"at reference host speed".

The kernel runs none of the program, and each sample runs it twice and
times the second pass only: the first loads the kernel's few kilobytes,
so the timed pass does not depend on what the program left in the
caches, and a program change that touches more or less memory per
request does not move the factor.  (Timed cold, right after program work,
the kernel took 1.5-1.8 times as long, by a ratio that differed between
workloads and fell when the host was slow; adjusted by it, family medians
of ten ``serial_select`` runs spread 19-24 %, by the primed kernel
4-11 %, raw 9-14 %.)  ``REFERENCE_S`` only fixes the unit: runs are
compared with runs on the same host, so any constant would do.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import deque

import numpy as np

#: Kernel time that defines host speed 1.0 (this sandbox when quiet).
REFERENCE_S = 75e-6
INTERVAL_S = 0.020
WINDOW = 16

_VECTOR = np.arange(50.0)
_MATRIX = np.outer(np.arange(64.0), _VECTOR)
_PIXELS = [[[i, j, 7] for j in range(8)] for i in range(8)]


def kernel() -> None:
    rows = [{"id": i, "lat": 34.0 + i * 1e-4, "t": float(i)} for i in range(150)]
    kept = [dict(row) for row in rows if 25.0 <= row["t"] <= 125.0]
    kept.sort(key=lambda row: -row["lat"])
    np.linalg.norm(_MATRIX - _VECTOR, axis=1)
    hashlib.sha1(np.array(_PIXELS, dtype=np.uint8).tobytes()).hexdigest()


class HostSpeed:
    """The host's current slowdown ``factor`` (1.0 = reference speed),
    kept fresh by sampling the kernel between measurements."""

    def __init__(self) -> None:
        self._recent: deque[float] = deque(maxlen=WINDOW)
        self.samples: list[float] = []  # every kernel time of the run, raw
        self._next = 0.0
        self.factor = 1.0
        kernel()  # the first run pays for imports and cold code
        self._sample()

    def _sample(self) -> None:
        kernel()  # untimed: loads the kernel's own working set
        t0 = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self._recent.append(end - t0)
        self.samples.append(end - t0)
        self.factor = statistics.median(self._recent) / REFERENCE_S
        self._next = end + INTERVAL_S

    def tick(self) -> None:
        """Sample the kernel if the last sample is 20 ms old."""
        if time.perf_counter() >= self._next:
            self._sample()

    def measure(self, call):
        """Run one call; returns its value and its seconds at reference
        speed (by the slowdown at its start, for a call of seconds)."""
        factor = self.factor
        t0 = time.perf_counter()
        value = call()
        seconds = (time.perf_counter() - t0) / factor
        self.tick()
        return value, seconds
