"""Injectable time for every resilience code path.

Backoff delays, breaker recovery windows and injected latency faults
all go through a :class:`Clock`, never through ``time`` directly.
That single seam is what makes the whole resilience layer testable
in zero wall-clock time: tests (and ``python -m repro --chaos``)
install a :class:`ManualClock` whose ``sleep`` merely
advances a virtual timestamp, so a thousand retries with exponential
backoff "take" minutes of simulated time and microseconds of real time.
The ``no-sleep`` devtools lint enforces the seam — :class:`SystemClock`
holds the library's only sanctioned ``time.sleep`` call.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """What the resilience layer needs from time: read it, spend it."""

    def now(self) -> float:
        """Current time in seconds (monotonic; epoch is unspecified)."""
        ...

    def sleep(self, seconds: float) -> None:
        """Block (or simulate blocking) for ``seconds``."""
        ...


class SystemClock:
    """Real wall-clock time — the production default."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)  # devtools: allow[no-sleep] the one sanctioned sleep


class ManualClock:
    """Virtual time: ``sleep`` advances ``now`` instantly.

    ``slept`` accumulates every sleep request, so tests can assert on
    the *simulated* cost of a retry schedule (e.g. "the backoff spent
    less than its budget") without a single real pause.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self.slept = 0.0

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot sleep a negative duration: {seconds}")
        self._now += seconds
        self.slept += seconds

    def advance(self, seconds: float) -> None:
        """Move time forward without counting it as slept (an external
        event happening later — e.g. a breaker recovery window elapsing
        between requests)."""
        if seconds < 0:
            raise ValueError(f"cannot advance time backwards: {seconds}")
        self._now += seconds
