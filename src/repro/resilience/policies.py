"""Composable resilience policies: Retry, Timeout, CircuitBreaker, Fallback.

Each policy wraps one callable-of-no-args via ``policy.call(fn)``;
:func:`resilient` stacks several into a decorator, outermost first::

    @resilient(Fallback([]), Retry(max_attempts=4, site="db.load"))
    def load():
        ...

    # or ad hoc, without decorating:
    result = execute(lambda: client.search(spec), Retry(site="api.request"))

Everything time-shaped — backoff sleeps, breaker recovery windows,
timeout measurement — goes through the injectable :class:`Clock`
resolved by :func:`repro.resilience.faults.current_clock`, so chaos
tests run whole retry storms in zero wall-clock time.  All policies
report into ``repro.obs``: ``resilience.retries{site=}``,
``resilience.breaker_open{breaker=}`` and
``resilience.breaker_rejected{breaker=}`` counters, a
``resilience.breaker_state{breaker=}`` gauge (0 closed / 1 half-open /
2 open), ``resilience.timeouts{site=}``, ``resilience.fallbacks{site=}``
— and annotate the active span with retry/fault metadata so slow-span
exemplars show *why* an operation took many attempts.
"""

from __future__ import annotations

import functools
import random
import threading
from typing import Callable, TypeVar

from repro import obs
from repro.errors import (
    CallTimeoutError,
    CircuitOpenError,
    FaultInjected,
    ResilienceError,
    RetryBudgetExceeded,
)
from repro.resilience.clock import Clock
from repro.resilience.faults import current_clock

T = TypeVar("T")

#: What a retry treats as transient when the caller doesn't say:
#: injected faults, post-hoc timeouts, and OS-level connectivity errors.
DEFAULT_TRANSIENT: tuple[type[BaseException], ...] = (
    FaultInjected,
    CallTimeoutError,
    ConnectionError,
    TimeoutError,
)

_log = obs.get_logger("resilience")


def backoff_delays(
    max_attempts: int,
    base_delay_s: float = 0.05,
    factor: float = 2.0,
    max_delay_s: float = 5.0,
    budget_s: float = 30.0,
    jitter: float = 0.25,
    seed: int = 0,
) -> list[float]:
    """The deterministic backoff schedule a :class:`Retry` will follow.

    Delay ``k`` starts from ``min(max_delay_s, base * factor**k)``,
    shrinks by up to ``jitter`` (a seeded fraction — full-jitter's
    thundering-herd spread without its non-determinism), and is then
    floored at the previous delay, so the realised sequence is monotone
    non-decreasing *by construction*.  The schedule stops early rather
    than emit a delay that would push the cumulative total past
    ``budget_s`` — both invariants are pinned by property tests for
    arbitrary seeds.
    """
    if max_attempts < 1:
        raise ResilienceError(f"max_attempts must be >= 1, got {max_attempts}")
    if base_delay_s < 0 or max_delay_s < 0 or budget_s < 0:
        raise ResilienceError("delays and budget must be >= 0")
    if factor < 1.0:
        raise ResilienceError(f"factor must be >= 1, got {factor}")
    if not (0.0 <= jitter < 1.0):
        raise ResilienceError(f"jitter must be in [0, 1), got {jitter}")
    rng = random.Random(f"backoff:{seed}")
    delays: list[float] = []
    total = 0.0
    previous = 0.0
    for k in range(max_attempts - 1):
        raw = min(max_delay_s, base_delay_s * factor**k)
        jittered = raw * (1.0 - jitter * rng.random())
        delay = max(previous, jittered)
        if total + delay > budget_s:
            break
        delays.append(delay)
        total += delay
        previous = delay
    return delays


class Retry:
    """Retry transient failures with seeded exponential backoff.

    ``max_attempts`` caps total tries; the backoff *budget* caps total
    simulated sleep, whichever bites first.  Non-retryable exceptions
    propagate untouched; when the schedule is exhausted the last error
    re-raises as-is (``reraise=True``, the default — callers keep their
    exception contract) or wrapped in :class:`RetryBudgetExceeded`.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay_s: float = 0.05,
        factor: float = 2.0,
        max_delay_s: float = 5.0,
        budget_s: float = 30.0,
        jitter: float = 0.25,
        seed: int = 0,
        retry_on: tuple[type[BaseException], ...] = DEFAULT_TRANSIENT,
        retryable: Callable[[BaseException], bool] | None = None,
        reraise: bool = True,
        clock: Clock | None = None,
        site: str = "call",
    ) -> None:
        self.site = site
        self.retry_on = retry_on
        self.retryable = retryable
        self.reraise = reraise
        self.clock = clock
        self.delays = backoff_delays(
            max_attempts=max_attempts,
            base_delay_s=base_delay_s,
            factor=factor,
            max_delay_s=max_delay_s,
            budget_s=budget_s,
            jitter=jitter,
            seed=seed,
        )

    def call(self, fn: Callable[[], T]) -> T:
        attempt = 0
        while True:
            try:
                result = fn()
            except self.retry_on as exc:
                if self.retryable is not None and not self.retryable(exc):
                    raise
                if attempt >= len(self.delays):
                    _log.warning(
                        "%s: giving up after %d attempt(s): %s",
                        self.site, attempt + 1, exc,
                    )
                    if self.reraise:
                        raise
                    raise RetryBudgetExceeded(
                        f"{self.site}: retry schedule exhausted after "
                        f"{attempt + 1} attempt(s)",
                        last_error=exc,
                    ) from exc
                delay = self.delays[attempt]
                attempt += 1
                obs.metrics().counter("resilience.retries", {"site": self.site}).inc()
                span = obs.current_span()
                if span is not None:
                    span.set("retries", attempt)
                    span.set("retry_error", type(exc).__name__)
                _log.debug(
                    "%s: attempt %d failed (%s); backing off %.3fs",
                    self.site, attempt, exc, delay,
                )
                # Deliberately blocking on the request path: backoff
                # delays come from a fixed, finite schedule, so a
                # handler waits at most the retry budget — the bounded
                # degradation the resilience layer exists to provide.
                current_clock(self.clock).sleep(delay)  # devtools: allow[blocking-in-handler]
            else:
                if attempt:
                    span = obs.current_span()
                    if span is not None:
                        span.set("retries", attempt)
                return result


class Timeout:
    """Post-hoc timeout: measure the call through the clock, fail it if
    the limit was exceeded.

    In-process synchronous calls cannot be preempted portably, so this
    policy cannot *shorten* a slow call — it converts one into a typed,
    retryable :class:`CallTimeoutError` after the fact, which is exactly
    the contract retries and breakers need.  Under a fault plan's
    :class:`ManualClock`, injected latency advances the clock and trips
    this deterministically.
    """

    def __init__(
        self, limit_s: float, clock: Clock | None = None, site: str = "call"
    ) -> None:
        if limit_s <= 0:
            raise ResilienceError(f"timeout limit must be positive, got {limit_s}")
        self.limit_s = limit_s
        self.clock = clock
        self.site = site

    def call(self, fn: Callable[[], T]) -> T:
        clock = current_clock(self.clock)
        started = clock.now()
        result = fn()
        elapsed = clock.now() - started
        if elapsed > self.limit_s:
            obs.metrics().counter("resilience.timeouts", {"site": self.site}).inc()
            span = obs.current_span()
            if span is not None:
                span.set("timeout_s", self.limit_s)
            raise CallTimeoutError(self.limit_s, elapsed)
        return result


#: Gauge encoding of breaker states.
_STATE_VALUES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


class CircuitBreaker:
    """Closed / open / half-open failure isolation with injectable time.

    ``failure_threshold`` consecutive failures trip the breaker open;
    open calls fast-fail with :class:`CircuitOpenError` (no load on the
    struggling dependency) until ``recovery_time_s`` has elapsed on the
    clock, after which up to ``half_open_max_probes`` probe calls run —
    one probe success closes the circuit, one probe failure re-opens it.
    The machine can *only* reach closed from half-open, never straight
    from open; :attr:`transitions` records every edge so tests can check
    that invariant.
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 5,
        recovery_time_s: float = 30.0,
        half_open_max_probes: int = 1,
        failure_on: tuple[type[BaseException], ...] = (Exception,),
        clock: Clock | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ResilienceError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if recovery_time_s < 0:
            raise ResilienceError(
                f"recovery_time_s must be >= 0, got {recovery_time_s}"
            )
        if half_open_max_probes < 1:
            raise ResilienceError(
                f"half_open_max_probes must be >= 1, got {half_open_max_probes}"
            )
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_time_s = recovery_time_s
        self.half_open_max_probes = half_open_max_probes
        self.failure_on = failure_on
        self.clock = clock
        self.state = "closed"
        self.failures = 0  # consecutive, while closed
        self.opened_at = 0.0
        self.probes_in_flight = 0
        self.transitions: list[tuple[str, str, float]] = []  # (from, to, at)
        self._lock = threading.Lock()
        self._gauge = obs.metrics().gauge(
            "resilience.breaker_state", {"breaker": name}
        )
        self._opened = obs.metrics().counter(
            "resilience.breaker_open", {"breaker": name}
        )
        self._rejected = obs.metrics().counter(
            "resilience.breaker_rejected", {"breaker": name}
        )

    def _transition(self, to: str, now: float) -> None:
        """Move to ``to``; caller holds the lock."""
        self.transitions.append((self.state, to, now))
        self.state = to
        self._gauge.set(_STATE_VALUES[to])
        if to == "open":
            self.opened_at = now
            self._opened.inc()
        elif to == "half_open":
            self.probes_in_flight = 0
        elif to == "closed":
            self.failures = 0

    def _admit(self, now: float) -> None:
        """Gatekeeper: raise :class:`CircuitOpenError` or admit the call
        (counting half-open probes).  Caller holds the lock."""
        if self.state == "open":
            waited = now - self.opened_at
            if waited < self.recovery_time_s:
                self._rejected.inc()
                raise CircuitOpenError(self.name, self.recovery_time_s - waited)
            self._transition("half_open", now)
        if self.state == "half_open":
            if self.probes_in_flight >= self.half_open_max_probes:
                self._rejected.inc()
                raise CircuitOpenError(self.name, 0.0)
            self.probes_in_flight += 1

    def call(self, fn: Callable[[], T]) -> T:
        clock = current_clock(self.clock)
        with self._lock:
            self._admit(clock.now())
            probing = self.state == "half_open"
        try:
            result = fn()
        except self.failure_on:
            with self._lock:
                now = clock.now()
                if self.state == "half_open":
                    self._transition("open", now)
                elif self.state == "closed":
                    self.failures += 1
                    if self.failures >= self.failure_threshold:
                        self._transition("open", now)
            raise
        with self._lock:
            if self.state == "half_open":
                self._transition("closed", clock.now())
            elif probing:
                # Closed by a concurrent probe while we ran; nothing to do.
                pass
            else:
                self.failures = 0
        return result

    def snapshot(self) -> dict[str, object]:
        """State summary for ``GET /health``."""
        with self._lock:
            return {
                "state": self.state,
                "failures": self.failures,
                "failure_threshold": self.failure_threshold,
                "recovery_time_s": self.recovery_time_s,
                "trips": len([t for t in self.transitions if t[1] == "open"]),
            }


class Fallback:
    """Degrade gracefully: swallow a failure, return a substitute.

    ``fallback`` is either a plain value or a one-argument callable
    receiving the exception; ``catch`` bounds what gets absorbed (never
    swallow programming errors by default — only platform failures).
    """

    def __init__(
        self,
        fallback: object,
        catch: tuple[type[BaseException], ...] = (ResilienceError,),
        site: str = "call",
    ) -> None:
        self.fallback = fallback
        self.catch = catch
        self.site = site

    def call(self, fn: Callable[[], T]) -> object:
        try:
            return fn()
        except self.catch as exc:
            obs.metrics().counter("resilience.fallbacks", {"site": self.site}).inc()
            span = obs.current_span()
            if span is not None:
                span.set("fallback", type(exc).__name__)
            _log.info("%s: degraded to fallback after %s", self.site, exc)
            if callable(self.fallback):
                return self.fallback(exc)
            return self.fallback


def resilient(*policies: object) -> Callable[[Callable[..., T]], Callable[..., T]]:
    """Stack policies around a function, outermost first.

    ``resilient(Fallback(x), Retry(), Timeout(1.0))`` means: the timeout
    judges each individual attempt, the retry re-runs timed-out/failed
    attempts, and the fallback absorbs whatever survives the retries.
    """

    def decorate(fn: Callable[..., T]) -> Callable[..., T]:
        @functools.wraps(fn)
        def wrapper(*args: object, **kwargs: object) -> T:
            def run(index: int) -> T:
                if index == len(policies):
                    return fn(*args, **kwargs)
                policy = policies[index]
                return policy.call(lambda: run(index + 1))  # type: ignore[attr-defined]

            return run(0)

        return wrapper

    return decorate


def execute(fn: Callable[[], T], *policies: object) -> T:
    """Run one thunk under a policy stack (ad-hoc :func:`resilient`)."""
    return resilient(*policies)(fn)()


# -- breaker registry (what GET /health surfaces) ----------------------------

_breakers: dict[str, CircuitBreaker] = {}
_breakers_lock = threading.Lock()


def get_breaker(
    name: str,
    failure_threshold: int = 5,
    recovery_time_s: float = 30.0,
    half_open_max_probes: int = 1,
    failure_on: tuple[type[BaseException], ...] = (Exception,),
    clock: Clock | None = None,
) -> CircuitBreaker:
    """Get-or-create a named breaker in the process-wide registry.

    Parameters apply on first creation only; later callers share the
    same instance (two breakers under one name would defeat the point —
    each would see only half the failures).
    """
    with _breakers_lock:
        breaker = _breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(
                name,
                failure_threshold=failure_threshold,
                recovery_time_s=recovery_time_s,
                half_open_max_probes=half_open_max_probes,
                failure_on=failure_on,
                clock=clock,
            )
            _breakers[name] = breaker
        return breaker


def breaker_states() -> dict[str, dict[str, object]]:
    """Snapshot of every registered breaker (``GET /health`` payload)."""
    with _breakers_lock:
        breakers = dict(_breakers)
    return {name: breaker.snapshot() for name, breaker in sorted(breakers.items())}


def reset_breakers() -> None:
    """Drop every registered breaker (test/benchmark isolation)."""
    with _breakers_lock:
        _breakers.clear()
