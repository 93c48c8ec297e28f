"""Policy semantics: Retry and CircuitBreaker."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import CircuitOpenError
from repro.resilience import (
    CircuitBreaker,
    Retry,
    backoff_delays,
    breaker_states,
    get_breaker,
)
from tests.racing import read_while_writing


class TestBackoffDelays:
    def test_deterministic_per_seed(self):
        a = backoff_delays(6, seed=42)
        b = backoff_delays(6, seed=42)
        assert a == b
        assert backoff_delays(6, seed=43) != a

    def test_monotone_and_capped(self):
        delays = backoff_delays(8, base_delay_s=0.1, max_delay_s=1.0, budget_s=100.0)
        assert all(b >= a for a, b in zip(delays, delays[1:]))
        assert all(d <= 1.0 for d in delays)

    def test_budget_stops_schedule(self):
        delays = backoff_delays(50, base_delay_s=1.0, max_delay_s=10.0, budget_s=5.0)
        assert sum(delays) <= 5.0


class TestRetry:
    def test_transient_failures_absorbed(self, manual_clock, flaky_call):
        call = flaky_call(2)
        retry = Retry(max_attempts=4, clock=manual_clock, site="t")
        assert retry.call(call) == "ok"
        assert call.calls == 3
        assert manual_clock.slept > 0  # backoff happened, virtually

    def test_exhaustion_reraises_last_error(self, manual_clock, flaky_call):
        call = flaky_call(10, error=ConnectionError("down"))
        retry = Retry(max_attempts=3, clock=manual_clock, site="t")
        with pytest.raises(ConnectionError, match="down"):
            retry.call(call)
        assert call.calls == 3

    def test_non_retryable_propagates_immediately(self, manual_clock, flaky_call):
        call = flaky_call(1, error=ValueError("a bug, not weather"))
        retry = Retry(max_attempts=5, clock=manual_clock, site="t")
        with pytest.raises(ValueError):
            retry.call(call)
        assert call.calls == 1

    def test_retries_metered(self, manual_clock, flaky_call):
        Retry(max_attempts=3, clock=manual_clock, site="metered").call(flaky_call(1))
        counter = obs.metrics().counter("resilience.retries", {"site": "metered"})
        assert counter.value == 1


    def test_one_policy_shared_by_two_threads_counts_per_call(
        self, manual_clock, flaky_call
    ):
        """A Retry holds its schedule and nothing about a call: two
        threads, each with its own failing schedule through the one
        policy, each see their own attempts, and every retry is metered."""
        retry = Retry(max_attempts=4, clock=manual_clock, site="shared")

        def attempts_of(failures: int) -> int:
            call = flaky_call(failures)
            assert retry.call(call) == "ok"
            return call.calls

        twice_failed: list[int] = []
        once_failed = read_while_writing(
            lambda: attempts_of(1),
            lambda: twice_failed.extend(attempts_of(2) for _ in range(200)),
        )
        assert set(once_failed) == {2} and twice_failed == [3] * 200
        counter = obs.metrics().counter("resilience.retries", {"site": "shared"})
        assert counter.value == len(once_failed) + 2 * 200


class TestCircuitBreaker:
    def make(self, clock, **kwargs):
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("recovery_time_s", 30.0)
        return CircuitBreaker("test", clock=clock, **kwargs)

    def trip(self, breaker, failing):
        for _ in range(breaker.failure_threshold):
            with pytest.raises(ConnectionError):
                breaker.call(failing)
        assert breaker.state == "open"

    def test_trips_after_threshold_and_fast_fails(self, manual_clock, flaky_call):
        breaker = self.make(manual_clock)
        self.trip(breaker, flaky_call(99))
        with pytest.raises(CircuitOpenError) as err:
            breaker.call(lambda: "never runs")
        assert err.value.retry_after_s > 0

    def test_recovers_via_half_open_probe(self, manual_clock, flaky_call):
        breaker = self.make(manual_clock)
        self.trip(breaker, flaky_call(99))
        manual_clock.advance(31.0)
        assert breaker.call(lambda: "probe") == "probe"
        assert breaker.state == "closed"
        # The state machine went open -> half_open -> closed, never
        # open -> closed directly.
        states = [(frm, to) for frm, to, _ in breaker.transitions]
        assert ("open", "closed") not in states
        assert ("open", "half_open") in states and ("half_open", "closed") in states

    def test_failed_probe_reopens(self, manual_clock, flaky_call):
        breaker = self.make(manual_clock)
        self.trip(breaker, flaky_call(99))
        manual_clock.advance(31.0)
        with pytest.raises(ConnectionError):
            breaker.call(flaky_call(1))
        assert breaker.state == "open"

    def test_success_resets_consecutive_failures(self, manual_clock, flaky_call):
        breaker = self.make(manual_clock)
        for _ in range(2):
            with pytest.raises(ConnectionError):
                breaker.call(flaky_call(1))
        breaker.call(lambda: "ok")
        assert breaker.failures == 0 and breaker.state == "closed"

    def test_failure_on_scopes_what_counts(self, manual_clock):
        breaker = self.make(manual_clock, failure_on=(ConnectionError,))
        for _ in range(5):
            with pytest.raises(KeyError):
                breaker.call(failing := (lambda: (_ for _ in ()).throw(KeyError("x"))))
        assert breaker.state == "closed"  # KeyError is a bug, not weather

    def test_registry_snapshot(self, manual_clock, flaky_call):
        breaker = get_breaker("snap", failure_threshold=1, clock=manual_clock)
        with pytest.raises(ConnectionError):
            breaker.call(flaky_call(1))
        states = breaker_states()
        assert states["snap"]["state"] == "open"
        assert states["snap"]["trips"] == 1
