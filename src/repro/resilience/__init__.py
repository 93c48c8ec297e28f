"""Resilience layer: retry and circuit-breaker policies + deterministic chaos.

TVDP's production posture treats partial failure as the normal case —
dead Raspberry Pis mid-campaign, flaky uplinks, interrupted persistence
writes.  This package provides the two halves of surviving that:

* **Policies** (:mod:`repro.resilience.policies`) — :class:`Retry` with
  seeded exponential backoff and :class:`CircuitBreaker` with
  closed/open/half-open isolation, which a caller nests, the retry
  outermost.  Per-name breakers live in a process registry
  (:func:`get_breaker`, surfaced at ``GET /health``).
* **Faults** (:mod:`repro.resilience.faults`) — :class:`FaultPlan`
  scripts error/latency/corruption faults per call-site on a seeded,
  exactly-reproducible schedule, activated via a contextvar so tests
  and ``python -m repro --chaos`` inject failures with zero
  monkeypatching.

Both halves share the injectable :class:`Clock`
(:mod:`repro.resilience.clock`): under a :class:`ManualClock`, retry
storms, breaker recovery windows, and injected latency all play out in
simulated time — the whole resilience test suite runs without a single
real ``time.sleep``.

See ``docs/resilience.md`` for policy semantics and chaos-test recipes.
"""

from repro.resilience.clock import Clock, ManualClock, SystemClock
from repro.resilience.faults import (
    SEED_ENV_VAR,
    FaultEvent,
    FaultPlan,
    FaultRule,
    active_plan,
    corrupt,
    current_clock,
    inject,
    seed_from_env,
)
from repro.resilience.policies import (
    DEFAULT_TRANSIENT,
    CircuitBreaker,
    Retry,
    backoff_delays,
    breaker_states,
    get_breaker,
    reset_breakers,
)

__all__ = [
    "DEFAULT_TRANSIENT",
    "SEED_ENV_VAR",
    "CircuitBreaker",
    "Clock",
    "FaultEvent",
    "FaultPlan",
    "FaultRule",
    "ManualClock",
    "Retry",
    "SystemClock",
    "active_plan",
    "backoff_delays",
    "breaker_states",
    "corrupt",
    "current_clock",
    "get_breaker",
    "inject",
    "reset_breakers",
    "seed_from_env",
]
