"""Deterministic fault injection, scripted per call-site.

A :class:`FaultPlan` is a *script* of failures: each :class:`FaultRule`
targets one call-site name (``"edge.transfer"``, ``"db.save"``,
``"api.request"``...) and fires either on explicit 1-based call indexes
(``at_calls={1, 3}``) or stochastically at a ``rate`` drawn from a
per-rule RNG seeded from ``(plan seed, site, kind, rule index)`` — so a
plan with the same seed and rules produces byte-identical schedules on
every run, on every machine.  That is what lets the chaos suite assert
exact outcomes instead of flaky probabilities.

Plans activate through a ``contextvars.ContextVar``::

    plan = FaultPlan(seed=7)
    plan.kill("edge.transfer", rate=0.3)
    plan.delay("api.request", latency_s=0.2, rate=0.5)
    with plan.activate():
        run_campaign_round(...)        # faults fire inside, no monkeypatching
    assert plan.summary()["edge.transfer"]["error"] > 0

Instrumented call-sites opt in with one line — ``faults.inject(site)``
before the work and, for payload-corruption sites,
``value = faults.corrupt(site, value)`` after it.  With no active plan
both are near-free no-ops, so the hooks stay in production code paths
(``python -m repro --chaos`` activates a plan over the normal CLI).

Latency faults spend time through the plan's :class:`Clock` — a
:class:`ManualClock` by default, so injected slowness is *simulated*
and the test suite never really sleeps.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import random
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

from repro import obs
from repro.errors import FaultInjected, ResilienceError
from repro.resilience.clock import Clock, ManualClock, SystemClock

#: Environment variable the chaos tooling reads its seed from.
SEED_ENV_VAR = "REPRO_FAULT_SEED"

VALID_KINDS = ("error", "latency", "corrupt")

#: The active plan for the current execution context (None = no chaos).
_active_plan: contextvars.ContextVar["FaultPlan | None"] = contextvars.ContextVar(
    "tvdp_fault_plan", default=None
)


def seed_from_env(default: int = 0) -> int:
    """The chaos seed: ``$REPRO_FAULT_SEED`` or ``default``."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ResilienceError(
            f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
        ) from exc


def _default_corruption(value: object) -> object:
    """Garble a payload in a way downstream parsers will notice."""
    if isinstance(value, str):
        return value[: len(value) // 2] + "\x00<<corrupted>>\x00"
    if isinstance(value, bytes):
        return value[: len(value) // 2] + b"\x00<<corrupted>>\x00"
    return None


@dataclass(frozen=True)
class FaultRule:
    """One scripted failure mode at one call-site."""

    site: str
    kind: str  # "error" | "latency" | "corrupt"
    rate: float = 1.0  # per-call probability when at_calls is None
    # Explicit 1-based call indexes (empty: never); None: rate decides.
    at_calls: frozenset[int] | None = None
    max_faults: int | None = None  # stop firing after this many injections
    error: Callable[[str, int], BaseException] | None = None  # error kind only
    latency_s: float = 0.0  # latency kind only
    corruption: Callable[[object], object] | None = None  # corrupt kind only

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ResilienceError(
                f"unknown fault kind {self.kind!r}; use one of {VALID_KINDS}"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise ResilienceError(f"rate must be in [0, 1], got {self.rate}")
        if self.kind == "latency" and self.latency_s < 0:
            raise ResilienceError(f"latency_s must be >= 0, got {self.latency_s}")
        if self.max_faults is not None and self.max_faults < 1:
            raise ResilienceError(f"max_faults must be >= 1, got {self.max_faults}")
        if self.at_calls is not None and any(index < 1 for index in self.at_calls):
            raise ResilienceError("at_calls indexes are 1-based; got an index < 1")


def _frozen(at_calls: frozenset[int] | set[int] | None) -> frozenset[int] | None:
    """``at_calls`` as a rule holds it: an empty set stays one (never)."""
    return None if at_calls is None else frozenset(at_calls)


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One fault the plan actually injected (the reproducibility log)."""

    site: str
    kind: str
    call_index: int  # 1-based index of the call at this (site, kind)


class FaultPlan:
    """A seeded, scripted schedule of faults, activatable per context.

    Thread-safe: call counters and the event log are guarded, so a plan
    can sit over API worker threads exactly like production chaos
    tooling would.
    """

    def __init__(self, seed: int = 0, clock: Clock | None = None) -> None:
        self.seed = int(seed)
        #: The clock injected latency is spent through and the default
        #: clock for policies running under this plan.  ManualClock by
        #: default: chaos time is simulated time.
        self.clock: Clock = clock if clock is not None else ManualClock()
        self._rules: list[FaultRule] = []
        self._rngs: list[random.Random] = []
        self._calls: dict[tuple[str, str], int] = {}  # (site, kind) -> count
        self._fired: dict[int, int] = {}  # rule index -> injections so far
        self._events: list[FaultEvent] = []
        self._lock = threading.Lock()

    # -- scripting ----------------------------------------------------------

    def add(self, rule: FaultRule) -> "FaultPlan":
        """Append one rule; returns self for chaining."""
        with self._lock:
            index = len(self._rules)
            self._rules.append(rule)
            # Deterministic per-rule stream: independent of every other
            # rule's draws, stable across runs and platforms.
            self._rngs.append(
                random.Random(f"{self.seed}:{rule.site}:{rule.kind}:{index}")
            )
        return self

    def kill(
        self,
        site: str,
        rate: float = 1.0,
        at_calls: frozenset[int] | set[int] | None = None,
        max_faults: int | None = None,
        error: Callable[[str, int], BaseException] | None = None,
    ) -> "FaultPlan":
        """Script error faults (default: raise :class:`FaultInjected`)."""
        return self.add(
            FaultRule(
                site=site,
                kind="error",
                rate=rate,
                at_calls=_frozen(at_calls),
                max_faults=max_faults,
                error=error,
            )
        )

    def delay(
        self,
        site: str,
        latency_s: float,
        rate: float = 1.0,
        at_calls: frozenset[int] | set[int] | None = None,
        max_faults: int | None = None,
    ) -> "FaultPlan":
        """Script latency faults (spent through :attr:`clock`)."""
        return self.add(
            FaultRule(
                site=site,
                kind="latency",
                rate=rate,
                at_calls=_frozen(at_calls),
                max_faults=max_faults,
                latency_s=latency_s,
            )
        )

    def garble(
        self,
        site: str,
        rate: float = 1.0,
        at_calls: frozenset[int] | set[int] | None = None,
        max_faults: int | None = None,
        corruption: Callable[[object], object] | None = None,
    ) -> "FaultPlan":
        """Script payload-corruption faults (sites that call
        :func:`corrupt` on their payloads)."""
        return self.add(
            FaultRule(
                site=site,
                kind="corrupt",
                rate=rate,
                at_calls=_frozen(at_calls),
                max_faults=max_faults,
                corruption=corruption,
            )
        )

    # -- activation ---------------------------------------------------------

    @contextlib.contextmanager
    def activate(self) -> Iterator["FaultPlan"]:
        """Make this plan the context's active plan."""
        token = _active_plan.set(self)
        try:
            yield self
        finally:
            _active_plan.reset(token)

    # -- execution (called via the module-level hooks) ----------------------

    def _matching(self, site: str, kinds: tuple[str, ...]) -> list[int]:
        return [
            i
            for i, rule in enumerate(self._rules)
            if rule.site == site and rule.kind in kinds
        ]

    def _decide(self, rule_index: int, call_index: int) -> bool:
        """Does rule ``rule_index`` fire on this call?  Caller holds the
        lock.  The RNG is drawn *every* stochastic call so schedules stay
        aligned with call counts regardless of earlier rule outcomes."""
        rule = self._rules[rule_index]
        fired = self._fired.get(rule_index, 0)
        if rule.at_calls is not None:
            triggered = call_index in rule.at_calls
        else:
            draw = self._rngs[rule_index].random()
            triggered = draw < rule.rate
        if triggered and rule.max_faults is not None and fired >= rule.max_faults:
            return False
        if triggered:
            self._fired[rule_index] = fired + 1
        return triggered

    def _record(self, site: str, kind: str, call_index: int) -> None:
        """Log + meter one injection.  Caller holds the lock."""
        self._events.append(FaultEvent(site=site, kind=kind, call_index=call_index))
        obs.metrics().counter(
            "resilience.faults", {"site": site, "kind": kind}
        ).inc()
        span = obs.current_span()
        if span is not None:
            span.set("fault", kind)
            span.set("fault_site", site)

    def inject(self, site: str, clock: Clock | None = None) -> None:
        """Apply error/latency rules for one call at ``site``."""
        sleep_s = 0.0
        error: BaseException | None = None
        with self._lock:
            call_index = self._calls.get((site, "call"), 0) + 1
            self._calls[(site, "call")] = call_index
            for rule_index in self._matching(site, ("error", "latency")):
                rule = self._rules[rule_index]
                if not self._decide(rule_index, call_index):
                    continue
                self._record(site, rule.kind, call_index)
                if rule.kind == "latency":
                    sleep_s += rule.latency_s
                elif error is None:  # first error rule wins
                    factory = rule.error
                    error = (
                        factory(site, call_index)
                        if factory is not None
                        else FaultInjected(site, call_index)
                    )
        if sleep_s > 0.0:
            (clock or self.clock).sleep(sleep_s)
        if error is not None:
            raise error

    def corrupt(self, site: str, value: object) -> object:
        """Apply corruption rules for one payload at ``site``."""
        with self._lock:
            call_index = self._calls.get((site, "corrupt"), 0) + 1
            self._calls[(site, "corrupt")] = call_index
            for rule_index in self._matching(site, ("corrupt",)):
                rule = self._rules[rule_index]
                if not self._decide(rule_index, call_index):
                    continue
                self._record(site, "corrupt", call_index)
                transform = rule.corruption or _default_corruption
                value = transform(value)
        return value

    # -- introspection ------------------------------------------------------

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """Every injection so far, in order."""
        with self._lock:
            return tuple(self._events)

    def calls(self, site: str) -> int:
        """How many :func:`inject` calls ``site`` has seen."""
        with self._lock:
            return self._calls.get((site, "call"), 0)

    def summary(self) -> dict[str, dict[str, int]]:
        """``site -> {kind -> injections}`` rollup of :attr:`events`."""
        out: dict[str, dict[str, int]] = {}
        for event in self.events:
            out.setdefault(event.site, {}).setdefault(event.kind, 0)
            out[event.site][event.kind] += 1
        return out


# -- module-level hooks (what instrumented call-sites use) -------------------


def active_plan() -> FaultPlan | None:
    """The context's active plan, if any."""
    return _active_plan.get()


def inject(site: str, clock: Clock | None = None) -> None:
    """Fire error/latency faults scripted for ``site`` (no-op without an
    active plan) — call this at the top of a failure-surface operation."""
    plan = _active_plan.get()
    if plan is not None:
        plan.inject(site, clock)


def corrupt(site: str, value: object) -> object:
    """Pass ``value`` through any corruption faults scripted for
    ``site`` (identity without an active plan)."""
    plan = _active_plan.get()
    if plan is None:
        return value
    return plan.corrupt(site, value)


def current_clock(explicit: Clock | None = None) -> Clock:
    """Clock resolution for the resilience layer: an explicit clock wins,
    then the active fault plan's (so chaos runs share one virtual
    timeline), then the real :class:`SystemClock`."""
    if explicit is not None:
        return explicit
    plan = _active_plan.get()
    if plan is not None:
        return plan.clock
    return SystemClock()
