"""FaultPlan scripting, determinism, and the contextvar activation."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import FaultInjected, ResilienceError
from repro.resilience import (
    FaultPlan,
    FaultRule,
    ManualClock,
    active_plan,
    corrupt,
    current_clock,
    inject,
    seed_from_env,
)
from repro.resilience.clock import SystemClock
from repro.resilience.faults import SEED_ENV_VAR


class TestFaultRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ResilienceError, match="unknown fault kind"):
            FaultRule(site="s", kind="explode")

    def test_rate_bounds(self):
        with pytest.raises(ResilienceError, match="rate"):
            FaultRule(site="s", kind="error", rate=1.5)

    def test_at_calls_one_based(self):
        with pytest.raises(ResilienceError, match="1-based"):
            FaultRule(site="s", kind="error", at_calls=frozenset({0}))


class TestScheduling:
    def test_at_calls_fires_exactly_there(self):
        plan = FaultPlan(seed=1).kill("s", at_calls={2, 4})
        outcomes = []
        with plan.activate():
            for _ in range(5):
                try:
                    inject("s")
                    outcomes.append("ok")
                except FaultInjected:
                    outcomes.append("fault")
        assert outcomes == ["ok", "fault", "ok", "fault", "ok"]

    def test_an_empty_at_calls_never_fires(self):
        plan = FaultPlan(seed=1).kill("s", at_calls=set())
        with plan.activate():
            for _ in range(20):
                inject("s")
        assert plan.events == ()

    def test_without_at_calls_the_rate_decides(self):
        def faults(rate):
            plan = FaultPlan(seed=1).kill("s", rate=rate)
            with plan.activate():
                for _ in range(20):
                    try:
                        inject("s")
                    except FaultInjected:
                        pass
            return len(plan.events)

        assert (faults(0.0), faults(1.0)) == (0, 20)

    def test_max_faults_caps_injections(self):
        plan = FaultPlan(seed=1).kill("s", rate=1.0, max_faults=2)
        with plan.activate():
            for _ in range(10):
                try:
                    inject("s")
                except FaultInjected:
                    pass
        assert plan.summary()["s"]["error"] == 2

    def test_stochastic_schedule_reproducible(self):
        def run(seed):
            plan = FaultPlan(seed=seed).kill("s", rate=0.4)
            with plan.activate():
                for _ in range(50):
                    try:
                        inject("s")
                    except FaultInjected:
                        pass
            return plan.events

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_latency_spends_plan_clock(self):
        clock = ManualClock()
        plan = FaultPlan(seed=1, clock=clock).delay("s", latency_s=1.5, at_calls={1})
        with plan.activate():
            inject("s")
            inject("s")
        assert clock.slept == pytest.approx(1.5)
        assert plan.summary()["s"]["latency"] == 1

    def test_custom_error_factory(self):
        plan = FaultPlan(seed=1).kill(
            "s", error=lambda site, idx: TimeoutError(f"{site}#{idx}")
        )
        with plan.activate():
            with pytest.raises(TimeoutError, match="s#1"):
                inject("s")

    def test_corruption_garbles_payload(self):
        plan = FaultPlan(seed=1).garble("s", at_calls={1})
        with plan.activate():
            first = corrupt("s", '{"fine": true}')
            second = corrupt("s", '{"fine": true}')
        assert "<<corrupted>>" in first
        assert second == '{"fine": true}'

    def test_sites_independent(self):
        plan = FaultPlan(seed=1).kill("a", at_calls={1})
        with plan.activate():
            inject("b")  # other site: untouched
            with pytest.raises(FaultInjected):
                inject("a")
        assert plan.calls("a") == 1 and plan.calls("b") == 1


class TestActivation:
    def test_no_plan_means_noop(self):
        assert active_plan() is None
        inject("anything")  # must not raise
        assert corrupt("anything", "v") == "v"

    def test_activation_scoped(self):
        plan = FaultPlan(seed=1).kill("s")
        with plan.activate():
            assert active_plan() is plan
        assert active_plan() is None
        inject("s")  # deactivated: no fault

    def test_injections_metered_and_span_annotated(self):
        plan = FaultPlan(seed=1).kill("s", at_calls={1})
        with plan.activate(), obs.span("op") as sp:
            with pytest.raises(FaultInjected):
                inject("s")
        counter = obs.metrics().counter(
            "resilience.faults", {"site": "s", "kind": "error"}
        )
        assert counter.value == 1
        assert sp.attrs["fault"] == "error" and sp.attrs["fault_site"] == "s"


class TestClockResolution:
    def test_explicit_wins(self, manual_clock):
        assert current_clock(manual_clock) is manual_clock

    def test_plan_clock_next(self):
        plan = FaultPlan(seed=1)
        with plan.activate():
            assert current_clock() is plan.clock

    def test_system_clock_last(self):
        assert isinstance(current_clock(), SystemClock)


class TestSeedFromEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        assert seed_from_env(default=5) == 5

    def test_reads_env(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "17")
        assert seed_from_env() == 17

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "soon")
        with pytest.raises(ResilienceError, match=SEED_ENV_VAR):
            seed_from_env()
