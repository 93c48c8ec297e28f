"""Chaos: scatter-gather under scripted worker death and slow shards.

The degradation contract under fault injection, in order of severity:

* a transient dispatch fault is retried away — results are full and
  byte-identical to serial, ``partial`` stays ``False``;
* a shard that exhausts every attempt is *dropped*, never fabricated:
  every query completes, ``partial`` flips ``True``, ``failed_shards``
  names the loss, and what remains is a subset of the serial answer;
* a slow shard costs virtual time only — the coordinator never takes a
  real ``time.sleep`` (the autouse fixture turns one into a failure).

The seeded scenario at the bottom is the CI chaos-matrix hook: under
``$REPRO_FAULT_SEED``-shifted random kills, every answer is either
exactly serial or explicitly flagged partial — never silently wrong.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.core import TemporalQuery, TextualQuery, TVDP
from repro.errors import FaultInjected
from repro.geo import FieldOfView, GeoPoint
from repro.imaging import solid_color
from repro.resilience import FaultPlan, ManualClock, reset_breakers, seed_from_env
from repro.shard import ScatterGatherExecutor, ShardRouter

#: Three distinct seeds derived from the environment's base seed.
SEEDS = [seed_from_env(default=0) + offset for offset in range(3)]

N_IMAGES = 18
N_SHARDS = 3


@pytest.fixture(autouse=True)
def _isolated_and_sleepless(monkeypatch):
    obs.reset()
    reset_breakers()

    def forbidden_sleep(seconds: float) -> None:
        raise AssertionError(f"real time.sleep({seconds!r}) during shard chaos")

    monkeypatch.setattr(time, "sleep", forbidden_sleep)
    yield
    reset_breakers()


@pytest.fixture()
def platform():
    p = TVDP()
    for i in range(N_IMAGES):
        p.upload_image(
            image=solid_color(4, 4, ((i + 1) / (N_IMAGES + 1), 0.2, 0.7)),
            fov=FieldOfView(
                GeoPoint(34.0 + 0.01 * i, -118.3 + 0.01 * (i % 5)),
                float(i * 40 % 360),
                60.0,
                300.0,
            ),
            captured_at=float(i * 100),
            uploaded_at=float(i * 100 + 1),
            keywords=("survey", f"block{i % 4}"),
        )
    return p


@pytest.fixture()
def router(platform):
    return ShardRouter(platform, N_SHARDS, grid=(4, 4), clock=ManualClock())


QUERIES = [
    TemporalQuery(start=0.0, end=900.0),
    TextualQuery(text="survey", match="any"),
    TemporalQuery(start=500.0, end=None),
]


def serial_answers(platform):
    return [platform.execute(q) for q in QUERIES]


def answer_each(router):
    """``[(results, info), ...]`` of every query of ``QUERIES``, one
    ``router.answer`` each."""
    return [(answer.results(), info) for answer, info in map(router.answer, QUERIES)]


class TestDispatchFaults:
    def test_transient_kill_is_retried_to_full_results(self, platform, router):
        plan = FaultPlan(seed=1)
        plan.kill("shard.dispatch", at_calls={1})
        with plan.activate():
            out = answer_each(router)
        assert plan.summary()["shard.dispatch"]["error"] == 1
        for (results, info), serial in zip(out, serial_answers(platform)):
            assert results == serial
            assert info["partial"] is False
            assert info["failed_shards"] == []

    def test_exhausted_shard_degrades_to_flagged_partial(self, platform, router):
        # max_attempts faults back-to-back sink exactly the first shard
        # the first query dispatches (ascending order); the rest survive.
        plan = FaultPlan(seed=1)
        plan.kill("shard.dispatch", max_faults=router.max_attempts)
        with plan.activate():
            out = answer_each(router)
        serial = serial_answers(platform)
        partial_flags = [info["partial"] for _, info in out]
        assert any(partial_flags), "a lost shard must be surfaced"
        for (results, info), full in zip(out, serial):
            if info["partial"]:
                assert len(info["failed_shards"]) == 1
                got = {r.image_id for r in results}
                want = {r.image_id for r in full}
                assert got <= want, "degraded answers must never invent rows"
            else:
                assert results == full

    def test_partial_counter_and_metric_increment(self, platform, router):
        before = obs.metrics().counter("shard.partial_results").value
        plan = FaultPlan(seed=1)
        plan.kill("shard.dispatch", max_faults=router.max_attempts)
        with plan.activate():
            router.answer(QUERIES[0])
        assert obs.metrics().counter("shard.partial_results").value > before

    def test_slow_shard_costs_virtual_time_only(self, platform, router):
        plan = FaultPlan(seed=1)
        plan.delay("shard.dispatch", latency_s=7.5, max_faults=2)
        t0 = time.perf_counter()
        with plan.activate():
            out = answer_each(router)
        wall = time.perf_counter() - t0
        assert router.clock.now() >= 7.5, "latency must land on the manual clock"
        assert wall < 2.0, "injected latency leaked into real time"
        for (results, info), serial in zip(out, serial_answers(platform)):
            assert results == serial
            assert info["partial"] is False


class TestWorkerFaults:
    def test_worker_kill_on_every_attempt_fails_all_shards(self, platform, router):
        plan = FaultPlan(seed=1)
        plan.kill("shard.worker")  # rate 1.0, unbounded: nothing survives
        with plan.activate():
            answer, info = router.answer(QUERIES[0])
        assert info["partial"] is True
        assert answer.ids == []
        assert len(info["failed_shards"]) == info["shards_considered"]

    def test_worker_kill_recovers_when_faults_run_out(self, platform, router):
        plan = FaultPlan(seed=1)
        plan.kill("shard.worker", max_faults=1)
        with plan.activate():
            answer, info = router.answer(QUERIES[0])
        assert info["partial"] is False
        assert answer.results() == platform.execute(QUERIES[0])


class TestExecutorDirect:
    def test_dispatch_without_fault_answers_first_try(self):
        executor = ScatterGatherExecutor(range(N_SHARDS), clock=ManualClock())
        gathered = executor.dispatch([2, 0])
        assert gathered.failed == ()
        # The manual clock stands still unless a retry waits on it.
        assert gathered.wall_ms == {0: 0.0, 2: 0.0}
        retries = obs.metrics().counter("resilience.retries", {"site": "shard.dispatch"})
        assert retries.value == 0

    def test_an_unknown_shard_fails_every_attempt(self):
        executor = ScatterGatherExecutor(range(N_SHARDS), clock=ManualClock())
        gathered = executor.dispatch([1, N_SHARDS])
        assert gathered.failed == (N_SHARDS,) and list(gathered.wall_ms) == [1]


class TestSeededChaosMatrix:
    """CI hook: ``$REPRO_FAULT_SEED`` shifts the kill schedule; for any
    schedule, answers are exactly serial or explicitly partial."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_kills_never_corrupt_silently(self, platform, seed):
        router = ShardRouter(platform, N_SHARDS, grid=(4, 4), clock=ManualClock())
        serial = serial_answers(platform)
        plan = FaultPlan(seed=seed)
        plan.kill("shard.dispatch", rate=0.4, max_faults=4)
        plan.kill("shard.worker", rate=0.2, max_faults=2)
        plan.delay("shard.dispatch", latency_s=1.5, rate=0.3, max_faults=3)
        with plan.activate():
            for _ in range(3):  # several rounds drain the schedule
                out = answer_each(router)
                for (results, info), full in zip(out, serial):
                    if info["partial"]:
                        got = {r.image_id for r in results}
                        assert got <= {r.image_id for r in full}
                    else:
                        assert results == full

    def test_injected_faults_raise_nothing_past_the_router(self, platform):
        plan = FaultPlan(seed=SEEDS[0])
        plan.kill("shard.dispatch", error=lambda site, n: FaultInjected(site, n))
        router = ShardRouter(platform, N_SHARDS, grid=(4, 4), clock=ManualClock())
        with plan.activate():
            answer, info = router.answer(QUERIES[1])
        assert info["partial"] is True or answer.ids  # no exception escaped
