"""What the coordinator assumes about a dispatch, pinned.

* A query's one dispatch passes each fault site once per surviving
  shard, opens no span of its own and leaves what it did on the query's
  span; each query part is then one pass (``shard_tasks``).
* A dispatch does no billable work, so a retried one bills exactly what
  an unretried one bills; a top-k that falls back to the exhaustive scan
  is still one round and one pass.
* A cached answer dispatches nothing, and a partial answer is never
  cached.
* A query pairs one cut's codes with that cut's statistics, even when
  two partitions are installed out of order.

That one pass over the answering shards' rows equals the serial answer
minus the lost shards' images is ``test_row_sets.py``'s property.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.core import TVDP, TemporalQuery, VisualQuery
from repro.geo import FieldOfView, GeoPoint
from repro.obs import accounting
from repro.resilience import FaultPlan, ManualClock
from repro.shard import ShardRouter
from repro.shard import router as router_module
from tests.shard.test_equivalence import (
    LATS,
    LNGS,
    PixelProbeExtractor,
    build_platform,
    tie_prone_image,
)

EXTRACTOR = PixelProbeExtractor.name
SITES = ("shard.dispatch", "shard.worker")


@pytest.fixture(scope="module")
def platform():
    """Twenty images, one per grid point and time step (their pixels
    differ, so that no upload is a duplicate of another), on four
    shards, partitioned already."""
    specs = [
        {
            "lat": lat, "lng": lng, "t": t, "direction": 0.0,
            "levels": (0.5, 0.5, 0.5), "delta": 0.01 * t, "keywords": [], "annotation": None,
        }
        for t, (lat, lng) in enumerate((lat, lng) for lat in LATS for lng in LNGS)
    ]
    platform = build_platform(specs)
    platform.set_shards(4)
    platform.execute(TemporalQuery(start=0.0, end=0.0))
    yield platform
    platform.close()


@pytest.fixture()
def fresh(platform):
    """The module's platform after one more write: the write version
    moves, so the answer cache starts over and a query the tests share
    reaches the scatter again."""
    platform.add_user("dispatch", role="researcher")
    return platform


def one_survivor_query(platform: TVDP) -> TemporalQuery:
    """A window only one shard's time range overlaps."""
    for t in range(20):
        query = TemporalQuery(start=float(t), end=float(t))
        if platform.shard_plan_preview(query)["shards_considered"] == 1:
            return query
    raise AssertionError("no single-shard window in the catalog")


def run_traced(platform: TVDP, query: object):
    """``platform.answer(query)`` and every span it finished."""
    obs.ring_buffer().reset()
    answer = platform.answer(query)
    return answer, obs.ring_buffer().spans()


class TestOneDispatch:
    def test_each_fault_site_once_and_facts_on_the_query_span(self, fresh):
        query = one_survivor_query(fresh)
        plan = FaultPlan(seed=0)
        for site in SITES:
            plan.delay(site, latency_s=0.0)  # counts the pass, costs nothing
        with plan.activate():
            answer, spans = run_traced(fresh, query)
        assert answer.results() == fresh.execute_serial(query) != []
        assert plan.summary() == {site: {"latency": 1} for site in SITES}
        (span,) = spans
        assert span.name == "query.temporal"
        attrs = span.attrs
        assert attrs["shards_considered"] == 1 and attrs["shards_pruned"] == 3
        assert attrs["shards_dispatched"] == 1 and attrs["shard_tasks"] == 1
        (wall_ms,) = attrs["shard_wall_ms"].values()
        assert wall_ms >= 0.0
        assert attrs["partial"] is False and attrs["failed_shards"] == []
        assert "retries" not in attrs

    def test_recovered_dispatch_shows_its_retry_and_its_wait(self, fresh):
        query = one_survivor_query(fresh)
        plan = FaultPlan(seed=0).kill("shard.dispatch", at_calls={1})
        with plan.activate():
            answer, (span,) = run_traced(fresh, query)
        assert answer.results() == fresh.execute_serial(query)
        assert answer.failed_shards == ()
        assert span.attrs["retries"] == 1
        assert span.attrs["fault_site"] == "shard.dispatch"
        # The backoff was slept on the plan's virtual clock, and shows.
        (wall_ms,) = span.attrs["shard_wall_ms"].values()
        assert wall_ms == pytest.approx(plan.clock.slept * 1e3) and wall_ms > 0

    def test_lost_shard_is_on_the_answer_and_the_span(self, fresh):
        query = one_survivor_query(fresh)
        plan = FaultPlan(seed=0).kill("shard.worker")
        with plan.activate():
            answer, (span,) = run_traced(fresh, query)
        assert answer.ids == [] and len(answer.failed_shards) == 1
        assert span.attrs["partial"] is True
        assert span.attrs["failed_shards"] == list(answer.failed_shards)
        assert span.attrs["shards_dispatched"] == 1
        assert span.attrs["shard_wall_ms"] == {}

    def test_a_topk_that_falls_back_is_one_round(self, fresh):
        # Twenty images: a top-25 is short of candidates whatever they are.
        query = VisualQuery(EXTRACTOR, vector=np.array([0.5, 0.5, 0.5]), k=25)
        fresh.shard_plan_preview(query)  # the partition, cut outside the trace
        answer, (span,) = run_traced(fresh, query)
        assert answer.results() == fresh.execute_serial(query)
        attrs = span.attrs
        assert attrs["lsh_fallback"] is True and attrs["shard_tasks"] == 1
        assert attrs["shards_dispatched"] == attrs["shards_considered"] <= 4

    def test_each_query_dispatches_its_surviving_shards_once_and_runs_one_pass(self, fresh):
        # Three windows over overlapping runs of shards, four in all.
        queries = [TemporalQuery(start=float(t), end=float(t + 5)) for t in (0, 5, 10)]
        survivors = [fresh.shard_plan_preview(q)["shards_considered"] for q in queries]
        assert survivors == [1, 3, 2]
        plan = FaultPlan(seed=0)
        for site in SITES:
            plan.delay(site, latency_s=0.0)
        obs.ring_buffer().reset()
        with plan.activate():
            answers = [fresh.answer(q) for q in queries]
        spans = [s for s in obs.ring_buffer().spans() if s.name == "query.temporal"]
        assert [a.results() for a in answers] == [fresh.execute_serial(q) for q in queries]
        assert [s.attrs["shards_dispatched"] for s in spans] == survivors
        assert [s.attrs["shard_tasks"] for s in spans] == [1, 1, 1]
        assert [len(s.attrs["shard_wall_ms"]) for s in spans] == survivors
        assert plan.summary() == {site: {"latency": sum(survivors)} for site in SITES}

    def test_a_retried_dispatch_bills_what_an_unretried_one_bills(self, platform):
        query = one_survivor_query(platform)
        bills = []
        for plan in (FaultPlan(seed=0), FaultPlan(seed=0).kill("shard.dispatch", at_calls={1})):
            platform.add_user(f"bill{len(bills)}", role="researcher")  # a fresh cache
            with plan.activate(), accounting.ledger_scope(obs.usage()) as scope:
                answer = platform.answer(query)
            assert answer.results() == platform.execute_serial(query) != []
            bills.append(scope.charges)
        assert plan.summary()["shard.dispatch"]["error"] == 1
        assert bills[1] == bills[0] and bills[0]


class TestCachedAndPartialAnswers:
    def test_a_cached_answer_is_served_with_every_worker_dead(self, fresh):
        query = one_survivor_query(fresh)
        fresh.answer(query)  # the first query since the write drops the cache
        fresh.answer(query)  # first sighting: noted
        admitted = fresh.answer(query)  # second: run, and held
        plan = FaultPlan(seed=0).kill("shard.worker")
        with plan.activate():
            answer, (span,) = run_traced(fresh, query)
        assert answer is admitted and answer.failed_shards == ()
        assert answer.results() == fresh.execute_serial(query) != []
        assert span.attrs["cache"] == "hit"
        assert "shards_dispatched" not in span.attrs
        assert plan.summary() == {}

    def test_a_partial_answer_is_never_admitted(self, fresh):
        query = one_survivor_query(fresh)
        plan = FaultPlan(seed=0).kill("shard.worker")
        with plan.activate():
            # The cache dropped, the key sighted, the answer (were it
            # whole) admitted: every one ran and lost its shard.
            for _ in range(3):
                assert fresh.answer(query).failed_shards
        answer, (span,) = run_traced(fresh, query)
        assert answer.failed_shards == () and "cache" not in span.attrs
        assert span.attrs["shards_dispatched"] == 1
        assert answer.results() == fresh.execute_serial(query) != []


class TestSnapshotPairing:
    def test_a_cut_installed_late_loses_to_the_newer_one(self, monkeypatch):
        platform = build_platform([
            {
                "lat": lat, "lng": LNGS[0], "t": t, "direction": 0.0,
                "levels": (0.5, 0.5, 0.5), "delta": 0.01 * t, "keywords": [], "annotation": None,
            }
            for t, lat in enumerate(LATS)
        ])
        router = ShardRouter(platform, 2, grid=(3, 3), clock=ManualClock())
        cut_at, resume = threading.Event(), threading.Event()
        real = router_module.partition_catalog

        def held_partition(*args, **kwargs):
            partition = real(*args, **kwargs)
            if not cut_at.is_set():  # the first cut waits to be installed
                cut_at.set()
                assert resume.wait(10)
            return partition

        monkeypatch.setattr(router_module, "partition_catalog", held_partition)
        # Captured after every other image: no cut before it knows it.
        query = TemporalQuery(start=100.0)
        late: list = []
        worker = threading.Thread(target=lambda: late.append(router.answer(query)))
        worker.start()
        assert cut_at.wait(10)
        older = platform.db.version
        new_id = platform.upload_image(
            image=tie_prone_image((0.25, 0.25, 0.25), 0.0),
            fov=FieldOfView(GeoPoint(LATS[0], LNGS[1]), 0.0, 60.0, 500.0),
            captured_at=100.0, uploaded_at=101.0,
        ).image_id
        first, _ = router.answer(query)  # cuts and installs the newer version
        resume.set()
        worker.join(10)
        assert not worker.is_alive()
        cut = router._ensure()
        assert cut.version > older
        # The late query was answered off the newer cut: its codes and stats.
        ((second, info),) = late
        assert first.ids == second.ids == [new_id] and info["shards_considered"] == 1
        ids = np.array(platform.image_ids(), dtype=np.int64)
        for shard, n in enumerate(cut.counts):
            assert n == np.count_nonzero(cut.owns([shard])(ids))
