"""What the coordinator assumes about a dispatch, pinned.

* It hashes a visual query once: every ``clone_empty`` of an LSH index —
  and every clone the partition of a *reloaded* platform builds — puts a
  vector in the parent's buckets, so per-shard candidates partition the
  serial candidate set.
* One dispatch passes each fault site once, opens no span of its own and
  leaves what it did on the query's span; a retried attempt bills
  nothing.
* A cached answer dispatches nothing, and a partial answer is never
  cached.
* Merges only order: shards are a disjoint cover.  The set-union and
  ``best_per_image`` merges they replaced stay here as the oracles.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import TVDP, TemporalQuery, load_platform, save_platform
from repro.core.families import Categorical, Temporal
from repro.core.slice import best_per_image
from repro.errors import ShardError
from repro.index.ordering import pairs
from repro.obs import accounting
from repro.resilience import FaultPlan, ManualClock
from repro.shard import ScatterGatherExecutor, partition_catalog
from tests.shard.test_equivalence import (
    LATS,
    LNGS,
    SHARD_COUNTS,
    PixelProbeExtractor,
    build_platform,
    image_specs,
)

EXTRACTOR = PixelProbeExtractor.name
SITES = ("shard.dispatch", "shard.worker")


class TestCoordinatorHashesOnce:
    @settings(max_examples=20, deadline=None)
    @given(
        specs=image_specs,
        probe=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
        n_shards=st.sampled_from(SHARD_COUNTS),
    )
    def test_clones_share_keys_and_candidates_partition(self, specs, probe, n_shards):
        vector = np.asarray(probe)
        live = build_platform(specs)
        with tempfile.TemporaryDirectory() as directory:
            save_platform(live, directory)
            reloaded = load_platform(directory)
        for platform in (live, reloaded):
            parent = platform.slice.lsh(EXTRACTOR)
            keys = parent.bucket_keys(vector)
            assert keys == live.slice.lsh(EXTRACTOR).bucket_keys(vector)
            assert parent.clone_empty().clone_empty().bucket_keys(vector) == keys
            shards = [
                handle.slice.lsh(EXTRACTOR)
                for handle in partition_catalog(platform, n_shards, grid=(3, 3))
            ]
            everything = len(parent) + 1
            serial_columns, serial_count = parent.topk_in_buckets(keys, vector, everything)
            serial = pairs(*serial_columns)
            found: list = []
            for shard in shards:
                assert shard.bucket_keys(vector) == keys
                columns, count = shard.topk_in_buckets(keys, vector, everything)
                assert count == len(columns[0]) == len(columns[1])
                found.extend(pairs(*columns))
            # Same candidates, none twice, each at the distance serial gave it.
            assert len(found) == serial_count
            assert sorted(found) == sorted(serial)


@pytest.fixture(scope="module")
def platform():
    """Twenty images, one per grid point and time step, on four shards,
    partitioned already."""
    specs = [
        {
            "lat": lat, "lng": lng, "t": t, "direction": 0.0,
            "levels": (0.5, 0.5, 0.5), "delta": 0.0, "keywords": [], "annotation": None,
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

    def test_a_retried_attempt_bills_nothing(self, platform):
        shards = partition_catalog(platform, 2, grid=(3, 3))
        executor = ScatterGatherExecutor(shards, clock=ManualClock())
        attempts = []

        def flaky(catalog_slice):
            accounting.charge("rows_scanned", 5)
            attempts.append(len(attempts))
            if len(attempts) == 1:
                raise ShardError("first attempt dies after charging")
            return "payload"

        with accounting.ledger_scope() as ledger:
            gathered = executor.scatter({0: [flaky]})
        assert len(attempts) == 2 and gathered.failed == ()
        assert gathered.results[0].payloads == ["payload"]
        assert ledger.charges == {"rows_scanned": 5}


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


def union_merge(payloads: list) -> list:
    """The enumeration merge that was: a set union, sorted."""
    ids: set = set()
    for payload in payloads:
        ids.update(payload)
    return sorted(ids)


def group_max_merge(payloads: list) -> tuple[list, list]:
    """The categorical merge that was: a second group-max over the
    concatenated shard columns."""
    if not payloads:
        return [], []
    ids, best = best_per_image(
        np.concatenate([ids for ids, _ in payloads]),
        np.concatenate([best for _, best in payloads]),
    )
    return ids.tolist(), best.tolist()


#: 0-4 shards' worth of image id -> best confidence, ids dealt so that
#: no two shards share one (the disjoint cover), empty shards included.
shard_columns = st.lists(
    st.dictionaries(st.integers(0, 40), st.sampled_from([0.0, 0.3, 0.6, 0.9]), max_size=6),
    max_size=4,
).map(
    lambda shards: [
        {image_id * len(shards) + n: best for image_id, best in shard.items()}
        for n, shard in enumerate(shards)
    ]
)


class TestMergesAgainstTheirOracles:
    @settings(max_examples=60, deadline=None)
    @given(shards=shard_columns)
    def test_disjoint_payloads_merge_like_the_union_and_the_group_max(self, shards):
        # A shard's ids come as its slice's ascending int64 column.
        id_payloads = [np.array(sorted(shard), dtype=np.int64) for shard in shards]
        answer = Temporal.merge(id_payloads)
        assert answer.ids == union_merge(id_payloads) and answer.scores is None
        assert all(type(image_id) is int for image_id in answer.ids)

        column_payloads = [
            (
                np.array(sorted(shard), dtype=np.int64),
                np.array([shard[i] for i in sorted(shard)], dtype=np.float64),
            )
            for shard in shards
        ]
        answer = Categorical.merge(column_payloads)
        assert (answer.ids, answer.scores) == group_max_merge(column_payloads)
