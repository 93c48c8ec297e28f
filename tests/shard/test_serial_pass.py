"""A sharded query that loses no shard runs the serial pass.

The router masks a pass to its answering shards' rows only when one of
the part's surviving shards was lost.  Otherwise the pass is the serial
call, and that is exact because pruning is sound: a shard a query part
does not survive on owns no row the part matches.  No-loss answers no
longer exercise pruning, so this module pins it on its own:

* for drawn catalogs and queries (``test_equivalence.py``'s), two to
  four shards and every family, no id of a part's serial payload is
  owned by a shard the part is pruned from, and
  :meth:`TVDP.shard_plan_preview` considers the shards the router does
  (a categorical preview, which resolves no label, a superset of them);
* with no fault plan a sharded query bills exactly what the serial one
  bills, and no owner mask is built for a query that lost nothing;
* a lost shard builds the mask, and the pass bills the rows the
  answering shards own; a part that lost every shard it survives on
  runs its pass under a mask that keeps no row, which books nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import CategoricalQuery, SpatialQuery, TemporalQuery, TextualQuery
from repro.core.families import prepare
from repro.geo import BoundingBox
from repro.obs import accounting
from repro.resilience import FaultPlan, ManualClock
from repro.shard import Partition, ShardRouter, partition_catalog
from tests.shard.test_equivalence import (
    FIXED_PARAMS,
    LABELS,
    LATS,
    LEVELS,
    LNGS,
    REGION,
    VOCAB,
    build_platform,
    catalogs,
    make_queries,
    query_params,
)
from tests.shard.test_row_sets import answer_losing, losing

GRID = (3, 3)
QUERIES = make_queries(FIXED_PARAMS)


def payload_ids(payload) -> np.ndarray:
    """The id column of a task's payload (ids, or ``(ids, values)``)."""
    return payload if isinstance(payload, np.ndarray) else payload[0]


@settings(max_examples=30, deadline=None)
@given(specs=catalogs, params=query_params, n_shards=st.integers(2, 4))
def test_pruning_is_sound_and_the_preview_prunes_as_the_router_does(specs, params, n_shards):
    platform = build_platform(specs)
    platform.set_shards(n_shards)
    queries = make_queries(params)
    cut = partition_catalog(platform, n_shards, grid=GRID)
    router = ShardRouter(platform, n_shards, grid=GRID, clock=ManualClock())
    try:
        for query in queries:
            _, info = router.answer(query)
            leaf = prepare(query, platform)
            for part in leaf.parts or (leaf,):
                ids = payload_ids(part.task(platform.slice))
                for shard in range(n_shards):
                    if not part.survivors(cut) >> shard & 1:
                        owned = ids[cut.owns([shard])(ids)].tolist()
                        assert owned == [], f"shard {shard} pruned {query!r}"
            preview = platform.shard_plan_preview(query)["shards_considered"]
            if isinstance(query, CategoricalQuery):
                assert preview >= info["shards_considered"], query
            else:
                assert preview == info["shards_considered"], query
    finally:
        platform.close()


@pytest.fixture(scope="module")
def platform():
    """Twenty images, one per grid point and time step, with keywords,
    annotations and vectors, on four shards."""
    specs = [
        {
            "lat": lat, "lng": lng, "t": t, "direction": 0.0,
            "levels": (LEVELS[t % 3], 0.5, LEVELS[t // 3 % 3]), "delta": 0.01 * t,
            "keywords": [VOCAB[t % 4]],
            "annotation": (LABELS[t % 2], (0.3, 0.6, 0.9)[t % 3], ("human", "machine")[t % 2]),
        }
        for t, (lat, lng) in enumerate((lat, lng) for lat in LATS for lng in LNGS)
    ]
    platform = build_platform(specs)
    platform.set_shards(4)
    yield platform
    platform.close()


def billed(platform, query, run=None) -> dict:
    """What ``_answer(query, None, run)`` bills: ``run`` ``None`` is the
    platform's sharded runner."""
    platform.shard_plan_preview(query)  # the partition, cut outside the bill
    with accounting.ledger_scope(obs.usage()) as scope:
        platform._answer(query, None, run)
    return scope.charges


@pytest.fixture()
def masks(monkeypatch) -> list:
    """Every owner mask built from here on: the shard ids it was asked for."""
    asked: list = []
    real = Partition.owns

    def owns(self, shard_ids):
        asked.append(list(shard_ids))
        return real(self, shard_ids)

    monkeypatch.setattr(Partition, "owns", owns)
    return asked


@pytest.mark.parametrize("query", QUERIES, ids=[type(q).__name__ for q in QUERIES])
def test_with_no_fault_plan_a_sharded_query_bills_the_serial_pass(platform, query, masks):
    bill = billed(platform, query)
    assert bill == billed(platform, query, platform._run) and bill
    assert masks == []


def test_queries_that_lose_nothing_build_no_mask(platform, masks):
    sharded = [platform._answer(q, None).results() for q in QUERIES]
    assert sharded == [platform.execute_serial(q) for q in QUERIES]
    plan = FaultPlan(seed=0)
    plan.delay("shard.worker", latency_s=0.0)  # a plan that fails nothing
    with plan.activate():
        for query in QUERIES:
            platform._answer(query, None)
    assert plan.summary()["shard.worker"]["latency"] > 0
    assert masks == []


def test_a_lost_shard_builds_the_mask_and_bills_the_answering_rows(platform, masks):
    everything = SpatialQuery(region=REGION, mode="camera")
    cut = platform._shard_router()._ensure()
    order = [shard for shard, n in enumerate(cut.counts) if n]
    assert len(order) > 1
    lost = order[0]
    with losing(order, {lost}, platform._shard_router().max_attempts).activate():
        with accounting.ledger_scope(obs.usage()) as scope:
            answer = platform._answer(everything, None)
    answered = [s for s in order if s != lost]
    assert answer.failed_shards == (lost,) and masks == [answered]
    ids = np.array(platform.image_ids(), dtype=np.int64)
    kept = ~cut.owns([lost])(ids)
    assert answer.ids == ids[kept].tolist()
    # The camera column has a row per image: the scan counts those kept.
    assert scope.charges["probes.columns"] == np.count_nonzero(kept) < len(ids)
    assert billed(platform, everything)["probes.columns"] == len(ids)


def test_a_part_that_lost_none_of_its_shards_runs_unmasked(platform, masks):
    # A window on the first shard alone, beside one over every shard:
    # losing the last shard masks only the second.
    cut = platform._shard_router()._ensure()
    order = [shard for shard, n in enumerate(cut.counts) if n]
    first = TemporalQuery(start=0.0, end=0.0)
    assert platform.shard_plan_preview(first)["shards_considered"] == 1
    router = platform._shard_router()
    one, one_info = answer_losing(router, first, {order[-1]})
    every, every_info = answer_losing(router, TemporalQuery(start=0.0), {order[-1]})
    assert one_info["partial"] is False and one.ids == [
        r.image_id for r in platform.execute_serial(first)
    ]
    assert every_info["failed_shards"] == [order[-1]] and masks == [order[:-1]]


def test_a_part_that_lost_every_shard_it_survives_on_runs_no_pass(platform, masks):
    # A scan over an owner mask that keeps no row books nothing, so a
    # part none of whose surviving shards answered runs its pass under
    # the empty mask and costs nothing.
    corner = SpatialQuery(region=BoundingBox(34.01, -118.39, 34.03, -118.37), mode="camera")
    router = platform._shard_router()
    cut = router._ensure()
    (only,) = [shard for shard in range(4) if prepare(corner).survivors(cut) >> shard & 1]
    scans = obs.metrics().counter("index.columns.scans")
    before = scans.value
    assert prepare(corner, platform).task(platform.slice, cut.owns([])).tolist() == []
    assert scans.value == before
    masks.clear()
    before = obs.metrics().counter_values()
    with accounting.ledger_scope(obs.usage()) as scope:
        answer, info = answer_losing(router, corner, {only})
    moved = {
        name for name, value in obs.metrics().counter_values().items()
        if name.startswith(("index.", "db.")) and value != before.get(name, 0.0)
    }
    assert answer.ids == [] and info["failed_shards"] == [only]
    assert scope.charges == {} and moved == set() and masks == [[]]


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("text, books", [("trashzzq", 0), (VOCAB[0], 1)])
def test_a_textual_query_is_booked_when_it_reads_a_posting(platform, shards, text, books):
    # The textual counter reads the same at every shard count: a term
    # nothing indexes reads no posting, serial or pruned everywhere.
    platform.set_shards(shards)
    query = TextualQuery(text)
    platform.shard_plan_preview(query)  # the partition, built outside the count
    queries = obs.metrics().counter("index.inverted.queries")
    before = queries.value
    answer = platform._answer(query, None)
    assert queries.value - before == books
    assert answer.results() == platform.execute_serial(query)
    assert bool(answer.ids) == bool(books)
