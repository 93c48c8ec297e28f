"""A partial answer is exact: the serial answer without the lost shards.

Shards are disjoint row sets of the one catalog, and a sharded query is
one pass over the rows of the shards that answered.  So whichever
shards a dispatch loses, every family's answer is the serial answer over
the images the other shards own: the enumeration, categorical and
textual answers are the serial ones with the lost images taken out
(order kept, scores bit-identical); a visual top-k, a radius and the
fused hybrid are the ``k`` nearest among the candidates outside the lost
shards — among every row outside them when the serial run falls back,
which the loss does not change — cut at the radius; a general hybrid is
:func:`~repro.core.queries.combine_hybrid` of those parts.

Hypothesis draws the catalogs and queries of ``test_equivalence.py``;
each shard count from two to four loses every non-empty subset of its
non-empty shards through a :class:`~repro.resilience.FaultPlan`, and the
real :meth:`ShardRouter.answer` answers.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HybridQuery, TemporalQuery, VisualQuery
from repro.core.families import prepare
from repro.core.queries import Answer, combine_hybrid
from repro.resilience import FaultPlan, ManualClock
from repro.shard import ShardRouter, partition_catalog
from tests.shard.test_equivalence import build_platform, catalogs, make_queries, query_params

GRID = (3, 3)
#: Every capture time is >= 0: this window survives on every non-empty
#: shard, so it dispatches all of them.
EVERYTHING = TemporalQuery(start=0.0)


def losing(order: list, lost: set, attempts: int) -> FaultPlan:
    """A plan that kills every attempt of the shards in ``lost`` and no
    other, the shards being dispatched in ``order``."""
    kills, calls = set(), 0
    for shard_id in order:
        if shard_id in lost:
            kills.update(range(calls + 1, calls + attempts + 1))
            calls += attempts
        else:
            calls += 1
    return FaultPlan(seed=0).kill("shard.worker", at_calls=kills)


def answer_losing(router: ShardRouter, query: object, lost: set):
    """``router.answer(query)`` with every attempt of the shards in
    ``lost`` that it dispatches dying."""
    survivors = prepare(query, router._platform).survivors(router._ensure())
    order = [shard for shard in range(router.n_shards) if survivors >> shard & 1]
    with losing(order, lost, router.max_attempts).activate():
        return router.answer(query)


def without(answer: Answer, lost: set) -> Answer:
    """``answer`` with the ``lost`` images taken out, order kept."""
    keep = [n for n, image_id in enumerate(answer.ids) if image_id not in lost]
    return Answer([answer.ids[n] for n in keep], [answer.scores[n] for n in keep])


def nearest_outside(ranked: tuple, lost: set, k: int, radius: float | None) -> Answer:
    """The first ``k`` of ranked ``(ids, distances)`` outside ``lost``,
    cut at ``radius``."""
    ids, distances = ranked
    keep = ~np.isin(ids, sorted(lost))
    ids, distances = ids[keep][:k], distances[keep][:k]
    if radius is not None:
        ids, distances = ids[distances <= radius], distances[distances <= radius]
    return Answer.from_distances(ids, distances)


def expected(platform, query, lost: set) -> Answer:
    """The serial answer to ``query`` without the ``lost`` images."""
    if isinstance(query, VisualQuery):
        lsh = platform.slice.lsh(query.extractor_name)
        rows = lsh.candidates(query.vector)
        if query.max_distance is None and len(rows) < query.k:
            rows = None  # the serial fallback: every row is ranked
        ranked = lsh.nearest_columns(query.vector, None, rows)
        return nearest_outside(ranked, lost, query.k, query.max_distance)
    if isinstance(query, HybridQuery):
        pair = query.fused_pair()
        if pair is None:
            return combine_hybrid([expected(platform, part, lost) for part in query.queries])
        spatial, visual = pair
        everything = len(platform.slice.lsh(visual.extractor_name))
        ranked = platform.slice.spatial_visual_nearest(
            visual.extractor_name, spatial.bounding_region(), visual.vector, everything
        )
        return nearest_outside(ranked, lost, visual.k, visual.max_distance)
    serial = platform.execute_serial(query)
    return without(Answer([r.image_id for r in serial], [r.score for r in serial]), lost)


def same(got: Answer, want: Answer, label: str) -> None:
    got_rows = [(r.image_id, repr(r.score)) for r in got.results()]
    want_rows = [(r.image_id, repr(r.score)) for r in want.results()]
    assert got_rows == want_rows, label


@settings(max_examples=30, deadline=None)
@given(specs=catalogs, params=query_params, n_shards=st.integers(2, 4))
def test_a_partial_answer_is_the_serial_answer_without_the_lost_shards(specs, params, n_shards):
    platform = build_platform(specs)
    queries = make_queries(params)
    router = ShardRouter(platform, n_shards, grid=GRID, clock=ManualClock())
    cut = partition_catalog(platform, n_shards, grid=GRID)
    order = [shard for shard, n in enumerate(cut.counts) if n]
    image_ids = np.array(platform.image_ids(), dtype=np.int64)
    for size in range(1, len(order) + 1):
        for lost_shards in map(set, combinations(order, size)):
            lost = set(image_ids[cut.owns(list(lost_shards))(image_ids)].tolist())
            probe, _ = answer_losing(router, EVERYTHING, lost_shards)
            assert probe.failed_shards == tuple(sorted(lost_shards))
            assert set(probe.ids) == set(image_ids.tolist()) - lost
            for query in queries:
                answer, info = answer_losing(router, query, lost_shards)
                label = f"shards={n_shards} lost={sorted(lost_shards)} {query!r}"
                assert set(answer.failed_shards) <= lost_shards, label
                assert info["partial"] == bool(answer.failed_shards), label
                same(answer, expected(platform, query, lost), label)
