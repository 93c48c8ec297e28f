"""A visual top-k that loses a shard is the serial answer minus that shard.

The fallback decision is made once, on the whole catalog's candidates,
before anything is dispatched: a shard that fails every attempt takes
its own images out of the answer, and nothing else.  It neither turns a
top-k whose serial run ranks its candidates into an exhaustive scan nor
is reported lost once some later attempt of it has answered.
"""

from __future__ import annotations

import numpy as np

from repro.core import TemporalQuery, VisualQuery
from repro.index.ordering import pairs
from repro.resilience import FaultPlan, ManualClock
from repro.shard import ShardRouter
from tests.shard.test_equivalence import LATS, LNGS, PixelProbeExtractor, build_platform

EXTRACTOR = PixelProbeExtractor.name


def forty_images():
    """Two images per grid point, three vector levels among them."""
    return build_platform(
        [
            {
                "lat": lat, "lng": lng, "t": n, "direction": 0.0,
                "levels": (0.25 + 0.25 * (n % 3), 0.5, 0.25), "delta": 0.001 * n,
                "keywords": [], "annotation": None,
            }
            for n, (lat, lng) in enumerate([(lat, lng) for lat in LATS for lng in LNGS] * 2)
        ]
    )


def killing_shard_zero(router: ShardRouter, query: object):
    """``(answer, info)`` of ``query`` with every attempt of the first
    shard dispatched — shard 0 — dying."""
    plan = FaultPlan(seed=0).kill("shard.worker", max_faults=router.max_attempts)
    with plan.activate():
        return router.answer(query)


def test_a_lost_shard_takes_only_its_own_images_out_of_a_topk():
    platform = forty_images()
    lsh = platform.slice.lsh(EXTRACTOR)
    vector = np.random.default_rng(264).uniform(0, 1, 3)
    candidates = pairs(*lsh.topk_in_buckets(lsh.bucket_keys(vector), vector, len(lsh))[0])
    k = len(candidates)  # serial ranks its candidates: no fallback
    assert k == 14
    router = ShardRouter(platform, 4, grid=(3, 3), clock=ManualClock())
    # Shard 0's images: those a whole-catalog window misses without it.
    everything, info = killing_shard_zero(router, TemporalQuery(start=0.0))
    assert info["failed_shards"] == [0]
    lost = set(platform.image_ids()) - set(everything.ids)
    assert lost and not lost >= {image_id for image_id, _ in candidates}

    answer, info = killing_shard_zero(router, VisualQuery(EXTRACTOR, vector=vector, k=k))

    assert answer.ids == [image_id for image_id, _ in candidates if image_id not in lost]
    assert info["failed_shards"] == [0] and answer.failed_shards == (0,)
