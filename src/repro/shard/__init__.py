"""Scale-out query execution: geo-tile sharded catalog, one-pass answers.

The paper pitches TVDP as a city-scale platform.  This package
partitions the catalog by geo-tile into N shards, each one a row set
over the platform's own :class:`~repro.core.slice.CatalogSlice` — a
shard code per image, no copy of any table or index
(:mod:`repro.shard.partition`) — prunes shards per query with one
bitmask per leaf off the cut's per-shard tuples and masks, dispatches
each survivor once with retries in the coordinator
(:mod:`repro.shard.executor`), and answers each query with the serial
runner (:mod:`repro.shard.router`), one pass per query part: the serial
one, or over the shards that answered if one was lost — with answers
**exactly equal** to serial
execution, an invariant the property harness in ``tests/shard`` proves
per query family.  See ``docs/sharding.md`` for the partitioning scheme,
why one pass equals the per-shard merge it replaced, and the argument.
"""

from repro.shard.executor import GatherResult, ScatterGatherExecutor
from repro.shard.partition import Partition, partition_catalog
from repro.shard.router import ShardRouter

__all__ = [
    "GatherResult",
    "Partition",
    "ScatterGatherExecutor",
    "ShardRouter",
    "partition_catalog",
]
