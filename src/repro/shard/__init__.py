"""Scale-out query execution: geo-tile sharded catalog, scatter-gather.

The paper pitches TVDP as a city-scale platform.  This package
partitions the catalog by geo-tile into N shards, each one a row set
over the platform's own :class:`~repro.core.slice.CatalogSlice` — a
shard code per image, no copy of any table or index
(:mod:`repro.shard.partition`) — prunes shards per query with the
leaves' :class:`~repro.core.families.ShardStats` predicates, runs the
same per-slice scans and index probes on the survivors in the
coordinator (:mod:`repro.shard.executor`), and merges them there
(:mod:`repro.shard.router`) — with merged results **exactly equal** to
serial execution, an invariant the property harness in ``tests/shard``
proves per query family.  See ``docs/sharding.md`` for the partitioning
scheme, the per-family merge strategies, and the equivalence argument.
"""

from repro.shard.executor import GatherResult, ScatterGatherExecutor, WorkerResult
from repro.shard.partition import ShardHandle, partition_catalog
from repro.shard.router import ShardRouter

__all__ = [
    "GatherResult",
    "ScatterGatherExecutor",
    "ShardHandle",
    "ShardRouter",
    "WorkerResult",
    "partition_catalog",
]
