"""Multi-server Inversion: a sharded namespace over N independent
single-server stacks, with two-phase commit for the (rare) transactions
that cross shards.  See :mod:`repro.shard.router` for the partitioning
rule, :mod:`repro.shard.cluster` for the cluster lifecycle and the
coordinator decision log, :mod:`repro.shard.twophase` for the commit
protocol, :mod:`repro.shard.client` for the application surface, and
:mod:`repro.shard.sched` for the deterministic scheduler over a cluster."""

from repro.shard.client import ShardedInversionClient
from repro.shard.cluster import DECISION_TAG, ShardedCluster, ShardStats
from repro.shard.router import (
    HashPartitionPolicy,
    ShardRouteError,
    ShardRouter,
    SubtreePartitionPolicy,
    top_component,
)
from repro.shard.sched import ShardedScheduler
from repro.shard.twophase import TwoPhaseCoordinator

__all__ = [
    "DECISION_TAG",
    "HashPartitionPolicy",
    "ShardRouteError",
    "ShardRouter",
    "ShardStats",
    "ShardedCluster",
    "ShardedInversionClient",
    "ShardedScheduler",
    "SubtreePartitionPolicy",
    "TwoPhaseCoordinator",
    "top_component",
]
