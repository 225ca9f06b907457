"""The deterministic scheduler over a sharded cluster.

:class:`ShardedScheduler` is :class:`~repro.sched.scheduler.Scheduler`
over a :class:`~repro.shard.cluster.ShardedCluster`: one shard database
(and simulated clock) per shard, one
:class:`~repro.shard.client.ShardedInversionClient` per session (so
routing, enlistment and 2PC are exercised exactly as an application
would), sessions homed by the router, every session admitted
immediately, and no commit gate.
"""

from __future__ import annotations

from repro.sched.scheduler import Scheduler


class ShardedScheduler(Scheduler):
    """Seeded cooperative event loop over N sessions of one cluster."""

    def __init__(self, cluster, seed: int = 0, wait_quantum: float = 1e-4,
                 backoff_base: float = 0.005, backoff_cap: float = 0.08,
                 max_retries: int = 10, fairness_bound: float = 0.5) -> None:
        super().__init__(cluster.dbs, cluster.client, cluster.router.route,
                         seed=seed, max_inflight=None, cluster_commits=False,
                         wait_quantum=wait_quantum, backoff_base=backoff_base,
                         backoff_cap=backoff_cap, max_retries=max_retries,
                         fairness_bound=fairness_bound)
