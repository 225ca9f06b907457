"""Deterministic multi-session scheduling.

The paper's promise — "a standard database two-phase locking protocol
[GRAY76] allows concurrent access to files" — only earns its keep when
more than one session is in flight.  This package interleaves N client
sessions over one :class:`~repro.core.server.InversionServer`, or over
the N shards of a :class:`~repro.shard.cluster.ShardedCluster`, without
real threads: one seeded cooperative event loop advances sessions one
request at a time on the simulated clocks, parks lock waiters while
other sessions run, retries deadlock victims with capped exponential
backoff, and bounds admission so overload produces backpressure
instead of unbounded queues.  Same seed ⇒ identical interleaving,
which keeps the crash-schedule explorer and the byte-identical bench
gates working under concurrency.
"""

from repro.sched.scheduler import (Call, ClientOp, MultiUserScheduler, Ref,
                                   SchedStats, Scheduler, Session, Txn)

__all__ = [
    "Call", "ClientOp", "MultiUserScheduler", "Ref", "SchedStats",
    "Scheduler", "Session", "Txn",
]
