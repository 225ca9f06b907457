"""Concurrent workloads for the crash-schedule explorer.

:class:`ConcurrentWorkloadRunner` mirrors the single-session
:class:`~repro.testkit.explorer.WorkloadRunner` interface (``oracle``,
``pending``, ``floating``, ``run()``, ``completed_state()``) but drives
a :class:`~repro.testkit.workload.Workload` whose ``sessions`` field
holds one step list *per client* through the deterministic
multi-session scheduler (:mod:`repro.sched`).  Each
:class:`~repro.testkit.workload.TxStep` becomes a scheduler ``Txn`` of
``ClientOp`` items running :func:`~repro.testkit.oracle.apply_fs_op`, so
the crash explorer's model ops flow through real interleaved
transactions — lock parks, deadlock-victim retries and group-commit
batches included.

The oracle stays correct under interleaving because two-phase locking
makes the committed transactions serializable *in commit order*: the
scheduler's ``commit_hook`` fires the instant each commit dispatch
returns, and the runner applies that step's ops to the model right
there (or holds them in the floating list while the commit record sits
in the group-commit queue).  A crash may lose any suffix of the
floating list — exactly the acceptance rule the explorer already
applies to single-session group-commit runs.

Determinism: the scheduler is seeded from ``workload.sched_seed`` and
everything advances on the simulated clock, so the profiling pass and
every crash-point rebuild replay byte-identical write sequences —
"crash at write #k" stays a meaningful coordinate even with eight
clients in flight.
"""

from __future__ import annotations

from repro.core.server import InversionServer
from repro.sched import ClientOp, MultiUserScheduler, Txn
from repro.testkit.oracle import ModelFS, apply_fs_op
from repro.testkit.workload import TxStep, Workload


class ConcurrentWorkloadRunner:
    """Executes a workload's per-session step lists through the
    multi-session scheduler, keeping the differential oracle in
    lock-step at commit order."""

    def __init__(self, db, fs, workload: Workload,
                 cached: bool = False) -> None:
        self.db = db
        self.fs = fs
        self.workload = workload
        #: run the sessions with lease-coherent client caches attached
        #: (the cache must be invisible: lease bookkeeping is pure dict
        #: work, so write boundaries and oracle outcomes are unchanged).
        self.cached = cached
        self.oracle = ModelFS()
        self.oracle.apply_many(workload.setup_ops)
        #: kept for interface parity with WorkloadRunner.  Concurrent
        #: runs are explored without torn appends, where an in-flight
        #: transaction can never land on the committed side, so there
        #: is never a pending candidate.
        self.pending: tuple | None = None
        #: (xid, ops) committed in memory, commit order, records still
        #: queued by group commit — a crash may lose any suffix.
        self.floating: list[tuple[int, tuple]] = []

    def _program(self, steps) -> list[Txn]:
        program = []
        for step in steps:
            if not isinstance(step, TxStep):
                raise TypeError(
                    f"concurrent workloads take TxStep only, got {step!r}")
            items = [ClientOp(op[0],
                              lambda c, op=op: apply_fs_op(c.fs, c.tx, op))
                     for op in step.ops]
            program.append(Txn(items, abort=step.abort, tag=step))
        return program

    def _on_commit(self, session, step: TxStep) -> None:
        self._drain_floating()
        xid = session.xid
        if xid in set(self.db.tm.pending_commit_xids()):
            self.floating.append((xid, step.ops))
        else:
            self.oracle.apply_many(step.ops)

    def _drain_floating(self) -> None:
        still_pending = set(self.db.tm.pending_commit_xids())
        while self.floating and self.floating[0][0] not in still_pending:
            _, ops = self.floating.pop(0)
            self.oracle.apply_many(ops)

    def run(self) -> None:
        server = InversionServer(self.fs)
        factory = None
        if self.cached:
            from repro.cache import session_cache_factory
            factory = session_cache_factory()
        sched = MultiUserScheduler(server, seed=self.workload.sched_seed,
                                   cache_factory=factory)
        sched.commit_hook = self._on_commit
        try:
            for i, steps in enumerate(self.workload.sessions):
                sched.add_session(self._program(steps), name=f"s{i}")
            sched.run(strict=True)
        finally:
            sched.close()
        self._drain_floating()

    def completed_state(self) -> dict:
        """Expected visible state of a crash-free run: the durable base
        plus every floating commit (visible in memory already)."""
        model = self.oracle
        for _, ops in self.floating:
            model = model.preview(ops)
        return model.state()
