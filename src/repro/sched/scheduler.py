"""The deterministic multi-session scheduler.

One :class:`Scheduler` drives N client sessions on a single thread over
a list of shard databases: one entry for a plain
:class:`~repro.core.server.InversionServer`, N for a
:class:`~repro.shard.cluster.ShardedCluster`.  Each session is a
*program*: a list of :class:`Call` requests (auto-commit),
:class:`ClientOp` functions and :class:`Txn` blocks (begin → items →
commit, retried as a unit when chosen as a deadlock victim).  Every
session drives one client object — a
:class:`~repro.sched.connection.ServerConnection` or a
:class:`~repro.shard.client.ShardedInversionClient` — so every slice is
``getattr(client, method)(...)``.  The event loop advances one session
by one request per slice, picking the next session with a seeded RNG —
same seed, same programs ⇒ byte-identical interleaving, event trace,
and simulated-clock history.

Yield points are the natural concurrency seams of the system:

- **RPC boundaries** — every slice is one client request, so sessions
  interleave between requests exactly as network clients do;
- **lock waits** — the scheduler installs a wait strategy on every
  shard's :class:`~repro.db.locks.LockManager`; a session that blocks
  on a lock *parks* and the loop runs other sessions' requests
  (advancing the simulated clocks) until the lock frees, times out in
  simulated seconds on *that shard's* clock, or the waits-for graph
  picks a victim.  Cross-shard deadlocks never appear in any single
  shard's waits-for graph, so they resolve by lock timeout;
- **I/O** — simulated device time is charged inside each slice, so the
  clocks the fairness guard and backoff timers read reflect real
  (simulated) work.

Each shard keeps its own simulated clock.  Every session has a **home
shard** whose clock stamps its fairness bookkeeping, backoff timers and
trace events.  The picker honours the starvation guard first (any
session runnable for ``fairness_bound`` simulated seconds on its home
clock runs next, oldest wait first), then takes the ready sessions of
the home clock furthest behind — the laggiest timeline runs next, which
keeps the shards advancing together — then applies the commit gate (see
:meth:`Scheduler._pick`), then a seeded lottery.

Admission control bounds the in-flight session count: sessions beyond
``max_inflight`` queue (FIFO) up to ``admission_queue`` deep, and
further submissions fail fast with
:class:`~repro.errors.SchedAdmissionError` — backpressure, not an
unbounded queue.

Context switches on one thread need two swaps the threaded world gets
for free, on every shard: the per-xid accountant's "current
transaction" is re-pointed at the incoming session's open xid there,
and the tracer's open-span stack is swapped to the session's own (each
session's spans form their own request trees).

:class:`MultiUserScheduler` (one server) and
:class:`~repro.shard.sched.ShardedScheduler` (one cluster) are thin
constructors over :class:`Scheduler` with each topology's defaults.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import partial

from repro.errors import (DeadlockError, LockTimeoutError,
                          SchedAdmissionError, SchedStalledError,
                          SessionFailedError)
from repro.obs.registry import HistogramValue, MetricSpec
from repro.sched.connection import ServerConnection

METRICS = (
    MetricSpec("sched.slices", "counter", "slices",
               "Requests dispatched by the scheduler (one slice = one "
               "request of one session).",
               "repro.sched.scheduler"),
    MetricSpec("sched.context_switches", "counter", "switches",
               "Slices that ran a different session than the previous "
               "slice.",
               "repro.sched.scheduler"),
    MetricSpec("sched.lock_parks", "counter", "parks",
               "Times a session parked in the scheduler waiting for a "
               "lock while other sessions ran.",
               "repro.sched.scheduler"),
    MetricSpec("sched.retries", "counter", "retries",
               "Transactions re-run after their session was chosen as "
               "a deadlock victim or timed out on a lock.",
               "repro.sched.scheduler"),
    MetricSpec("sched.backoff_seconds", "histogram", "seconds",
               "Simulated seconds slept before each victim retry "
               "(capped exponential).",
               "repro.sched.scheduler"),
    MetricSpec("sched.admission_waits", "counter", "sessions",
               "Sessions that queued for admission because the "
               "in-flight limit was reached.",
               "repro.sched.scheduler"),
    MetricSpec("sched.rejected", "counter", "sessions",
               "Session submissions refused by backpressure (admission "
               "queue full).",
               "repro.sched.scheduler"),
    MetricSpec("sched.idle_advances", "counter", "ops",
               "Wait quanta burned with every other session parked or "
               "asleep (a parked waiter advancing the clock toward its "
               "own timeout).",
               "repro.sched.scheduler"),
)

# Session states.
QUEUED = "queued"        # waiting for admission
READY = "ready"          # runnable, waiting to be picked
RUNNING = "running"      # currently dispatching a request
PARKED = "parked"        # blocked on a lock inside a dispatch
SLEEPING = "sleeping"    # backing off before a victim retry
DONE = "done"
FAILED = "failed"


class Ref:
    """Placeholder argument: the result of an earlier request in the
    same session, by program ordinal (``Call``/``ClientOp`` items are
    numbered 0.. in program order).  ``Call("p_write", Ref(0), b"x")``
    writes to the fd returned by the session's first request."""

    __slots__ = ("ordinal",)

    def __init__(self, ordinal: int) -> None:
        self.ordinal = ordinal

    def __repr__(self) -> str:
        return f"Ref({self.ordinal})"


class Call:
    """One client request: a ``p_*`` method of the session's client.
    Top-level Calls auto-commit; inside a :class:`Txn` they run under
    the session's open transaction."""

    __slots__ = ("method", "args", "kwargs")

    def __init__(self, method: str, *args, **kwargs) -> None:
        self.method = method
        self.args = args
        self.kwargs = kwargs

    @property
    def label(self) -> str:
        return self.method

    def __repr__(self) -> str:
        return f"Call({self.method!r})"


class ClientOp:
    """A direct operation ``fn(client)`` run in one scheduler slice.
    Because the whole function executes without the scheduler switching
    sessions (unless it blocks on a lock), a ClientOp that reads two
    paths sees them at one instant of the interleaving — the
    observation primitive the cross-shard atomicity tests are built on.
    A server connection exposes ``fs`` and the open ``tx``, so
    ``ClientOp(label, lambda c: c.fs.write_file(c.tx, path, data))``
    drives the file system directly under the session's transaction —
    the seam the crash testkit runs its model ops through."""

    __slots__ = ("label", "fn")

    def __init__(self, label: str, fn) -> None:
        self.label = label
        self.fn = fn

    def __repr__(self) -> str:
        return f"ClientOp({self.label!r})"


class Txn:
    """A transaction block: ``p_begin``, the items (one per slice),
    then ``p_commit`` (or ``p_abort`` when ``abort=True``).  On
    :class:`~repro.errors.DeadlockError` or
    :class:`~repro.errors.LockTimeoutError` the whole block is aborted,
    the session backs off (capped exponential, simulated seconds), and
    the block re-runs from ``p_begin`` — the automatic victim retry the
    paper's client library left to applications."""

    __slots__ = ("items", "abort", "tag")

    def __init__(self, items, abort: bool = False, tag=None) -> None:
        self.items = list(items)
        self.abort = abort
        self.tag = tag


@dataclass
class SchedStats:
    """Scheduler-lifetime counters, mirrored onto every shard's metrics
    registry under the ``sched.*`` families."""

    slices: int = 0
    context_switches: int = 0
    lock_parks: int = 0
    retries: int = 0
    backoff_seconds: HistogramValue = field(default_factory=HistogramValue)
    admission_waits: int = 0
    rejected: int = 0
    idle_advances: int = 0


class _Unit:
    """One compiled program item (a Txn block or a lone Call/ClientOp)."""

    __slots__ = ("txn", "items", "ordinals", "attempt")

    def __init__(self, txn: Txn | None, items: list, ordinals: list[int]) -> None:
        self.txn = txn          # None for a lone auto-commit item
        self.items = items
        self.ordinals = ordinals
        self.attempt = 0


class Session:
    """One client session: its program, its client, and the
    bookkeeping the fairness report is built from.  All times are on
    the session's home-shard clock."""

    def __init__(self, sid: int, name: str, units: list[_Unit], home: int,
                 clock, nshards: int) -> None:
        self.sid = sid
        self.name = name
        self.units = units
        self.home = home
        self.clock = clock
        self.state = QUEUED
        #: the session's client, from admission until retirement.
        self.client = None
        #: program counter: current unit / phase within the unit
        #: (-1 = p_begin pending, 0..n-1 = item index, n = commit).
        self.unit_idx = 0
        self.phase = -1
        #: ordinal -> result of each completed request.
        self.values: dict[int, object] = {}
        self.wake_time = 0.0
        self.submitted_at = clock.now()
        self.ready_since = self.submitted_at
        self.admission_wait = 0.0
        self.error: str | None = None
        # fairness bookkeeping (simulated seconds)
        self.slices = 0
        self.retries = 0
        self.park_seconds = 0.0
        self.max_park = 0.0
        self.max_ready_wait = 0.0
        #: the session's own open-span stack per shard (swapped in per
        #: slice).
        self.span_stacks: list[list[int]] = [[] for _ in range(nshards)]
        #: home-shard xid the latest slice started under — inside the
        #: commit hook, the xid of the transaction that just committed.
        self.xid: int | None = None

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED)

    def report_row(self) -> dict:
        return {
            "name": self.name,
            "home": self.home,
            "state": self.state,
            "slices": self.slices,
            "retries": self.retries,
            "admission_wait_s": self.admission_wait,
            "lock_park_s": self.park_seconds,
            "max_park_s": self.max_park,
            "max_ready_wait_s": self.max_ready_wait,
            "error": self.error,
        }


class SchedulerWaitStrategy:
    """One shard's lock-manager wait path under the scheduler: the
    waiting session parks and the event loop runs *other* sessions'
    requests — which is how a lock wait spends simulated time doing the
    system's other work instead of wall time doing nothing.  Timeouts
    are in simulated seconds on this shard's clock."""

    def __init__(self, sched: "Scheduler", shard: int) -> None:
        self.sched = sched
        self.shard = shard
        self.clock = sched.clocks[shard]

    def suspended_xids(self) -> set:
        """This shard's xids of sessions parked beneath the current one
        on the scheduler's call stack.  The lock manager exempts them
        from the FIFO no-barge rule: a stack-suspended waiter cannot
        acquire until control unwinds through the requester, so
        queueing behind it would deadlock the event loop, not the
        data."""
        out = set()
        for session in self.sched._running[:-1]:
            xid = session.client.xid_on(self.shard)
            if xid is not None:
                out.add(xid)
        return out

    def start(self, lm, xid: int, resource, mode: str) -> dict:
        sched = self.sched
        now = self.clock.now()
        session = sched._running[-1] if sched._running else None
        if session is not None:
            session.state = PARKED
            sched.stats.lock_parks += 1
            sched._event("park", session, f"{mode} {resource!r}")
        return {"start": now, "deadline": now + lm.timeout_s,
                "session": session, "span": self._park_span(resource, mode)}

    def _park_span(self, resource, mode: str):
        tracer = self.sched.dbs[self.shard].obs.tracer
        if not tracer.enabled:
            return None
        span = tracer.span("sched.park", resource=repr(resource), mode=mode)
        span.__enter__()
        return span

    def wait_round(self, lm, ctx: dict) -> bool:
        if self.clock.now() >= ctx["deadline"]:
            return False
        acct = self.sched.dbs[self.shard].obs.tx
        waiter_xid = acct.current_xid()
        # The lock manager's mutex is held here; release it so the
        # sessions we are about to run can take locks themselves, then
        # restore both the mutex and the waiter's accounting identity.
        lm._cond.release()
        try:
            self.sched._step_while_parked(self.shard, ctx["deadline"])
        finally:
            acct.activate(waiter_xid)
            lm._cond.acquire()
        return self.clock.now() < ctx["deadline"]

    def finish(self, lm, ctx: dict, xid: int) -> float:
        elapsed = self.clock.now() - ctx["start"]
        session = ctx["session"]
        if session is not None:
            session.state = RUNNING
            session.park_seconds += elapsed
            if elapsed > session.max_park:
                session.max_park = elapsed
            self.sched._event("unpark", session, f"{elapsed:.6f}")
        span = ctx.get("span")
        if span is not None:
            span.__exit__(None, None, None)
        return elapsed


class Scheduler:
    """Seeded cooperative event loop over N sessions of ``dbs``.

    ``connect()`` opens one session's client; ``route(path)`` names the
    shard a path lives on (homes sessions by their first absolute path;
    None homes every session on shard 0).  ``max_inflight=None`` admits
    every session immediately.  ``cluster_commits`` turns on the commit
    gate (see :meth:`_pick`).

    Construction installs a wait strategy on every shard's lock manager
    and mirrors the ``sched.*`` metric families onto every shard's
    registry; :meth:`close` restores the wait strategies.
    """

    def __init__(self, dbs, connect, route=None, seed: int = 0,
                 max_inflight: int | None = None, admission_queue: int = 16,
                 wait_quantum: float = 1e-4, backoff_base: float = 0.005,
                 backoff_cap: float = 0.08, max_retries: int = 10,
                 fairness_bound: float = 0.5,
                 cluster_commits: bool = False) -> None:
        self.dbs = list(dbs)
        self.clocks = [db.clock for db in self.dbs]
        self._connect = connect
        self._route = route
        self.seed = seed
        self.rng = random.Random(seed)
        self.max_inflight = max_inflight
        self.admission_queue = admission_queue
        self.wait_quantum = wait_quantum
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_retries = max_retries
        self.fairness_bound = fairness_bound
        self.cluster_commits = cluster_commits
        self.stats = SchedStats()
        self.sessions: list[Session] = []
        self._admitted: list[Session] = []
        self._admission_q: list[Session] = []
        #: call stack of sessions currently inside a slice (the top is
        #: the innermost; everything below is parked on a lock).
        self._running: list[Session] = []
        self._last_ran: Session | None = None
        #: commit-burst drain flag (see :meth:`_pick`).
        self._draining = False
        #: deterministic event trace:
        #: (home_time, home_shard, kind, session, detail).
        self.trace: list[tuple] = []
        #: hook called as fn(session, tag) right after a Txn's commit
        #: returns (the crash testkits' oracle seam); ``session.xid`` is
        #: the committed home-shard xid.
        self.commit_hook = None
        self._closed = False
        self._old_wait_strategies = []
        for shard, db in enumerate(self.dbs):
            self._old_wait_strategies.append(db.locks.wait_strategy)
            db.locks.wait_strategy = SchedulerWaitStrategy(self, shard)
        self._bind_metrics()

    # -- wiring ----------------------------------------------------------

    def _bind_metrics(self) -> None:
        stats = self.stats
        for db in self.dbs:
            for spec in METRICS:
                attr = spec.name.rsplit(".", 1)[-1]
                db.obs.metrics.register(spec).mirror(
                    lambda s=stats, a=attr: getattr(s, a))

    def close(self) -> None:
        """Restore the lock managers' previous wait strategies and close
        every session's client (a client still in a transaction aborts
        it, releasing its locks)."""
        if self._closed:
            return
        self._closed = True
        for db, old in zip(self.dbs, self._old_wait_strategies):
            db.locks.wait_strategy = old
        for session in self.sessions:
            if session.client is not None:
                session.client.close()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- admission -------------------------------------------------------

    def add_session(self, program, name: str | None = None,
                    home: int | None = None) -> Session:
        """Submit a session program.  ``home`` names the shard whose
        clock stamps the session's bookkeeping; by default it is routed
        from the first absolute path in the program (a session that
        works one subtree is homed where its data lives).  Admits the
        session immediately while fewer than ``max_inflight`` sessions
        are in flight, queues it FIFO up to ``admission_queue`` deep,
        and refuses it (backpressure) past that."""
        sid = len(self.sessions)
        units = self._compile(program)
        if home is None:
            home = self._infer_home(program)
        session = Session(sid, name or f"s{sid}", units, home,
                          self.clocks[home], len(self.dbs))
        if (self.max_inflight is None
                or len(self._admitted) < self.max_inflight):
            self.sessions.append(session)
            self._admit(session)
        elif len(self._admission_q) < self.admission_queue:
            self.sessions.append(session)
            self._admission_q.append(session)
            self.stats.admission_waits += 1
            self._event("queue", session, f"depth={len(self._admission_q)}")
        else:
            self.stats.rejected += 1
            self._event("reject", session,
                        f"queue_full={self.admission_queue}")
            raise SchedAdmissionError(
                f"session {session.name!r} refused: {len(self._admitted)} "
                f"in flight and admission queue full "
                f"({self.admission_queue} deep)")
        return session

    def _infer_home(self, program) -> int:
        if self._route is None:
            return 0
        for item in program:
            items = item.items if isinstance(item, Txn) else [item]
            for sub in items:
                if isinstance(sub, Call):
                    for arg in sub.args:
                        if isinstance(arg, str) and arg.startswith("/"):
                            return self._route(arg)
        return 0

    @staticmethod
    def _compile(program) -> list[_Unit]:
        units: list[_Unit] = []
        ordinal = 0
        for item in program:
            if isinstance(item, Txn):
                for sub in item.items:
                    if not isinstance(sub, (Call, ClientOp)):
                        raise TypeError(f"unknown Txn item {sub!r}")
                ords = list(range(ordinal, ordinal + len(item.items)))
                ordinal += len(item.items)
                units.append(_Unit(item, item.items, ords))
            elif isinstance(item, (Call, ClientOp)):
                units.append(_Unit(None, [item], [ordinal]))
                ordinal += 1
            else:
                raise TypeError(f"unknown program item {item!r}")
        return units

    def _admit(self, session: Session) -> None:
        session.client = self._connect()
        session.state = READY
        now = session.clock.now()
        session.admission_wait = now - session.submitted_at
        session.ready_since = now
        self._admitted.append(session)
        self._event("admit", session, f"home={session.home}")

    def _retire(self, session: Session, state: str) -> None:
        session.state = state
        self._admitted.remove(session)
        # closing aborts any transaction a failed session left open,
        # releasing its locks for the survivors.
        session.client.close()
        self._event(state, session, session.error or "")
        if self._admission_q:
            self._admit(self._admission_q.pop(0))

    # -- the event loop --------------------------------------------------

    def run(self, strict: bool = True) -> dict:
        """Run every session to completion; returns the fairness
        report.  ``strict`` raises :class:`SessionFailedError` if any
        session exhausted its retry budget."""
        while True:
            self._wake_sleepers()
            if all(s.finished for s in self.sessions):
                break
            ready = [s for s in self._admitted if s.state == READY]
            if ready:
                self._run_slice(self._pick(ready))
                continue
            sleeper = self._next_sleeper()
            if sleeper is None:
                raise SchedStalledError(
                    "unfinished sessions but nothing runnable: "
                    + ", ".join(f"{s.name}={s.state}" for s in self.sessions
                                if not s.finished))
            clock = sleeper.clock
            clock.advance(max(0.0, sleeper.wake_time - clock.now()))
        failed = [s for s in self.sessions if s.state == FAILED]
        if strict and failed:
            raise SessionFailedError(
                "; ".join(f"{s.name}: {s.error}" for s in failed))
        return self.fairness_report()

    def _wake_sleepers(self) -> None:
        for session in self._admitted:
            if session.state == SLEEPING:
                now = session.clock.now()
                if session.wake_time <= now:
                    session.state = READY
                    session.ready_since = now

    def _next_sleeper(self) -> Session | None:
        """The sleeper due soonest, measured on its own home clock."""
        sleepers = [s for s in self._admitted if s.state == SLEEPING]
        if not sleepers:
            return None
        return min(sleepers,
                   key=lambda s: (s.wake_time - s.clock.now(), s.sid))

    def _pick(self, ready: list[Session]) -> Session:
        """Starvation guard first (overdue on the home clock, oldest
        wait wins), then the ready sessions of the home clock furthest
        behind, then the commit gate, then a seeded lottery.

        With ``cluster_commits``, sessions whose next request is
        ``p_commit`` are held back while any other candidate still has
        writing work — the classic group-commit delay, expressed as
        scheduling policy.  Writes from every session accumulate in the
        buffer cache, then the commits run back-to-back: the first
        committer's flush sweeps all of them in one sorted pass, the
        rest find their pages already clean, and the batched commit
        records share a single status force.  The starvation guard
        bounds the delay."""
        overdue = [s for s in ready
                   if s.clock.now() - s.ready_since >= self.fairness_bound]
        if overdue:
            return min(overdue, key=lambda s: (s.ready_since, s.sid))
        clocks = self.clocks
        home = min({s.home for s in ready},
                   key=lambda i: (clocks[i].now(), i))
        ordered = sorted((s for s in ready if s.home == home),
                         key=lambda s: s.sid)
        if self.cluster_commits:
            gated = [s for s in ordered if self._at_commit_gate(s)]
            if self._draining:
                # Drain mode: finish the whole commit burst back-to-back
                # before any session starts its next transaction —
                # otherwise the first committer's successor slices would
                # outrank the remaining gated commits and the batch
                # would trickle out one commit at a time.
                if gated:
                    ordered = gated
                else:
                    self._draining = False
            elif gated and len(gated) == len(ordered):
                self._draining = True
                ordered = gated
            elif gated:
                ordered = [s for s in ordered if not self._at_commit_gate(s)]
        return ordered[self.rng.randrange(len(ordered))]

    @staticmethod
    def _at_commit_gate(session: Session) -> bool:
        """True when the session's next request is the ``p_commit`` of
        a committing Txn (aborts are not gated: they force their status
        record immediately, so delaying them batches nothing)."""
        unit = session.units[session.unit_idx]
        return (unit.txn is not None and not unit.txn.abort
                and session.phase == len(unit.items))

    def _step_while_parked(self, shard: int, deadline: float) -> None:
        """One scheduling step on behalf of a session parked on
        ``shard``: run another ready session; else advance the soonest
        sleeper's home clock to its wake time — capped at the waiter's
        deadline when that is the parked shard's clock; else jump the
        parked shard's clock straight to the deadline."""
        self._wake_sleepers()
        ready = [s for s in self._admitted if s.state == READY]
        if ready:
            self._run_slice(self._pick(ready))
            return
        sleeper = self._next_sleeper()
        if sleeper is not None:
            clock = sleeper.clock
            target = sleeper.wake_time
            if sleeper.home == shard:
                target = min(target, deadline)
            if target > clock.now():
                clock.advance(target - clock.now())
                return
        # Nothing runnable at all: the waiter's timeout is the only
        # event left, so jump straight to it (plus one quantum so the
        # deadline test is unambiguous) instead of burning quanta.
        self.stats.idle_advances += 1
        clock = self.clocks[shard]
        clock.advance(max(self.wait_quantum,
                          deadline + self.wait_quantum - clock.now()))

    # -- slices ----------------------------------------------------------

    def _resolve(self, session: Session, value):
        if isinstance(value, Ref):
            if value.ordinal not in session.values:
                raise SchedStalledError(
                    f"{session.name}: Ref({value.ordinal}) before its "
                    f"request completed")
            return session.values[value.ordinal]
        return value

    def _next_request(self, session: Session):
        """(label, thunk, ordinal) for the session's next request."""
        unit = session.units[session.unit_idx]
        client = session.client
        if unit.txn is not None:
            if session.phase == -1:
                return "p_begin", client.p_begin, None
            if session.phase == len(unit.items):
                if unit.txn.abort:
                    return "p_abort", client.p_abort, None
                return "p_commit", client.p_commit, None
            item = unit.items[session.phase]
            ordinal = unit.ordinals[session.phase]
        else:
            item = unit.items[0]
            ordinal = unit.ordinals[0]
        if isinstance(item, ClientOp):
            return item.label, partial(item.fn, client), ordinal
        args = tuple(self._resolve(session, a) for a in item.args)
        kwargs = {k: self._resolve(session, v)
                  for k, v in item.kwargs.items()}
        return (item.method, partial(getattr(client, item.method),
                                     *args, **kwargs), ordinal)

    def _run_slice(self, session: Session) -> None:
        """Run one request of ``session`` — the scheduler's unit of
        interleaving."""
        unit = session.units[session.unit_idx]
        label, thunk, ordinal = self._next_request(session)
        self.stats.slices += 1
        session.slices += 1
        if self._last_ran is not session:
            self.stats.context_switches += 1
        self._last_ran = session
        if session.state == READY:
            waited = session.clock.now() - session.ready_since
            if waited > session.max_ready_wait:
                session.max_ready_wait = waited
        session.state = RUNNING
        self._running.append(session)
        self._event("slice", session, label)
        # The context switch, once per shard: point the accountant at
        # this session's transaction there (or at no one), and swap in
        # the session's own span stack where tracing is on.
        client = session.client
        traced = []
        for shard, db in enumerate(self.dbs):
            xid = client.xid_on(shard)
            db.obs.tx.activate(xid)
            if shard == session.home:
                session.xid = xid
            tracer = db.obs.tracer
            if tracer.enabled:
                traced.append((tracer, tracer.swap_stack(
                    session.span_stacks[shard])))
        try:
            spans = [tracer.span("sched.slice", session=session.name,
                                 method=label) for tracer, _ in traced]
            for span in spans:
                span.__enter__()
            try:
                result = thunk()
            except (DeadlockError, LockTimeoutError) as exc:
                # the victim's abort belongs to this slice's trees
                self._handle_victim(session, unit, exc)
                return
            finally:
                for span in reversed(spans):
                    span.__exit__(None, None, None)
        finally:
            self._running.pop()
            for tracer, old_stack in traced:
                tracer.swap_stack(old_stack)
            if session.state == RUNNING:
                session.state = READY
                session.ready_since = session.clock.now()
        if ordinal is not None:
            session.values[ordinal] = result
        self._advance_pc(session, unit)

    def _advance_pc(self, session: Session, unit: _Unit) -> None:
        if unit.txn is None:
            done_unit = True
        elif session.phase == len(unit.items):
            if self.commit_hook is not None and not unit.txn.abort:
                self.commit_hook(session, unit.txn.tag)
            done_unit = True
        else:
            session.phase += 1
            done_unit = False
        if done_unit:
            unit.attempt = 0
            session.unit_idx += 1
            session.phase = -1
            if session.unit_idx >= len(session.units):
                self._retire(session, DONE)

    def _handle_victim(self, session: Session, unit: _Unit, exc) -> None:
        """Deadlock-victim (or lock-timeout) recovery: abort the open
        transaction (on every enlisted shard), roll the unit back, back
        off on the home clock (capped exponential, simulated seconds),
        and retry the unit from its beginning."""
        self._event("victim", session, type(exc).__name__)
        if session.client.in_transaction():
            try:
                session.client.p_abort()
            except Exception:
                # A cluster abort that fails on one enlisted shard has
                # still left the transaction; one that leaves it open
                # is a fault of its own and must surface.
                if session.client.in_transaction():
                    raise
        for ordinal in unit.ordinals:
            session.values.pop(ordinal, None)
        session.phase = -1
        unit.attempt += 1
        if unit.attempt > self.max_retries:
            session.error = (f"retry budget exhausted after "
                             f"{self.max_retries} attempts: {exc}")
            self._retire(session, FAILED)
            return
        self.stats.retries += 1
        session.retries += 1
        backoff = min(self.backoff_cap,
                      self.backoff_base * (2 ** (unit.attempt - 1)))
        self.stats.backoff_seconds.observe(backoff)
        session.state = SLEEPING
        session.wake_time = session.clock.now() + backoff
        self._event("retry", session,
                    f"attempt={unit.attempt} backoff={backoff:.6f}")

    # -- tracing / reporting --------------------------------------------

    def _event(self, kind: str, session: Session, detail: str = "") -> None:
        self.trace.append((round(session.clock.now(), 9), session.home,
                           kind, session.name, detail))

    def trace_hash(self) -> str:
        """SHA-256 over the event trace — the determinism gate: two
        runs with the same seed, programs and shard count must produce
        the same hash."""
        blob = json.dumps(self.trace, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def fairness_report(self) -> dict:
        """Per-session scheduling statistics plus the starvation
        verdict: the longest any session sat runnable-but-not-run, to
        compare against ``fairness_bound``."""
        rows = [s.report_row() for s in self.sessions]
        max_ready_wait = max((r["max_ready_wait_s"] for r in rows),
                             default=0.0)
        max_park = max((r["max_park_s"] for r in rows), default=0.0)
        return {
            "seed": self.seed,
            "nshards": len(self.dbs),
            "sessions": rows,
            "max_ready_wait_s": max_ready_wait,
            "max_park_s": max_park,
            "fairness_bound_s": self.fairness_bound,
            "starved": max_ready_wait > self.fairness_bound + self.wait_quantum,
            "slices": self.stats.slices,
            "context_switches": self.stats.context_switches,
            "lock_parks": self.stats.lock_parks,
            "retries": self.stats.retries,
            "idle_advances": self.stats.idle_advances,
        }


class MultiUserScheduler(Scheduler):
    """The scheduler over one :class:`~repro.core.server.InversionServer`
    — the one-shard case.  Sessions get in-process
    :class:`~repro.sched.connection.ServerConnection` clients (no network
    is charged), admission is bounded at ``max_inflight``, and the
    commit gate is on.  ``cache_factory(server, conn)`` gives every
    session a lease-coherent client cache (see
    :func:`repro.cache.session_cache_factory`)."""

    def __init__(self, server, seed: int = 0, max_inflight: int = 8,
                 admission_queue: int = 16, wait_quantum: float = 1e-4,
                 backoff_base: float = 0.005, backoff_cap: float = 0.08,
                 max_retries: int = 10, fairness_bound: float = 0.5,
                 cluster_commits: bool = True, cache_factory=None) -> None:
        super().__init__([server.fs.db],
                         lambda: ServerConnection(server, cache_factory),
                         seed=seed, max_inflight=max_inflight,
                         admission_queue=admission_queue,
                         wait_quantum=wait_quantum, backoff_base=backoff_base,
                         backoff_cap=backoff_cap, max_retries=max_retries,
                         fairness_bound=fairness_bound,
                         cluster_commits=cluster_commits)
