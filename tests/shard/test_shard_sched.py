"""The sharded deterministic scheduler: determinism, atomicity under
concurrency, and cross-shard lock contention.

The headline property (satellite 3): sessions racing a cross-shard
``mv`` against readers of both paths must see the old name or the new
name — never both, never neither.  Each probe is a :class:`ClientOp`,
which runs in a single scheduler slice, so it observes the cluster at
one instant of the interleaving."""

import pytest

from repro.core.constants import O_RDWR
from repro.errors import FileNotFoundError_, LockTimeoutError
from repro.sched import Call, ClientOp, Ref, Txn
from repro.shard import ShardedCluster, ShardedScheduler
from repro.testkit.workload import payload


def _write(client, path, data):
    fd = client.p_creat(path)
    client.p_write(fd, data)
    client.p_close(fd)


def _exists(client, path):
    try:
        client.p_stat(path)
        return True
    except FileNotFoundError_:
        return False


def _mkcluster(tmp_path, name="c"):
    cluster = ShardedCluster.create(str(tmp_path / name), 2,
                                    policy="subtree",
                                    assignments={"a": 0, "b": 1})
    boot = cluster.client()
    boot.p_mkdir("/a")
    boot.p_mkdir("/b")
    boot.close()
    return cluster


def _disjoint_programs(nsessions=4, ntxns=2):
    programs = []
    for i in range(nsessions):
        top = "ab"[i % 2]
        prog = []
        for j in range(ntxns):
            path = f"/{top}/s{i}t{j}"
            prog.append(Txn([
                Call("p_creat", path),
                Call("p_write", Ref(j * 3), payload(i, path, 700)),
                Call("p_close", Ref(j * 3)),
            ]))
        programs.append(prog)
    return programs


def test_disjoint_sessions_complete_and_replay_identically(tmp_path):
    hashes = []
    for run in range(2):
        cluster = _mkcluster(tmp_path, f"run{run}")
        with ShardedScheduler(cluster, seed=11) as sched:
            for i, prog in enumerate(_disjoint_programs()):
                sched.add_session(prog, name=f"w{i}")
            report = sched.run()
            assert all(r["state"] == "done" for r in report["sessions"])
            hashes.append(sched.trace_hash())
        # all work landed, all of it single-shard
        check = cluster.client()
        assert len(check.p_readdir("/a")) == 4
        assert len(check.p_readdir("/b")) == 4
        check.close()
        assert cluster.stats.cross_shard_messages == 0
        assert cluster.stats.single_shard_txns == 8
        cluster.close()
    assert hashes[0] == hashes[1], "same seed+programs must replay"


def test_seed_changes_interleaving(tmp_path):
    hashes = []
    for seed in (1, 2):
        cluster = _mkcluster(tmp_path, f"seed{seed}")
        with ShardedScheduler(cluster, seed=seed) as sched:
            for i, prog in enumerate(_disjoint_programs()):
                sched.add_session(prog, name=f"w{i}")
            sched.run()
            hashes.append(sched.trace_hash())
        cluster.close()
    assert hashes[0] != hashes[1]


def test_cross_shard_mv_is_atomic_to_racing_readers(tmp_path):
    """Readers probing both names in one slice while a cross-shard
    rename runs: every probe sees exactly one of the two names."""
    cluster = _mkcluster(tmp_path)
    seed = cluster.client()
    _write(seed, "/a/src", payload(0, "src", 1800))
    seed.close()

    def probe(client):
        return (_exists(client, "/a/src"), _exists(client, "/b/dst"))

    with ShardedScheduler(cluster, seed=5) as sched:
        sched.add_session([Call("p_rename", "/a/src", "/b/dst")],
                          name="mover", home=0)
        for r in range(3):
            sched.add_session(
                [ClientOp(f"probe{i}", probe) for i in range(4)],
                name=f"reader{r}", home=r % 2)
        sched.run()
        observations = []
        for session in sched.sessions:
            if session.name.startswith("reader"):
                observations.extend(session.values.values())
    for src_seen, dst_seen in observations:
        assert (src_seen, dst_seen) in {(True, False), (False, True)}, \
            f"reader saw a torn rename: src={src_seen} dst={dst_seen}"
    # the probes must actually straddle the move: someone saw the old
    # world and someone the new one, else the race never happened.
    assert {(True, False), (False, True)} <= set(observations)
    check = cluster.client()
    assert not _exists(check, "/a/src")
    assert _exists(check, "/b/dst")
    check.close()
    cluster.close()


def test_cross_shard_lock_cycle_resolves_by_timeout(tmp_path):
    """Two sessions take X locks on opposite shards in opposite order —
    a deadlock no single shard's waits-for graph can see.  The lock
    timeout (on the parked shard's clock) must break the cycle, the
    victim must retry, and both sessions must complete."""
    cluster = _mkcluster(tmp_path)
    seed = cluster.client()
    _write(seed, "/a/h", b"hot-a")
    _write(seed, "/b/h", b"hot-b")
    seed.close()
    for db in cluster.dbs:
        db.locks.timeout_s = 0.5   # sim seconds; keep the test quick

    def xlock(path):
        # open-write-close inside the open cluster transaction: the
        # write takes the file's exclusive lock until commit.
        return [Call("p_open", path, O_RDWR),
                Call("p_write", Ref(0), b"++"),
                Call("p_close", Ref(0))]

    def both(first, second):
        items = xlock(first)
        tail = [Call("p_open", second, O_RDWR),
                Call("p_write", Ref(3), b"--"),
                Call("p_close", Ref(3))]
        return [Txn(items + tail)]

    with ShardedScheduler(cluster, seed=3, max_retries=20) as sched:
        sched.add_session(both("/a/h", "/b/h"), name="ab", home=0)
        sched.add_session(both("/b/h", "/a/h"), name="ba", home=1)
        report = sched.run()
    assert all(r["state"] == "done" for r in report["sessions"])
    assert report["retries"] >= 1, "the cycle never formed"
    assert report["lock_parks"] >= 1
    cluster.close()


def test_victim_retry_preserves_effects_exactly_once(tmp_path):
    """After timeout-driven retries, each session's transaction must
    have applied exactly once (no doubled appends, no lost writes)."""
    cluster = _mkcluster(tmp_path)
    seed_client = cluster.client()
    _write(seed_client, "/a/h", b"")
    _write(seed_client, "/b/h", b"")
    seed_client.close()
    for db in cluster.dbs:
        db.locks.timeout_s = 0.5

    def writer(mark, first, second):
        def fn(client):
            for path in (first, second):
                fd = client.p_open(path, O_RDWR)
                client.p_write(fd, mark)
                client.p_close(fd)
        # one ClientOp per txn: the retry re-runs the whole function,
        # whose writes are at offset 0 — idempotent by construction.
        return [Txn([ClientOp(f"w{mark!r}", fn)])]

    with ShardedScheduler(cluster, seed=9, max_retries=20) as sched:
        sched.add_session(writer(b"A", "/a/h", "/b/h"), name="ab", home=0)
        sched.add_session(writer(b"B", "/b/h", "/a/h"), name="ba", home=1)
        report = sched.run()
    assert all(r["state"] == "done" for r in report["sessions"])
    check = cluster.client()
    for path in ("/a/h", "/b/h"):
        fd = check.p_open(path)
        assert check.p_read(fd, 1) in (b"A", b"B")
        check.p_close(fd)
    check.close()
    cluster.close()


def test_parked_waiter_times_out_at_its_deadline_not_a_sleepers_wake(
        tmp_path):
    """A waiter parked on shard 0 while the only other shard-0 session
    sleeps in backoff past the waiter's deadline: with nothing runnable
    the loop may advance shard 0's clock only to the deadline, so the
    waiter times out there — not at the sleeper's wake time."""
    cluster = _mkcluster(tmp_path)
    seed_client = cluster.client()
    _write(seed_client, "/a/x", b"x")
    seed_client.close()
    timeout = 0.5
    for db in cluster.dbs:
        db.locks.timeout_s = timeout
    # An unscheduled transaction holds /a/x's exclusive lock all run.
    holder = cluster.client()
    holder.p_begin()
    fd = holder.p_open("/a/x", O_RDWR)
    holder.p_write(fd, b"h")
    attempts = []

    def give_up_once(client):
        attempts.append(len(attempts))
        if len(attempts) == 1:
            raise LockTimeoutError("back off")

    backoff = 3.0
    with ShardedScheduler(cluster, seed=0, max_retries=1,
                          backoff_base=backoff, backoff_cap=backoff) as sched:
        sched.add_session([Txn([ClientOp("give up once", give_up_once)])],
                          name="sleeper", home=0)
        sched.add_session([Txn([Call("p_open", "/a/x", O_RDWR),
                                Call("p_write", Ref(0), b"w"),
                                Call("p_close", Ref(0))])],
                          name="waiter", home=0)
        report = sched.run(strict=False)
        trace = sched.trace
    holder.p_abort()
    holder.close()
    cluster.close()

    def times(kind, name):
        return [t for (t, _home, k, s, _d) in trace if k == kind and s == name]

    wake = times("retry", "sleeper")[0] + backoff
    park = times("park", "waiter")[0]
    victim = times("victim", "waiter")[0]
    assert park < wake, "the waiter parked after the sleeper woke"
    assert park + timeout < wake, "the deadline is not before the wake"
    assert victim == pytest.approx(park + timeout, abs=1e-9)
    assert [r["state"] for r in report["sessions"]] == ["done", "failed"]
