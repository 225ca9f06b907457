"""Observability is semantically invisible.

The contract the tentpole hangs on: registry mirrors, per-transaction
accounting, and even *enabled* tracing never advance the simulated
clock, never touch a device, and never shift a crash boundary.  These
tests pin it with the crash-schedule explorer (identical schedules,
zero violations, tracing on) and with byte-level comparison of a
workload's simulated costs with tracing on vs off.
"""

import pytest

from repro.core.filesystem import InversionFS
from repro.db.database import Database
from repro.sim.clock import SimClock
from repro.testkit import CrashScheduleExplorer
from repro.testkit.workload import (Workload, group_commit_workload,
                                    payload, write_heavy_workload)


class TracedWorkload(Workload):
    """The same workload, with tracing switched on for every run the
    explorer builds (profiling pass and each crash point)."""

    def setup(self, db, fs) -> None:
        super().setup(db, fs)
        db.obs.tracer.enable()


def traced(workload: Workload) -> TracedWorkload:
    return TracedWorkload(**vars(workload))


@pytest.mark.parametrize("factory", [write_heavy_workload,
                                     group_commit_workload],
                         ids=["write_heavy", "group_commit"])
def test_explorer_schedule_identical_with_tracing(tmp_path, factory):
    plain = CrashScheduleExplorer(
        str(tmp_path / "plain"), factory()).explore(max_points=15)
    assert plain.violations == [], "\n".join(
        f"point {v.point}: {v.detail}" for v in plain.violations)

    with_tracing = CrashScheduleExplorer(
        str(tmp_path / "traced"), traced(factory())).explore(max_points=15)
    assert with_tracing.violations == [], "\n".join(
        f"point {v.point}: {v.detail}" for v in with_tracing.violations)

    # Same durable-write trace → same crash points, point for point.
    assert with_tracing.total_writes == plain.total_writes
    assert with_tracing.points_tested == plain.points_tested


def _run_workload(workdir, trace: bool):
    """A small mixed workload; returns every simulated-cost observable:
    final sim time and the root device's full disk-stat vector."""
    clock = SimClock()
    db = Database.create(str(workdir), clock=clock)
    fs = InversionFS.mkfs(db)
    if trace:
        db.obs.tracer.enable()
    tx = fs.begin()
    fs.mkdir(tx, "/d")
    fs.write_file(tx, "/d/a", payload(0, "a", 60_000))
    fs.commit(tx)
    tx = fs.begin()
    fs.write_file(tx, "/d/b", payload(0, "b", 9_000))
    fs.commit(tx)
    db.buffers.invalidate_all()
    fs.read_file("/d/a")
    # Exercise the registry while the run is live — collection must
    # not perturb anything either.
    snapshot = db.obs.metrics.collect()
    assert snapshot["buffer.hits"] != {}
    root = db.switch.get(db.catalog.root_device)
    stats = vars(root.disk.stats).copy()
    spans = db.obs.tracer.spans_emitted
    now = clock.now()
    db.close()
    return now, stats, spans


def test_costs_byte_identical_with_tracing_enabled(tmp_path):
    plain_now, plain_stats, plain_spans = _run_workload(
        tmp_path / "plain", trace=False)
    traced_now, traced_stats, traced_spans = _run_workload(
        tmp_path / "traced", trace=True)
    assert plain_spans == 0
    assert traced_spans > 0                 # tracing actually ran
    assert traced_now == plain_now          # == , not approx: bit-identical
    assert traced_stats == plain_stats


def test_registry_reset_does_not_disturb_mirrors(tmp_path):
    """An explicit registry reset mid-run zeroes pushed series only;
    the mirrored simulation counters and costs are untouched."""
    clock = SimClock()
    db = Database.create(str(tmp_path / "d"), clock=clock)
    fs = InversionFS.mkfs(db)
    tx = fs.begin()
    fs.write_file(tx, "/f", payload(0, "f", 30_000))
    fs.commit(tx)
    before = db.obs.metrics.value("txn.commits_recorded")
    db.obs.metrics.reset()
    assert db.obs.metrics.value("txn.commits_recorded") == before
    assert db.obs.metrics.get("device.writes").total() == 0  # pushed: cleared
    db.close()


def _run_cluster(workdir, trace: bool):
    """A 2-shard scheduled workload with lock parks, timeout-driven
    retries and a 2PC commit; returns the scheduler trace hash, every
    shard's clock and disk stats, each shard's span events, and the
    fairness report."""
    from repro.core.constants import O_RDWR
    from repro.sched import Call, Ref, Txn
    from repro.shard import ShardedCluster, ShardedScheduler

    cluster = ShardedCluster.create(str(workdir), 2, policy="subtree",
                                    assignments={"a": 0, "b": 1})
    boot = cluster.client()
    for path in ("/a", "/b"):
        boot.p_mkdir(path)
    for path in ("/a/h", "/b/h"):
        fd = boot.p_creat(path)
        boot.p_write(fd, b"hot")
        boot.p_close(fd)
    boot.close()
    for db in cluster.dbs:
        db.locks.timeout_s = 0.5
        if trace:
            db.obs.tracer.enable()

    def xlock(path, base):
        return [Call("p_open", path, O_RDWR),
                Call("p_write", Ref(base), payload(base, path, 3000)),
                Call("p_close", Ref(base))]

    with ShardedScheduler(cluster, seed=3, max_retries=20) as sched:
        # opposite lock orders across shards: a cycle only the lock
        # timeout breaks, so sessions park and retry.
        sched.add_session([Txn(xlock("/a/h", 0) + xlock("/b/h", 3))],
                          name="ab", home=0)
        sched.add_session([Txn(xlock("/b/h", 0) + xlock("/a/h", 3))],
                          name="ba", home=1)
        for i in range(2):
            # one file on each shard in one transaction: a 2PC commit.
            sched.add_session([Txn([Call("p_creat", f"/a/w{i}"),
                                    Call("p_write", Ref(0), b"w" * 900),
                                    Call("p_close", Ref(0)),
                                    Call("p_creat", f"/b/w{i}"),
                                    Call("p_write", Ref(3), b"v" * 900),
                                    Call("p_close", Ref(3))])],
                              name=f"w{i}", home=i)
        report = sched.run()
        trace_hash = sched.trace_hash()
    events = []
    for db in cluster.dbs:
        events.append(list(db.obs.tracer.events()))
        db.obs.tracer.disable()
    clocks = [db.clock.now() for db in cluster.dbs]
    stats = [vars(db.switch.get(db.switch.default_name).disk.stats).copy()
             for db in cluster.dbs]
    cross = cluster.stats.cross_shard_txns
    cluster.close()
    return trace_hash, clocks, stats, events, report, cross


def test_cluster_scheduler_tracing_is_invisible_and_per_session(tmp_path):
    plain = _run_cluster(tmp_path / "plain", trace=False)
    traced = _run_cluster(tmp_path / "traced", trace=True)
    hash_p, clocks_p, stats_p, events_p, report, cross = plain
    hash_t, clocks_t, stats_t, events_t, _, _ = traced
    assert report["lock_parks"] > 0 and report["retries"] > 0
    assert cross > 0                        # a 2PC commit ran
    assert events_p == [[], []]
    assert all(events_t)                    # tracing ran on both shards
    assert hash_t == hash_p
    assert clocks_t == clocks_p             # == , not approx
    assert stats_t == stats_p

    # Each session's spans form their own trees: every slice is a root
    # (a slice run while another session was parked is not nested
    # under that session's park span), every other span descends from
    # one slice, and each server connection serves one session only.
    names = {row["name"] for row in report["sessions"]}
    for events in events_t:
        by_id = {e["span"]: e for e in events}
        owner_of_conn = {}
        for event in events:
            root = event
            while root["parent"] is not None:
                root = by_id[root["parent"]]
            assert root["name"] == "sched.slice", event
            if event["name"] == "sched.slice":
                assert event["parent"] is None
            assert root["session"] in names
            if event["name"] == "rpc.dispatch":
                owner = owner_of_conn.setdefault(event["session"],
                                                 root["session"])
                assert owner == root["session"], event
