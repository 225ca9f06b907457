"""ROADMAP open item 4: the open-time-size lost update.

A FileHandle captures the file's size at open.  Before the fix, flush
published that captured size unconditionally, so a handle that stayed
open across another transaction's commit — including a ``write(b"")``
handle that never takes a chunk lock — could commit a stale, smaller
size and "shrink" the other writer's durable data.  The fix detects
the intervening commit via the per-file data version, re-merges any
buffered chunks whose written spans don't cover the committed extent,
and reconciles size against the current fileatt row under the write
lock.
"""

from __future__ import annotations

import pytest

from repro.core.constants import O_RDWR
from repro.core.filesystem import InversionFS
from repro.db.database import Database
from repro.sched import ClientOp, MultiUserScheduler, Txn
from repro.sim.clock import SimClock


@pytest.fixture
def fs(tmp_path):
    db = Database.create(str(tmp_path / "db"), clock=SimClock())
    try:
        yield InversionFS.mkfs(db)
    finally:
        db.close()


def _commit_file(fs, path, data):
    tx = fs.begin()
    fs.write_file(tx, path, data)
    fs.commit(tx)


def test_zero_length_write_does_not_shrink_concurrent_commit(fs):
    """write(b"") takes no chunk locks, so nothing serializes it
    against a concurrent writer — its flush must still not publish the
    stale open-time size over the larger committed one."""
    _commit_file(fs, "/f", b"a" * 1000)
    txb = fs.begin()
    handle = fs.open("/f", O_RDWR, tx=txb)
    assert handle.size == 1000
    # Another transaction commits a longer overwrite under the open
    # handle (legal: the empty writer holds no locks yet).
    _commit_file(fs, "/f", b"b" * 5000)
    handle.write(b"")
    handle.close()
    fs.commit(txb)
    assert fs.stat("/f").size == 5000
    assert fs.read_file("/f") == b"b" * 5000


def test_shorter_overwrite_reconciles_size_at_flush(fs):
    """A 100-byte overwrite committed after a concurrent 5000-byte one
    must land at size 5000 (write-at-zero never truncates), not at the
    open-time max(1000, 100)."""
    _commit_file(fs, "/f", b"a" * 1000)
    txb = fs.begin()
    handle = fs.open("/f", O_RDWR, tx=txb)
    _commit_file(fs, "/f", b"b" * 5000)
    handle.write(b"c" * 100)
    handle.close()
    fs.commit(txb)
    assert fs.stat("/f").size == 5000
    assert fs.read_file("/f") == b"c" * 100 + b"b" * 4900


def test_scheduler_interleaved_different_length_overwrites(fs):
    """Scheduler-driven version of the same race: two sessions
    overwrite one hot file with different lengths.  Whatever the
    commit order, the final state must be a prefix-overwrite of the
    longer committed content — never a truncation to the shorter
    writer's open-time size."""
    _commit_file(fs, "/hot", b"s" * 1000)
    fs.db.tm.flush_commits()
    from repro.core.server import InversionServer

    parked = 0
    for seed in range(6):
        server = InversionServer(fs)
        sched = MultiUserScheduler(server, seed=seed)
        try:
            sched.add_session(
                [Txn([ClientOp("long", lambda c: c.fs.write_file(
                    c.tx, "/hot", b"L" * 5000))], tag="long")], name="a")
            sched.add_session(
                [Txn([ClientOp("short", lambda c: c.fs.write_file(
                    c.tx, "/hot", b"S" * 100))], tag="short")], name="b")
            sched.run(strict=True)
        finally:
            sched.close()
        parked += sched.stats.lock_parks
        legal = {
            b"L" * 5000,                    # long committed last
            b"S" * 100 + b"L" * 4900,       # short committed last
        }
        assert fs.stat("/hot").size == 5000, f"seed {seed} lost the size"
        assert fs.read_file("/hot") in legal, f"seed {seed} torn content"
        # Re-seed a known full-length baseline for the next round
        # (write-at-zero never truncates, so size stays 5000).
        _commit_file(fs, "/hot", b"s" * 5000)
        fs.db.tm.flush_commits()
    assert parked > 0, "no seed ever contended; race never exercised"
