"""A PREPARED transaction must survive its session (satellite fix).

``InversionServer.disconnect`` aborts buffered transactions of a dying
session — correct for ordinary sessions, fatal for a 2PC participant:
its vote is durable, so its fate belongs to the coordinator's decision
log, not to local session teardown.  These are the regression tests
for the prepared-survives-disconnect carve-out."""

import pytest

from repro.core.filesystem import InversionFS
from repro.core.server import InversionServer
from repro.db.database import Database
from repro.db.transactions import PREPARED
from repro.errors import FileNotFoundError_


def _server(tmp_path):
    db = Database.create(str(tmp_path / "db"))
    fs = InversionFS.mkfs(db)
    return db, fs, InversionServer(fs)


def test_ordinary_disconnect_still_aborts(tmp_path):
    db, fs, server = _server(tmp_path)
    conn = server.connect()
    server.dispatch(conn, "p_begin")
    fd = server.dispatch(conn, "p_creat", "/f")
    server.dispatch(conn, "p_write", fd, b"data")
    server.dispatch(conn, "p_close", fd)
    server.disconnect(conn)
    with pytest.raises(FileNotFoundError_):
        fs.stat("/f")
    db.close()


def test_prepared_transaction_survives_disconnect(tmp_path):
    db, fs, server = _server(tmp_path)
    conn = server.connect()
    server.dispatch(conn, "p_begin")
    fd = server.dispatch(conn, "p_creat", "/f")
    server.dispatch(conn, "p_write", fd, b"promised")
    server.dispatch(conn, "p_close", fd)
    tx = server._sessions[conn]._tx
    xid = tx.xid
    server.dispatch(conn, "p_prepare", "0.99")
    assert tx.state == PREPARED

    server.disconnect(conn)

    # the vote is still on the books, not rolled back...
    assert db.tm.in_doubt() == {xid: "0.99"}
    assert not db.tm.is_committed(xid)
    # ...and the transaction still holds its locks (nobody may write
    # over an in-doubt participant's data).
    assert any(xid in db.locks.holders(r) for r in list(db.locks._locks))
    db.close()


def test_prepared_survives_disconnect_then_crash_and_commits(tmp_path):
    """The full in-doubt life cycle across a session death *and* a
    process death: disconnect, crash, reopen, then the (recovered)
    coordinator decision arrives as a commit."""
    db, fs, server = _server(tmp_path)
    conn = server.connect()
    server.dispatch(conn, "p_begin")
    fd = server.dispatch(conn, "p_creat", "/f")
    server.dispatch(conn, "p_write", fd, b"promised")
    server.dispatch(conn, "p_close", fd)
    xid = server._sessions[conn]._tx.xid
    server.dispatch(conn, "p_prepare", "0.42")
    server.disconnect(conn)
    db.simulate_crash()

    recovered = Database.open(str(tmp_path / "db"))
    assert recovered.tm.recovery_report()["in_doubt"] == 1
    assert recovered.tm.in_doubt() == {xid: "0.42"}
    recovered.tm.resolve_in_doubt(xid, commit=True)
    recovered_fs = InversionFS.attach(recovered)
    assert recovered_fs.read_file("/f") == b"promised"
    recovered.close()


def test_scheduler_teardown_keeps_prepared_transaction(tmp_path):
    """The multi-user scheduler's close() drains sessions through
    server.disconnect — a prepared participant must survive that drain
    exactly as it survives a lone disconnect."""
    from repro.sched.scheduler import MultiUserScheduler

    db, fs, server = _server(tmp_path)
    sched = MultiUserScheduler(server, seed=1)
    session = sched.add_session([], name="party")  # admitted, no work
    conn = session.client.conn
    server.dispatch(conn, "p_begin")
    fd = server.dispatch(conn, "p_creat", "/g")
    server.dispatch(conn, "p_write", fd, b"vote")
    server.dispatch(conn, "p_close", fd)
    xid = server._sessions[conn]._tx.xid
    server.dispatch(conn, "p_prepare", "1.7")
    sched.close()
    assert db.tm.in_doubt() == {xid: "1.7"}
    assert not db.tm.is_committed(xid)
    db.close()
