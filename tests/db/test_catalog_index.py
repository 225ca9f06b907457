"""Differential test: indexed catalog lookups against sequential scans.

``lookup_table``, ``_indexes_for`` and ``remove_table_row`` find
``pg_class``/``pg_index`` rows through the catalog B-trees instead of
scanning the heaps.  They must return exactly what a scan would — the
first visible matching row in physical order, every visible index row
of a table — whatever mix of committed, aborted, in-progress and
crashed DDL the heaps hold.  The reference scans live in this file.
Every example ends with ``BTree.check_invariants()`` on both catalog
indexes.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.db.btree import BTree  # noqa: E402
from repro.db.catalog import _CATALOG_INDEXES, _CATALOGS  # noqa: E402
from repro.db.database import Database  # noqa: E402
from repro.db.snapshot import BootstrapSnapshot  # noqa: E402
from repro.db.tuples import Column, Schema  # noqa: E402

NAMES = ("t0", "t1", "t2")
SCHEMA = Schema([Column("a", "int4"), Column("b", "text")])


def scan_class_rows(catalog, name, snapshot):
    return [(tid, v) for tid, v in catalog._heap("pg_class").scan(snapshot)
            if v[1] == name]


def scan_index_rows(catalog, tableoid, snapshot):
    return [(tid, v) for tid, v in catalog._heap("pg_index").scan(snapshot)
            if v[2] == tableoid]


def check_against_scans(db, tx) -> None:
    catalog = db.catalog
    snapshots = [BootstrapSnapshot(db.tm)]
    if tx is not None:
        snapshots.append(db.snapshot(tx))
    names = NAMES + tuple(_CATALOGS) + ("missing",)
    for snapshot in snapshots:
        oids = set()
        for name in names:
            rows = scan_class_rows(catalog, name, snapshot)
            assert list(catalog._find("pg_class", name, snapshot)) == rows
            info = catalog.lookup_table(name, snapshot, use_cache=False)
            if not rows:
                assert info is None
                continue
            oid, relname, devname, relkind, _schema = rows[0][1]
            oids.add(oid)
            assert (info.oid, info.name, info.devname, info.relkind) == \
                (oid, relname, devname, relkind)
            assert [(ix.oid, ix.name) for ix in info.indexes] == \
                [(v[0], v[1]) for _t, v in scan_index_rows(catalog, oid,
                                                           snapshot)]
        for oid in oids | {999_999}:
            assert list(catalog._find("pg_index", oid, snapshot)) == \
                scan_index_rows(catalog, oid, snapshot)


OPS = st.lists(st.one_of(
    st.tuples(st.just("create"), st.sampled_from(NAMES), st.booleans()),
    st.tuples(st.just("drop"), st.sampled_from(NAMES)),
    st.tuples(st.just("index"), st.sampled_from(NAMES)),
    st.tuples(st.just("commit")),
    st.tuples(st.just("abort")),
    st.tuples(st.just("crash")),
), min_size=1, max_size=14)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ops=OPS)
def test_indexed_catalog_agrees_with_scans(tmp_path_factory, ops):
    path = str(tmp_path_factory.mktemp("catidx") / "db")
    db = Database.create(path)
    tx = None
    nindex = 0
    for op in ops:
        kind = op[0]
        if kind in ("create", "drop", "index"):
            tx = tx or db.begin()
            exists = bool(scan_class_rows(db.catalog, op[1], db.snapshot(tx)))
            if kind == "create" and not exists:
                db.create_table(tx, op[1], SCHEMA,
                                indexes=[("a",)] if op[2] else ())
            elif kind == "drop" and exists:
                # remove_table_row must delete the row a scan finds.
                tid = scan_class_rows(db.catalog, op[1], db.snapshot(tx))[0][0]
                db.drop_table(tx, op[1])
                assert db.catalog._heap("pg_class").fetch_raw(tid)[1] == tx.xid
            elif kind == "index" and exists:
                nindex += 1
                db.create_index(tx, op[1], ["b"], name=f"{op[1]}_b{nindex}")
        elif kind == "commit" and tx is not None:
            db.commit(tx)
            tx = None
        elif kind == "abort" and tx is not None:
            db.abort(tx)
            tx = None
        elif kind == "crash":
            db.simulate_crash()
            db = Database.open(path)
            tx = None
        check_against_scans(db, tx)
    for idxname, _oid, _col, _pos in _CATALOG_INDEXES.values():
        BTree(db.buffers, db.catalog.root_device, idxname).check_invariants()
    if tx is not None:
        db.abort(tx)
    db.close()


def test_catalog_indexes_are_registered(db):
    """The catalog indexes describe themselves in ``pg_index``, so a
    vacuum of a catalog rebuilds them like any other index."""
    snapshot = BootstrapSnapshot(db.tm)
    for catname, (idxname, oid, col, _pos) in _CATALOG_INDEXES.items():
        info = db.catalog.lookup_table(catname, snapshot)
        assert [(ix.oid, ix.name, ix.keycols) for ix in info.indexes] == \
            [(oid, idxname, (col,))]



def test_vacuumed_catalogs_keep_their_indexes(db):
    """Vacuum rewrites a catalog heap with new TIDs; the registered
    catalog index is rebuilt with it, so lookups still find every
    live table, before and after a crash."""
    for i in range(12):
        tx = db.begin()
        db.create_table(tx, f"t{i}", SCHEMA, indexes=[("a",)])
        db.commit(tx)
    for i in range(0, 12, 2):
        tx = db.begin()
        db.drop_table(tx, f"t{i}")
        db.commit(tx)
    assert db.vacuum("pg_class").archived == 6
    assert db.vacuum("pg_index").archived == 6
    for _ in range(2):
        snapshot = BootstrapSnapshot(db.tm)
        for i in range(12):
            info = db.catalog.lookup_table(f"t{i}", snapshot, use_cache=False)
            assert (info is not None) == (i % 2 == 1)
            if info is not None:
                assert [ix.name for ix in info.indexes] == [f"t{i}_a_idx"]
        check_against_scans(db, None)
        db.simulate_crash()
        db = Database.open(db.path)
    db.close()


def test_stale_entry_in_a_reused_slot_is_ignored(db):
    """A catalog index leaf can reach disk while the heap page its new
    entry points into is still dirty (LRU eviction, or a commit-time
    flush cut short by a crash).  After the crash the next catalog
    insert reuses that slot for another row.  The stale entry must not
    make lookups, existence checks or drops act on that other row."""
    path = db.path
    idxname = _CATALOG_INDEXES["pg_class"][0]
    tx = db.begin()
    db.create_table(tx, "doomed", SCHEMA)
    [stale] = db.catalog._index("pg_class").search("doomed")
    db.buffers.flush_relation(db.catalog.root_device, idxname)
    db.simulate_crash()

    db = Database.open(path)
    tx = db.begin()
    db.create_table(tx, "other", SCHEMA)
    db.commit(tx)
    [reused] = db.catalog._index("pg_class").search("other")
    assert reused == stale
    assert db.catalog._index("pg_class").search("doomed") == [stale]

    for snapshot in (BootstrapSnapshot(db.tm), db.snapshot(db.begin())):
        assert db.catalog.lookup_table("doomed", snapshot,
                                       use_cache=False) is None
        assert list(db.catalog._find("pg_class", "doomed", snapshot)) == []
    tx = db.begin()
    assert db.catalog.remove_table_row(tx, "doomed", db.snapshot(tx)) is None
    db.create_table(tx, "doomed", SCHEMA)
    db.commit(tx)
    snapshot = BootstrapSnapshot(db.tm)
    assert db.catalog.lookup_table("other", snapshot,
                                   use_cache=False).name == "other"
    assert db.catalog.lookup_table("doomed", snapshot,
                                   use_cache=False).name == "doomed"
    check_against_scans(db, None)
    db.close()


def test_flush_caches_keeps_the_catalog_indexes_resident(db):
    """The benchmark's cache flush drops every other page but keeps
    the resident catalog index pages, written back.  A cold table
    lookup then reads only the catalog heap pages, the pages the
    scans read before the catalogs were indexed."""
    tx = db.begin()
    db.create_table(tx, "t", SCHEMA, indexes=[("a",)])
    db.commit(tx)
    db.flush_caches()
    root = db.catalog.root_device
    for dev_name, idxname in db.catalog.index_relations():
        assert db.buffers.resident(dev_name, idxname, 0)
    assert not db.buffers.resident(root, "pg_class", 0)
    assert db.buffers.dirty_count() == 0
    disk = db.switch.get(root).disk
    reads = disk.stats.reads
    info = db.catalog.lookup_table("t", BootstrapSnapshot(db.tm))
    assert [ix.keycols for ix in info.indexes] == [("a",)]
    assert disk.stats.reads - reads == 2   # pg_class and pg_index page 0

    db.simulate_crash()
    db = Database.open(db.path)
    for dev_name, idxname in db.catalog.index_relations():
        assert not db.buffers.resident(dev_name, idxname, 0)
    db.close()
