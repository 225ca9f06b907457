"""Crash-replay of the magnetic disk's allocation-map journal.

The allocation map used to be rewritten whole (``_alloc.json`` via
``os.replace``) at every save point: create, drop, rename, new extent
and flush.  It is now a checkpoint plus an append-only journal of those
save points.  The journal is sound only if, after a crash at any point,
reopening yields exactly the relations, extents, ``npages`` and
``_next_block`` the full rewrite would have left — so these tests run
every random operation sequence against :class:`FullMapDisk`, a
reference that keeps the full-rewrite behaviour, and compare the two
after a crash at every prefix:

* plain crash: the journal device reopens to the reference's reload;
* torn final journal record: equals a reference crash just before its
  last ``os.replace`` (the previous full map);
* both map files deleted: both take the rebuild-from-``.rel`` fallback;
* with every extend written before the crash, the reopened state also
  equals the in-memory state of a device that never crashed.

Sequences may also crash and reopen part-way, so the repairs a reopen
makes (and must save at the next save point) are covered too.
"""

from __future__ import annotations

import json
import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.db.page import PAGE_SIZE  # noqa: E402
from repro.devices.magnetic import (  # noqa: E402
    EXTENT_PAGES,
    JOURNAL_COMPACT_FACTOR,
    JOURNAL_MIN_RELATIONS,
    MagneticDisk,
)
from repro.sim.clock import SimClock  # noqa: E402

NAMES = ("r0", "r1", "r2")
TAGS = ("m0", "m1")


class FullMapDisk(MagneticDisk):
    """Reference: the whole map rewritten at every save point, keeping
    each written text so a crash before the last rewrite can be
    replayed."""

    def __init__(self, *args, **kwargs) -> None:
        self.history: list[str] = []
        super().__init__(*args, **kwargs)

    def _save_allocmap(self, op=None) -> None:
        data = {
            "next_block": self._next_block,
            "meta_slots": self._meta_slots,
            "relations": {name: {"npages": s.npages, "extents": s.extents}
                          for name, s in self._rels.items()},
        }
        text = json.dumps(data)
        with open(self._allocmap_path(), "w", encoding="utf-8") as f:
            f.write(text)
        self.history.append(text)

    def flush(self) -> None:
        for f in self._files.values():
            f.flush()
        self._save_allocmap()


def full_map_reload(directory: str, meta_region_blocks: int = 64):
    """The pre-journal loader: the full map, reconciled with the
    backing files, or a rebuild from the ``.rel`` files without one."""
    rels: dict[str, tuple[int, list[int]]] = {}
    next_block = meta_region_blocks
    meta: dict[str, int] = {}
    path = os.path.join(directory, "_alloc.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        next_block = data["next_block"]
        meta = data["meta_slots"]
        for name, info in data["relations"].items():
            npages, extents = info["npages"], list(info["extents"])
            relpath = os.path.join(directory, name + ".rel")
            if not os.path.exists(relpath):
                continue
            on_disk = os.path.getsize(relpath) // PAGE_SIZE
            while on_disk > npages:
                if len(extents) <= npages // EXTENT_PAGES:
                    extents.append(next_block)
                    next_block += EXTENT_PAGES
                npages += 1
            rels[name] = (npages, extents)
    else:
        for fname in sorted(os.listdir(directory)):
            if not fname.endswith(".rel"):
                continue
            npages = os.path.getsize(os.path.join(directory, fname)) // PAGE_SIZE
            extents = []
            for _ in range(0, max(npages, 1), EXTENT_PAGES):
                extents.append(next_block)
                next_block += EXTENT_PAGES
            rels[fname[:-4]] = (npages, extents)
    return list(rels.items()), next_block, meta


def state_of(dev: MagneticDisk):
    return ([(name, (s.npages, list(s.extents))) for name, s in dev._rels.items()],
            dev._next_block, dict(dev._meta_slots))


def run(dev: MagneticDisk, ops) -> MagneticDisk:
    """Apply ``ops``, skipping those invalid in the current state; a
    ``crash`` op reopens the device, so the result may be a new one."""
    page = bytes(PAGE_SIZE)
    for op in ops:
        kind = op[0]
        if kind == "crash":
            dev.simulate_crash()
            history = getattr(dev, "history", None)
            dev = type(dev)("m0", SimClock(), dev.directory)
            if history is not None:
                dev.history = history
            continue
        if kind == "create" and not dev.relation_exists(op[1]):
            dev.create_relation(op[1])
        elif kind == "drop" and dev.relation_exists(op[1]):
            dev.drop_relation(op[1])
        elif kind == "rename" and op[1] != op[2] and (
                dev.relation_exists(op[1]) or dev.relation_exists(op[2])):
            dev.rename_relation(op[1], op[2])
        elif kind == "extend" and dev.relation_exists(op[1]):
            for _ in range(op[2]):
                pageno = dev.extend(op[1])
                if op[3]:
                    dev.write_page(op[1], pageno, page)
        elif kind == "meta":
            dev.sync_write_meta(op[1], b"x")
        elif kind == "flush":
            dev.flush()
    return dev


name = st.sampled_from(NAMES)
OPS = st.lists(st.one_of(
    st.tuples(st.just("create"), name),
    st.tuples(st.just("drop"), name),
    st.tuples(st.just("rename"), name, name),
    # Page counts straddle extent boundaries; the flag says whether
    # each allocated page is also written to the backing file.
    st.tuples(st.just("extend"), name,
              st.sampled_from([1, 3, EXTENT_PAGES - 1, EXTENT_PAGES + 1]),
              st.booleans()),
    st.tuples(st.just("meta"), st.sampled_from(TAGS)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("crash")),
), min_size=1, max_size=12)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def _journal_records(directory: str) -> int:
    path = os.path.join(directory, "_alloc.jnl")
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as f:
        return len(f.read().splitlines()) - 1  # minus the header


def _tear_last_record(directory: str, keep: float) -> None:
    path = os.path.join(directory, "_alloc.jnl")
    with open(path, "rb") as f:
        raw = f.read()
    last = raw.splitlines(keepends=True)[-1]
    cut = 1 + int(keep * (len(last) - 1))  # drop 1..len(last) bytes
    os.truncate(path, len(raw) - cut)


def _crash_pair(tmp, ops, tag):
    jdir, fdir = str(tmp / f"j{tag}"), str(tmp / f"f{tag}")
    jdev = run(MagneticDisk("m0", SimClock(), jdir), ops)
    fdev = run(FullMapDisk("m0", SimClock(), fdir), ops)
    live = state_of(jdev)
    assert live == state_of(fdev)
    jdev.simulate_crash()
    fdev.simulate_crash()
    return jdir, fdir, fdev, live


@SETTINGS
@given(ops=OPS, keep=st.floats(0.0, 0.99))
def test_crash_after_every_prefix_replays_the_full_map(tmp_path_factory, ops,
                                                        keep):
    # Start from two relations so most generated operations apply.
    ops = [("create", NAMES[0]), ("create", NAMES[1])] + ops
    tmp = tmp_path_factory.mktemp("jnl")
    for k in range(1, len(ops) + 1):
        prefix = ops[:k]
        jdir, fdir, fdev, live = _crash_pair(tmp, prefix, k)
        reopened = state_of(MagneticDisk("m0", SimClock(), jdir))
        assert reopened == full_map_reload(fdir)
        written = not any(op[0] == "crash" or op[0] == "extend" and not op[3]
                          for op in prefix)
        if written:
            # Metadata slots are saved lazily, as before; only the
            # relation map is compared with the never-crashed device.
            assert reopened[:2] == live[:2]

        # A torn final journal record is a crash before the last
        # full-map rewrite.
        if _journal_records(jdir):
            jdir, fdir, fdev, _live = _crash_pair(tmp, prefix, f"t{k}")
            _tear_last_record(jdir, keep)
            mapfile = os.path.join(fdir, "_alloc.json")
            if len(fdev.history) >= 2:
                with open(mapfile, "w", encoding="utf-8") as f:
                    f.write(fdev.history[-2])
            else:
                os.remove(mapfile)
            assert state_of(MagneticDisk("m0", SimClock(), jdir)) \
                == full_map_reload(fdir)

    # Losing both the checkpoint and the journal takes the rebuild path.
    jdir, fdir, _fdev, _live = _crash_pair(tmp, ops, "x")
    for directory, names in ((jdir, ("_alloc.json", "_alloc.jnl")),
                             (fdir, ("_alloc.json",))):
        for fname in names:
            if os.path.exists(os.path.join(directory, fname)):
                os.remove(os.path.join(directory, fname))
    assert state_of(MagneticDisk("m0", SimClock(), jdir)) \
        == full_map_reload(fdir)


@pytest.mark.parametrize("save_point", [
    ("create", "r2"), ("drop", "r1"), ("rename", "r0", "r2"),
    ("rename", "r1", "r0"), ("extend", "r1", EXTENT_PAGES + 1, True),
    ("flush",), ("meta", "m0"),
], ids=lambda op: "-".join(map(str, op)))
def test_unwritten_pages_reach_the_next_save_point(tmp_path, save_point):
    """Pages allocated but never written are known only to the map: the
    next save point of any kind must record them, as the full rewrite
    did, even when that save point renames their relation."""
    ops = [("create", "r0"), ("create", "r1"), ("extend", "r0", 3, False),
           save_point]
    jdir, fdir, _fdev, _live = _crash_pair(tmp_path, ops, 0)
    assert state_of(MagneticDisk("m0", SimClock(), jdir)) \
        == full_map_reload(fdir)


@pytest.mark.parametrize("damage", ["maps-lost", "file-lost"])
def test_repairs_made_at_reopen_survive_the_next_crash(tmp_path, damage):
    """A reopen that rebuilt the map from the ``.rel`` files, or forgot
    a relation whose file is gone, must save that repaired map at the
    next save point, as the full rewrite did; replaying later records
    over the unrepaired map would lose or misplace relations."""
    ops = [("create", "r0"), ("create", "r1"), ("extend", "r0", 3, True),
           ("extend", "r1", 1, True)]
    jdir, fdir, fdev, _live = _crash_pair(tmp_path, ops, 0)
    for directory in (jdir, fdir):
        if damage == "maps-lost":
            doomed = ["_alloc.json", "_alloc.jnl"]
        else:
            doomed = ["r0.rel"]  # a drop that crashed before its record
        for fname in doomed:
            if os.path.exists(os.path.join(directory, fname)):
                os.remove(os.path.join(directory, fname))
    later = [("create", "r2"), ("create", "r0"), ("extend", "r0", 2, True)]
    jdev = run(MagneticDisk("m0", SimClock(), jdir), later)
    fdev = run(FullMapDisk("m0", SimClock(), fdir), later)
    jdev.simulate_crash()
    fdev.simulate_crash()
    assert state_of(MagneticDisk("m0", SimClock(), jdir)) \
        == full_map_reload(fdir)


def test_torn_record_is_cut_before_later_appends(tmp_path):
    path = str(tmp_path / "m0")
    dev = MagneticDisk("m0", SimClock(), path)
    dev.create_relation("a")
    dev.create_relation("b")
    dev.simulate_crash()
    _tear_last_record(path, 0.5)
    dev = MagneticDisk("m0", SimClock(), path)
    assert list(dev._rels) == ["a"]
    dev.create_relation("c")
    dev.simulate_crash()
    assert list(MagneticDisk("m0", SimClock(), path)._rels) == ["a", "c"]


def test_journal_compacts_at_a_constant_multiple(tmp_path):
    """Churn on a small live set: the journal never holds more than a
    constant multiple of the live relation count, so replay and
    checkpoint writes stay amortized O(1) per mutation."""
    path = str(tmp_path / "m0")
    dev = MagneticDisk("m0", SimClock(), path)
    names = [f"r{i}" for i in range(4)]
    peak = 0
    for i in range(400):
        name = names[i % len(names)]
        if dev.relation_exists(name):
            dev.drop_relation(name)
        dev.create_relation(name)
        peak = max(peak, dev._jcount)
    bound = JOURNAL_COMPACT_FACTOR * max(len(names), JOURNAL_MIN_RELATIONS)
    assert peak == bound
    assert dev._generation >= 1
    dev.simulate_crash()
    assert list(MagneticDisk("m0", SimClock(), path)._rels) == names


def test_flush_and_close_fold_the_journal_into_the_checkpoint(tmp_path):
    path = str(tmp_path / "m0")
    dev = MagneticDisk("m0", SimClock(), path)
    dev.create_relation("a")
    dev.extend("a")
    assert os.path.exists(os.path.join(path, "_alloc.jnl"))
    dev.flush()
    assert not os.path.exists(os.path.join(path, "_alloc.jnl"))
    dev.create_relation("b")
    dev.close()
    assert not os.path.exists(os.path.join(path, "_alloc.jnl"))
    with open(os.path.join(path, "_alloc.json"), encoding="utf-8") as f:
        data = json.load(f)
    assert list(data["relations"]) == ["a", "b"]
    assert data["relations"]["a"]["npages"] == 1
