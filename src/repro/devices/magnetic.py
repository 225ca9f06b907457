"""Magnetic disk device manager.

"In the current system, the magnetic disk device manager uses the
underlying UNIX file system to store data" — and therefore inherits the
FFS cylinder-group layout policy, under which "data for a single file
are kept close together".  The manager reproduces that policy in its
cost model: each relation's pages are allocated in contiguous
*extents* carved from a device-wide cursor, so pages within one
relation are (mostly) physically sequential while two relations growing
at the same time land in alternating regions of the disk.  That is
exactly the layout that makes Inversion's file creation slow (B-tree
and heap writes bounce the head between regions — Figure 3) while its
sequential reads stay fast (Table 3).

Pages are persisted in one real file per relation, so databases survive
process restarts; simulated I/O cost is charged against a
:class:`~repro.sim.disk.DiskModel` at the allocated block addresses.

Block address 0 up to ``meta_region_blocks`` is reserved for small
metadata blobs — the transaction status file lives there, which is why
every commit seeks to the front of the disk.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass

from repro.db.page import PAGE_SIZE
from repro.devices.base import DeviceManager
from repro.errors import DeviceError, DeviceFullError
from repro.obs.registry import MetricSpec
from repro.sim.clock import SimClock
from repro.sim.disk import DiskGeometry, DiskModel, RZ58

EXTENT_PAGES = 64
"""Pages per allocation extent — the contiguity unit (an FFS-style
cylinder-group chunk)."""

MAX_OPEN_FILES = 1024
"""Host file handles kept open at once (least recently used closed
first) — every Inversion file is two relations, so an unbounded handle
table would hit the process's descriptor limit long before the
namespace stops growing."""

JOURNAL_COMPACT_FACTOR = 8
JOURNAL_MIN_RELATIONS = 64
"""The allocation-map journal is folded into a fresh checkpoint once it
holds more than ``JOURNAL_COMPACT_FACTOR * max(live relations,
JOURNAL_MIN_RELATIONS)`` records, so the O(N) checkpoint write is
amortized over O(N) O(1) appends."""


METRICS = (
    MetricSpec("allocmap.records", "counter", "records",
               "Allocation-map journal records appended: one per save "
               "point (relation create, drop or rename, new extent).",
               "repro.devices.magnetic", ("device",)),
    MetricSpec("allocmap.checkpoints", "counter", "writes",
               "Whole allocation-map checkpoints written (flush, close, "
               "journal compaction, first save after a crash repair).",
               "repro.devices.magnetic", ("device",)),
    MetricSpec("allocmap.bytes_written", "counter", "bytes",
               "Host bytes written to the allocation map: journal "
               "records plus checkpoints.",
               "repro.devices.magnetic", ("device",)),
)


@dataclass
class MagneticStats:
    records: int = 0
    checkpoints: int = 0
    bytes_written: int = 0


@dataclass
class _RelState:
    npages: int
    extents: list[int]  # starting block address of each extent


class MagneticDisk(DeviceManager):
    """File-backed magnetic disk with an RZ58-calibrated cost model."""

    nonvolatile = False

    def __init__(self, name: str, clock: SimClock, directory: str,
                 geometry: DiskGeometry = RZ58,
                 meta_region_blocks: int = 64) -> None:
        self.name = name
        self.clock = clock
        self.directory = directory
        self.disk = DiskModel(clock=clock, geometry=geometry)
        self.meta_region_blocks = meta_region_blocks
        self.stats = MagneticStats()
        os.makedirs(directory, exist_ok=True)
        self._files: OrderedDict[str, object] = OrderedDict()
        self._rels: dict[str, _RelState] = {}
        self._next_block = meta_region_blocks
        self._meta_slots: dict[str, int] = {}
        # Allocation-map journal state: relations whose npages changed
        # and metadata slots assigned since the last save point.
        self._dirty: dict[str, None] = {}
        self._new_meta: dict[str, int] = {}
        self._generation = 0
        self._journal = None
        self._jcount = 0
        self._compact_pending = False
        self._load_allocmap()

    # -- allocation map persistence -------------------------------------
    #
    # ``_alloc.json`` is a checkpoint of the whole map; ``_alloc.jnl``
    # holds the mutations made since, one JSON line per *save point*
    # (create, drop, rename, new extent, flush).  A save point is where
    # the map used to be rewritten whole, so each record carries the
    # mutation plus every relation's ``npages`` that changed since the
    # previous save point: replaying the journal over the checkpoint
    # yields exactly the map a full rewrite at the last complete record
    # would have left.  The journal's first line names the checkpoint
    # generation it extends; compaction writes generation g+1 with
    # ``os.replace`` before discarding the journal, so a crash between
    # the two leaves a stale journal that the header rejects.

    def _allocmap_path(self) -> str:
        return os.path.join(self.directory, "_alloc.json")

    def _journal_path(self) -> str:
        return os.path.join(self.directory, "_alloc.jnl")

    def _load_allocmap(self) -> None:
        path = self._allocmap_path()
        data = None
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
            self._generation = data.get("generation", 0)
        records = self._read_journal()
        if data is None and not records:
            self._rebuild_allocmap()
            return
        if data is not None:
            self._next_block = data["next_block"]
            self._meta_slots = data.get("meta_slots", {})
            self._rels = {name: _RelState(info["npages"], info["extents"])
                          for name, info in data["relations"].items()}
        for rec in records or ():
            self._replay(rec)
        for relname in list(self._rels):
            st = self._rels[relname]
            # The map is written lazily; after a crash the backing
            # file is the truth about how far the relation grew.
            relpath = self._relpath(relname)
            if not os.path.exists(relpath):
                # create_relation makes the backing file before the
                # map entry, so a mapped relation with no file means
                # a drop/rename crashed mid-way: forget the entry.
                del self._rels[relname]
                self._compact_pending = True
                continue
            on_disk = os.path.getsize(relpath) // PAGE_SIZE
            while on_disk > st.npages:
                if len(st.extents) <= st.npages // EXTENT_PAGES:
                    st.extents.append(self._next_block)
                    self._next_block += EXTENT_PAGES
                    self._compact_pending = True
                st.npages += 1

    def _rebuild_allocmap(self) -> None:
        """Rebuild from .rel files if the map is missing (stale-map
        crash path): assign fresh sequential extents; only the cost
        model is affected, never the data."""
        for fname in sorted(os.listdir(self.directory)):
            if not fname.endswith(".rel"):
                continue
            relname = fname[:-4]
            size = os.path.getsize(os.path.join(self.directory, fname))
            npages = size // PAGE_SIZE
            extents = []
            for _ in range(0, max(npages, 1), EXTENT_PAGES):
                extents.append(self._next_block)
                self._next_block += EXTENT_PAGES
            self._rels[relname] = _RelState(npages, extents)
        self._compact_pending = bool(self._rels)

    def _read_journal(self) -> list | None:
        """The complete records of a journal that extends the current
        checkpoint, or None if there is none.  A torn final record (a
        crash mid-append) is cut off so later appends start clean."""
        path = self._journal_path()
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except FileNotFoundError:
            return None
        records = []
        good = 0
        for line in raw.splitlines(keepends=True):
            try:
                if not line.endswith(b"\n"):
                    raise ValueError("torn record")
                rec = json.loads(line)
            except ValueError:
                break
            records.append(rec)
            good += len(line)
        if not records or records[0].get("base") != self._generation:
            os.remove(path)  # torn header, or folded into the checkpoint
            return None
        if good < len(raw):
            os.truncate(path, good)
        self._jcount = len(records) - 1
        return records[1:]

    def _replay(self, rec: dict) -> None:
        op = rec["op"]
        kind = op[0]
        if kind == "c":
            self._rels[op[1]] = _RelState(0, [])
        elif kind == "d":
            self._rels.pop(op[1], None)
        elif kind == "r":
            self._rels[op[2]] = self._rels.pop(op[1])
        elif kind == "x":
            self._rels[op[1]].extents.append(op[2])
            self._next_block = op[2] + EXTENT_PAGES
        for name, npages in rec.get("npages", {}).items():
            self._rels[name].npages = npages
        self._meta_slots.update(rec.get("meta", {}))

    def _save_allocmap(self, op: list) -> None:
        """Record one save point: append ``op`` and the pending
        ``npages``/metadata-slot changes to the journal, compacting it
        into a fresh checkpoint once it outgrows the live map."""
        if self._compact_pending:
            self._compact()
            return
        rec: dict = {"op": op}
        if self._dirty:
            rels = self._rels
            rec["npages"] = {name: rels[name].npages
                             for name in self._dirty if name in rels}
            self._dirty.clear()
        if self._new_meta:
            rec["meta"] = self._new_meta
            self._new_meta = {}
        line = json.dumps(rec, separators=(",", ":")) + "\n"
        if self._journal is None:
            self._journal = open(self._journal_path(), "a", encoding="utf-8")
            if self._journal.tell() == 0:
                line = json.dumps({"base": self._generation}) + "\n" + line
        self._journal.write(line)
        self._journal.flush()
        self._jcount += 1
        self.stats.records += 1
        self.stats.bytes_written += len(line)
        if self._jcount > JOURNAL_COMPACT_FACTOR * max(len(self._rels),
                                                       JOURNAL_MIN_RELATIONS):
            self._compact()

    def _compact(self) -> None:
        """Write the whole map as checkpoint generation g+1, then
        discard the journal it subsumes."""
        self._generation += 1
        data = {
            "generation": self._generation,
            "next_block": self._next_block,
            "meta_slots": self._meta_slots,
            "relations": {
                name: {"npages": st.npages, "extents": st.extents}
                for name, st in self._rels.items()
            },
        }
        text = json.dumps(data)
        tmp = self._allocmap_path() + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, self._allocmap_path())
        self.stats.checkpoints += 1
        self.stats.bytes_written += len(text)
        self._close_journal()
        if os.path.exists(self._journal_path()):
            os.remove(self._journal_path())
        self._jcount = 0
        self._dirty.clear()
        self._new_meta = {}
        self._compact_pending = False

    def _close_journal(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # -- relation files ---------------------------------------------------

    def _relpath(self, relname: str) -> str:
        return os.path.join(self.directory, relname + ".rel")

    def _file(self, relname: str):
        files = self._files
        f = files.get(relname)
        if f is None:
            path = self._relpath(relname)
            mode = "r+b" if os.path.exists(path) else "w+b"
            f = open(path, mode)
            files[relname] = f
            if len(files) > MAX_OPEN_FILES:
                files.popitem(last=False)[1].close()
        else:
            files.move_to_end(relname)
        return f

    def _state(self, relname: str) -> _RelState:
        try:
            return self._rels[relname]
        except KeyError:
            raise DeviceError(f"no relation {relname!r} on {self.name}") from None

    def _block_of(self, st: _RelState, pageno: int) -> int:
        return st.extents[pageno // EXTENT_PAGES] + (pageno % EXTENT_PAGES)

    # -- DeviceManager interface -----------------------------------------

    def create_relation(self, relname: str) -> None:
        self._validate_relname(relname)
        if relname in self._rels:
            raise DeviceError(f"relation {relname!r} already exists on {self.name}")
        self._rels[relname] = _RelState(0, [])
        self._file(relname)  # create the backing file now
        self._save_allocmap(["c", relname])

    def drop_relation(self, relname: str) -> None:
        st = self._rels.pop(relname, None)
        if st is None:
            raise DeviceError(f"no relation {relname!r} on {self.name}")
        f = self._files.pop(relname, None)
        if f is not None:
            f.close()
        path = self._relpath(relname)
        if os.path.exists(path):
            os.remove(path)
        self._save_allocmap(["d", relname])

    def rename_relation(self, src: str, dst: str) -> None:
        """Atomic swap via ``os.replace`` on the backing files.  After a
        crash either the old or the new contents of ``dst`` are present,
        never a mixture."""
        self._validate_relname(dst)
        st = self._rels.get(src)
        if st is None or not os.path.exists(self._relpath(src)):
            if dst in self._rels or os.path.exists(self._relpath(dst)):
                self._rels.pop(src, None)
                self._save_allocmap(["d", src])
                return
            raise DeviceError(f"no relation {src!r} on {self.name}")
        for name in (src, dst):
            f = self._files.pop(name, None)
            if f is not None:
                f.close()
        os.replace(self._relpath(src), self._relpath(dst))
        del self._rels[src]
        self._rels[dst] = st
        if src in self._dirty:
            self._dirty[dst] = None
        self._save_allocmap(["r", src, dst])

    def relation_exists(self, relname: str) -> bool:
        return relname in self._rels

    def list_relations(self) -> list[str]:
        return list(self._rels)

    def nblocks(self, relname: str) -> int:
        return self._state(relname).npages

    def extend(self, relname: str) -> int:
        st = self._state(relname)
        if st.npages % EXTENT_PAGES == 0:
            # Need a new extent.
            if self._next_block + EXTENT_PAGES > self.disk.geometry.total_blocks:
                raise DeviceFullError(f"device {self.name} is full")
            st.extents.append(self._next_block)
            self._next_block += EXTENT_PAGES
            self._save_allocmap(["x", relname, st.extents[-1]])
        pageno = st.npages
        st.npages += 1
        self._dirty[relname] = None
        return pageno

    def read_page(self, relname: str, pageno: int) -> bytes:
        st = self._state(relname)
        if not (0 <= pageno < st.npages):
            raise DeviceError(f"{relname!r} page {pageno} out of range ({st.npages})")
        self.disk.read_block(self._block_of(st, pageno))
        f = self._file(relname)
        f.seek(pageno * PAGE_SIZE)
        data = f.read(PAGE_SIZE)
        if len(data) < PAGE_SIZE:
            # Allocated but never written: zero page.
            data = data + bytes(PAGE_SIZE - len(data))
        return data

    def read_pages(self, relname: str, start: int, count: int) -> list[bytes]:
        """Batched sequential read: pages that are physically contiguous
        on the simulated medium (within one extent, or across adjacent
        extents) are charged as a single positioning plus one contiguous
        transfer — the fast path that makes read-ahead cheaper than
        ``count`` independent ``read_page`` calls."""
        if count < 0:
            raise ValueError(f"negative page count {count}")
        if count == 0:
            return []
        st = self._state(relname)
        if not (0 <= start and start + count <= st.npages):
            raise DeviceError(
                f"{relname!r} pages [{start}, {start + count}) out of range ({st.npages})")
        # Group the page run into physically contiguous block runs.
        run_blk = self._block_of(st, start)
        run_len = 1
        for i in range(1, count):
            blk = self._block_of(st, start + i)
            if blk == run_blk + run_len:
                run_len += 1
            else:
                self.disk.read_blocks(run_blk, run_len)
                run_blk, run_len = blk, 1
        self.disk.read_blocks(run_blk, run_len)
        f = self._file(relname)
        f.seek(start * PAGE_SIZE)
        raw = f.read(count * PAGE_SIZE)
        if len(raw) < count * PAGE_SIZE:
            # Tail pages allocated but never written: zero-fill.
            raw = raw + bytes(count * PAGE_SIZE - len(raw))
        return [raw[i * PAGE_SIZE:(i + 1) * PAGE_SIZE] for i in range(count)]

    def write_page(self, relname: str, pageno: int, data: bytes) -> None:
        self._check_page(data)
        st = self._state(relname)
        if not (0 <= pageno < st.npages):
            raise DeviceError(f"{relname!r} page {pageno} out of range ({st.npages})")
        self.disk.write_block(self._block_of(st, pageno))
        f = self._file(relname)
        f.seek(pageno * PAGE_SIZE)
        f.write(data)

    def write_pages(self, relname: str, start: int,
                    datas: list[bytes]) -> None:
        """Batched sequential write: pages that are physically contiguous
        on the simulated medium are charged as a single positioning plus
        one contiguous transfer — the gathered write-behind that makes a
        coalesced commit-time flush cheaper than ``len(datas)``
        independent ``write_page`` calls."""
        count = len(datas)
        if count == 0:
            return
        for data in datas:
            self._check_page(data)
        st = self._state(relname)
        if not (0 <= start and start + count <= st.npages):
            raise DeviceError(
                f"{relname!r} pages [{start}, {start + count}) out of range ({st.npages})")
        run_blk = self._block_of(st, start)
        run_len = 1
        for i in range(1, count):
            blk = self._block_of(st, start + i)
            if blk == run_blk + run_len:
                run_len += 1
            else:
                self.disk.write_blocks(run_blk, run_len)
                run_blk, run_len = blk, 1
        self.disk.write_blocks(run_blk, run_len)
        f = self._file(relname)
        f.seek(start * PAGE_SIZE)
        f.write(b"".join(datas))

    # -- durability --------------------------------------------------------

    def flush(self) -> None:
        self.disk.flush()
        for f in self._files.values():
            f.flush()
        # The first flush writes a checkpoint even with nothing changed,
        # as the full rewrite did: once a map exists, a later crash
        # never takes the rebuild-from-.rel path.
        if self._jcount or self._dirty or self._new_meta \
                or self._compact_pending or not self._generation:
            self._compact()

    def _meta_slot(self, tag: str) -> int:
        slot = self._meta_slots.get(tag)
        if slot is None:
            slot = len(self._meta_slots) % self.meta_region_blocks
            self._meta_slots[tag] = self._new_meta[tag] = slot
        return slot

    def _meta_path(self, tag: str) -> str:
        return os.path.join(self.directory, tag + ".meta")

    def sync_write_meta(self, tag: str, data: bytes) -> None:
        # Small metadata blobs live in the reserved region at the front
        # of the disk; writing one seeks the head there and forces the
        # write — this is the per-commit cost of the status file.
        slot = self._meta_slot(tag)
        nbytes = max(512, min(len(data), PAGE_SIZE))
        self.disk.write_block(slot, nbytes)
        self.disk.flush()
        tmp = self._meta_path(tag) + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, self._meta_path(tag))

    def sync_append_meta(self, tag: str, data: bytes) -> None:
        # A true append: one forced block write in the metadata region.
        slot = self._meta_slot(tag)
        self.disk.write_block(slot, max(512, min(len(data), PAGE_SIZE)))
        self.disk.flush()
        with open(self._meta_path(tag), "ab") as f:
            f.write(data)

    def read_meta(self, tag: str) -> bytes | None:
        path = self._meta_path(tag)
        if not os.path.exists(path):
            return None
        slot = self._meta_slots.get(tag, 0)
        size = os.path.getsize(path)
        self.disk.read_block(slot, max(512, min(size, PAGE_SIZE)))
        with open(path, "rb") as f:
            return f.read()

    def meta_tags(self) -> list[str]:
        # Scan the backing directory rather than ``_meta_slots``: the
        # slot map only learns a tag when it is written this session,
        # while a base backup must see every blob on the medium.
        return sorted(fname[:-len(".meta")]
                      for fname in os.listdir(self.directory)
                      if fname.endswith(".meta"))

    def close(self) -> None:
        self.flush()
        for f in self._files.values():
            f.close()
        self._files.clear()
        self._close_journal()

    def simulate_crash(self) -> None:
        """Writes already issued through write_page are on the medium;
        only OS-level file handles are volatile."""
        for f in self._files.values():
            f.flush()  # the bytes were "on disk" the moment we charged them
            f.close()
        self._files.clear()
        self._close_journal()
