"""Namespace scaling gate: a create costs the same at any directory size.

Every Inversion file is two relations, so a create is DDL: a catalog
existence check, ``pg_class``/``pg_index`` inserts and two
``create_relation`` calls on the magnetic disk.  With indexed catalogs
and the allocation-map journal, none of that work depends on how many
files exist.  The gate compares deterministic counts — catalog heap
rows unpacked and allocation-map records, checkpoints and bytes written
— for one create early in a directory's life and one much later, on
the client/server stack.  No wall time is measured.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.harness import build_inversion_cs
from repro.db import database as database_mod
from repro.db import heap as heap_mod
from repro.db.catalog import _CATALOGS
from repro.devices.magnetic import MagneticDisk
from repro.sim.disk import RZ58

#: Records name relations and carry page counts and block addresses in
#: decimal, so a later create's records may be a few characters wider
#: (a five-digit file id where an early one has four, a six-digit block
#: address where an early one has five) — never a whole map.
DIGIT_SLACK = 16


@pytest.fixture
def catalog_rows(monkeypatch):
    """Count catalog heap rows unpacked (visible rows fetched or
    scanned), whichever access path a lookup takes."""
    count = [0]
    fetch, scan = heap_mod.HeapFile.fetch, heap_mod.HeapFile.scan

    def counting_fetch(self, tid, snapshot):
        row = fetch(self, tid, snapshot)
        if row is not None and self.relname in _CATALOGS:
            count[0] += 1
        return row

    def counting_scan(self, snapshot):
        for item in scan(self, snapshot):
            if self.relname in _CATALOGS:
                count[0] += 1
            yield item

    monkeypatch.setattr(heap_mod.HeapFile, "fetch", counting_fetch)
    monkeypatch.setattr(heap_mod.HeapFile, "scan", counting_scan)
    return count


def per_create_costs(catalog_rows, probes: tuple[int, ...]) -> dict:
    """Create ``max(probes)`` files in one directory, one transaction
    each; return the counts spent by each probed create (1-based)."""
    built = build_inversion_cs()
    try:
        client = built.adapter.client
        stats = built.adapter.db.switch.get("magnetic0").stats
        client.p_mkdir("/d")
        costs = {}
        for n in range(1, max(probes) + 1):
            before = (catalog_rows[0], stats.records, stats.checkpoints,
                      stats.bytes_written)
            fd = client.p_creat(f"/d/f{n:07d}")
            client.p_write(fd, b"x" * 64)
            client.p_close(fd)
            if n in probes:
                after = (catalog_rows[0], stats.records, stats.checkpoints,
                         stats.bytes_written)
                costs[n] = [b - a for a, b in zip(before, after)]
        return costs
    finally:
        built.cleanup()


def assert_same_cost(early, late) -> None:
    rows, records, checkpoints, nbytes = early
    assert late[:3] == [rows, records, checkpoints]
    assert rows > 0 and records > 0 and checkpoints == 0
    assert nbytes <= late[3] <= nbytes + DIGIT_SLACK


def test_create_cost_is_flat_from_64_to_1024_files(catalog_rows):
    costs = per_create_costs(catalog_rows, (64, 1024))
    assert_same_cost(costs[64], costs[1024])


class _EightRZ58s(MagneticDisk):
    """Every relation starts with a 64-page extent, so one file takes
    1 MB of the 1.38 GB RZ58 and about 1,300 files fill it; the 8k-file
    run needs a drive eight times larger.  Only seek distances change;
    the gate's counts do not depend on the geometry."""

    def __init__(self, name, clock, directory, **kwargs):
        kwargs.setdefault("geometry", dataclasses.replace(
            RZ58, capacity_bytes=8 * RZ58.capacity_bytes))
        super().__init__(name, clock, directory, **kwargs)


@pytest.mark.torture
def test_create_cost_is_flat_from_1k_to_8k_files(catalog_rows, monkeypatch):
    monkeypatch.setattr(database_mod, "MagneticDisk", _EightRZ58s)
    costs = per_create_costs(catalog_rows, (1024, 8192))
    assert_same_cost(costs[1024], costs[8192])
