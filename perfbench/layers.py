"""Per-layer metrics of a traced round.

Self times come from the tracer; counts and ratios come from the
program's own counters (buffer, transaction, lock, disk, shard and
scheduler statistics), read as deltas over the traced timed phase.
Every name in :data:`PER_LAYER` is reported on every workload; a layer
a workload does not reach reports 0.
"""

from __future__ import annotations

from perfbench.tracer import CPU_KINDS, LAYERS, ROOT

#: name -> unit, in report order.  ``<layer>.wall_self_s``,
#: ``<layer>.sim_self_s`` and ``<layer>.calls`` exist for every layer.
PER_LAYER: dict[str, str] = {}
for _layer in (*LAYERS, ROOT):
    PER_LAYER[f"{_layer}.wall_self_s"] = "s"
    PER_LAYER[f"{_layer}.sim_self_s"] = "s"
    PER_LAYER[f"{_layer}.calls"] = "count"
PER_LAYER.update({
    "devices.magnetic.create_relation_wall_s": "s",
    "devices.magnetic.flush_wall_s": "s",
    "devices.magnetic.open_fds": "count",
    "db.catalog.lookups": "count",
    "db.catalog.rows_per_lookup": "rows",
    "db.catalog.scan_wall_s": "s",
    "db.btree.descents_per_op": "count",
    "db.btree.fastpath_ratio": "ratio",
    "db.buffer.hit_ratio": "ratio",
    "db.buffer.prefetch_hit_ratio": "ratio",
    "db.buffer.evictions": "count",
    "core.chunks.chunks_written": "count",
    "db.heap.rows_inserted": "count",
    "sim.disk.seeks_per_op": "count",
    "sim.disk.sequential_ratio": "ratio",
    "sim.disk.write_amp": "ratio",
    "sim.network.messages_per_op": "count",
    "sim.network.bytes_per_op": "bytes",
    "core.server.dispatches": "count",
    **{f"sim.cpu.{kind}_s": "s" for kind in CPU_KINDS
       if kind not in ("query_row", "udf_call")},
    "db.transactions.status_forces": "count",
    "db.transactions.commits_per_force": "ratio",
    "db.locks.waits": "count",
    "db.locks.wait_sim_s": "s",
    "db.locks.deadlocks_timeouts": "count",
    "shard.cross_shard_txn_ratio": "ratio",
    "shard.cross_shard_messages_per_txn": "count",
    "shard.cluster.sync_wait_sim_s": "s",
    "shard.sched.context_switch_ratio": "ratio",
    "shard.sched.retries": "count",
    "shard.sched.max_ready_wait_s": "s",
    "bench.spans": "count",
    "bench.trace_overhead_ratio": "ratio",
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced, plain) -> dict:
    """name -> (value, unit) for every :data:`PER_LAYER` metric."""
    c = traced.counters
    x = traced.extra
    ops = max(1, traced.attempted)
    wall = tracer.wall_self_by_layer()
    sim = tracer.sim_self_by_layer()
    calls = tracer.calls_by_layer()
    values: dict[str, float] = {}
    for layer in (*LAYERS, ROOT):
        values[f"{layer}.wall_self_s"] = wall.get(layer, 0.0)
        values[f"{layer}.sim_self_s"] = sim.get(layer, 0.0)
        values[f"{layer}.calls"] = calls.get(layer, 0)

    def fid(qualname):
        return tracer.fid(f"repro.{qualname}")

    lookups = tracer.calls.get(fid("db.catalog.Catalog.lookup_table"), 0)
    scan = fid("db.heap.HeapFile.scan")

    def catalog_scans(table):
        return sum(v for (gen, consumer), v in table.items()
                   if gen == scan and tracer.layer_of(consumer) == "db.catalog")
    disk_ops = c["disk_reads"] + c["disk_writes"]
    buffer_refs = c["buffer_hits"] + c["buffer_misses"]
    txns = c.get("shard_single_shard_txns", 0) + c.get(
        "shard_cross_shard_txns", 0)
    values.update({
        "devices.magnetic.create_relation_wall_s": tracer.inclusive_wall(
            fid("devices.magnetic.MagneticDisk.create_relation")),
        "devices.magnetic.flush_wall_s": tracer.inclusive_wall(
            fid("devices.magnetic.MagneticDisk.flush")),
        "devices.magnetic.open_fds": traced.open_fds,
        "db.catalog.lookups": lookups,
        "db.catalog.rows_per_lookup": _ratio(catalog_scans(tracer.yields),
                                             lookups),
        "db.catalog.scan_wall_s": catalog_scans(tracer.gen_wall),
        "db.btree.descents_per_op": c["btree_descents"] / ops,
        "db.btree.fastpath_ratio": _ratio(c["btree_fastpath"],
                                          c["btree_descents"]),
        "db.buffer.hit_ratio": _ratio(c["buffer_hits"], buffer_refs),
        "db.buffer.prefetch_hit_ratio": _ratio(c["buffer_prefetch_hits"],
                                               c["buffer_prefetches"]),
        "db.buffer.evictions": c["buffer_evictions"],
        "core.chunks.chunks_written": c["chunks_written"],
        "db.heap.rows_inserted": c["heap_rows_inserted"],
        "sim.disk.seeks_per_op": c["disk_seeks"] / ops,
        "sim.disk.sequential_ratio": _ratio(c["disk_sequential_ops"],
                                            disk_ops),
        "sim.disk.write_amp": _ratio(c["disk_bytes_written"],
                                     traced.user_bytes_written),
        "sim.network.messages_per_op": c["net_messages"] / ops,
        "sim.network.bytes_per_op": c["net_bytes"] / ops,
        "core.server.dispatches": tracer.calls.get(
            fid("core.server.InversionServer.dispatch"), 0),
        "db.transactions.status_forces": c["tx_status_forces"],
        "db.transactions.commits_per_force": _ratio(c["tx_commits_recorded"],
                                                    c["tx_status_forces"]),
        "db.locks.waits": c["lock_waits"],
        "db.locks.wait_sim_s": c["lock_wait_s"],
        "db.locks.deadlocks_timeouts": c["lock_deadlocks"]
        + c["lock_timeouts"],
        "shard.cross_shard_txn_ratio": _ratio(
            c.get("shard_cross_shard_txns", 0), txns),
        "shard.cross_shard_messages_per_txn": _ratio(
            c.get("shard_cross_shard_messages", 0), txns),
        "shard.cluster.sync_wait_sim_s": tracer.sim_self_of(
            fid("shard.cluster.ShardedCluster.sync_clocks")),
        "shard.sched.context_switch_ratio": _ratio(
            x.get("sched_context_switches", 0), x.get("sched_slices", 0)),
        "shard.sched.retries": x.get("sched_retries", 0),
        "shard.sched.max_ready_wait_s": x.get("sched_max_ready_wait_s", 0.0),
        "bench.spans": tracer.span_count(),
        "bench.trace_overhead_ratio": _ratio(traced.wall_elapsed_s,
                                             plain.wall_elapsed_s),
    })
    for kind in CPU_KINDS:
        name = f"sim.cpu.{kind}_s"
        if name in PER_LAYER:
            values[name] = tracer.cpu[kind]
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}
