"""The multi-user scale experiment (BENCH_multiuser.json).

The paper positions Inversion as a shared server ("a standard database
two-phase locking protocol allows concurrent access to files"), but
every Table 3 number is a single client.  This benchmark measures what
N concurrent client sessions do to the write path, driving them
through the deterministic multi-session scheduler (:mod:`repro.sched`)
on one simulated clock:

- **disjoint-file scaling** — N clients each committing small writes
  to their own pre-created file.  The locks never conflict; what
  scales is the *commit machinery*: the scheduler's commit clustering
  (writes run first, then the gated commits drain back-to-back) means
  the burst's first ``flush_all`` sweeps every session's dirty pages
  in one sorted pass — the later committers find their pages already
  clean, the shared file-attribute heap and index pages are written
  once per burst instead of once per transaction, the batched commit
  records share one status force, and the disk head stops
  ping-ponging between the data region and the status area once per
  transaction;
- **hot-file contention** — the same shape plus every transaction
  also rewriting one shared file, serializing on its exclusive
  chunk-table lock.  This exercises the scheduler's park/unpark path
  and the fairness guard; the interesting outputs are the wait
  profile (``lock.waits``, wait-second extremes, per-session max park)
  and the bounded-starvation verdict, not throughput.

Every number is read from the simulated clock and the metrics
registry, and the scheduler is seeded, so the JSON is byte-identical
across runs — CI asserts both the scaling floor and determinism (two
seeded runs must produce identical event-trace hashes).

Run directly::

    PYTHONPATH=src python -m repro.bench.multiuser [output.json]
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

from repro.core.filesystem import InversionFS
from repro.core.library import InversionClient
from repro.core.server import InversionServer
from repro.db.database import Database
from repro.sched import ClientOp, MultiUserScheduler, Txn

#: client counts swept by the scaling curve.
CLIENT_COUNTS = (1, 2, 4, 8)

#: committing transactions per client (every configuration does the
#: same per-client work, so throughput comparisons are fair).
TXNS_PER_CLIENT = 8

#: bytes written per transaction to the client's own file.
WRITE_BYTES = 8000

#: bytes written per transaction to the shared hot file.
HOT_BYTES = 2000

#: group-commit window (simulated seconds).  Chosen between the
#: commit-cluster spacing and a single client's inter-commit time: one
#: client's next commit arrives after the window has expired (≈ one
#: force per commit, the paper's behaviour), while interleaved clients
#: commit close enough together that their records batch into shared
#: forces.
GROUP_WINDOW = 0.05

SCHED_SEED = 0


def _payload(tag: str, size: int) -> bytes:
    """Deterministic bytes, independent of PYTHONHASHSEED."""
    out = bytearray()
    counter = 0
    while len(out) < size:
        out += hashlib.sha256(f"multiuser:{tag}:{counter}".encode()).digest()
        counter += 1
    return bytes(out[:size])


def _write_op(path: str, tag: str, size: int):
    data = _payload(tag, size)
    return ClientOp(f"write {path}",
                    lambda c, path=path, data=data:
                    c.fs.write_file(c.tx, path, data))


def _client_program(client: int, hot: bool) -> list[Txn]:
    """TXNS_PER_CLIENT committing transactions: each rewrites the
    client's own file, and in the hot configuration also the shared
    file (own file first everywhere — a single lock order, so the hot
    lock produces queueing, not deadlock)."""
    program = []
    for t in range(TXNS_PER_CLIENT):
        items = [_write_op(f"/f{client}", f"c{client}t{t}", WRITE_BYTES)]
        if hot:
            items.append(_write_op("/hot", f"h{client}t{t}", HOT_BYTES))
        program.append(Txn(items, tag=f"c{client}t{t}"))
    return program


def _build(nclients: int, window: float):
    workdir = tempfile.mkdtemp(prefix="inversion-multiuser-")
    db = Database.create(os.path.join(workdir, "db"))
    fs = InversionFS.mkfs(db)
    # Fixtures outside the measured window: every per-client file plus
    # the shared hot file exist and hold one committed chunk, so the
    # measured transactions are pure overwrites (no naming inserts).
    setup = InversionClient(fs)
    setup.p_begin()
    for c in range(nclients):
        fd = setup.p_creat(f"/f{c}")
        setup.p_write(fd, _payload(f"seed{c}", WRITE_BYTES))
        setup.p_close(fd)
    fd = setup.p_creat("/hot")
    setup.p_write(fd, _payload("seedhot", HOT_BYTES))
    setup.p_close(fd)
    setup.p_commit()
    db.tm.flush_commits()
    db.flush_caches()
    db.tm.group_commit_window = window

    def cleanup() -> None:
        db.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return db, fs, cleanup


def run_clients(nclients: int, hot: bool, window: float = GROUP_WINDOW) -> dict:
    """One configuration: ``nclients`` sessions, TXNS_PER_CLIENT
    commits each, on the shared simulated clock.  Returns throughput,
    the contention profile, and the scheduler's fairness report."""
    db, fs, cleanup = _build(nclients, window)
    try:
        server = InversionServer(fs)
        sched = MultiUserScheduler(server, seed=SCHED_SEED)
        try:
            for c in range(nclients):
                sched.add_session(_client_program(c, hot), name=f"c{c}")
            disk = db.switch.get("magnetic0").disk.stats
            forces0 = db.tm.stats.status_forces
            commits0 = db.tm.stats.commits_recorded
            writes0 = disk.writes
            seeks0 = disk.seeks
            t0 = db.clock.now()
            fairness = sched.run()
            db.tm.flush_commits()
            elapsed = db.clock.now() - t0
        finally:
            sched.close()
        ntxns = nclients * TXNS_PER_CLIENT
        stats = db.tm.stats
        locks = db.locks.stats
        wait_hist = db.obs.metrics.value("lock.wait_seconds")
        forces = stats.status_forces - forces0
        return {
            "clients": nclients,
            "transactions": ntxns,
            "elapsed_s": elapsed,
            "txns_per_sec": ntxns / elapsed,
            "status_forces": forces,
            "commits_per_force": (stats.commits_recorded - commits0) / forces,
            "device_writes": disk.writes - writes0,
            "device_seeks": disk.seeks - seeks0,
            "trace_hash": sched.trace_hash(),
            "contention": {
                "lock_waits": locks.waits,
                "lock_deadlocks": locks.deadlocks,
                "lock_timeouts": locks.timeouts,
                "wait_seconds_total": (wait_hist.sum if wait_hist.count
                                       else 0.0),
                "wait_seconds_max": (wait_hist.max if wait_hist.count
                                     else 0.0),
                "sched_slices": sched.stats.slices,
                "sched_context_switches": sched.stats.context_switches,
                "sched_lock_parks": sched.stats.lock_parks,
                "sched_retries": sched.stats.retries,
            },
            "fairness": {
                "max_ready_wait_s": fairness["max_ready_wait_s"],
                "max_park_s": fairness["max_park_s"],
                "fairness_bound_s": fairness["fairness_bound_s"],
                "starved": fairness["starved"],
            },
        }
    finally:
        cleanup()


def run_multiuser() -> dict:
    """The full experiment: the disjoint-file scaling curve and the
    hot-file contention profile, each at 1/2/4/8 clients."""
    disjoint = [run_clients(n, hot=False) for n in CLIENT_COUNTS]
    hot = [run_clients(n, hot=True) for n in CLIENT_COUNTS]
    base = disjoint[0]["txns_per_sec"]
    return {
        "experiment": ("multi-user scale: throughput vs client count on "
                       "disjoint files and on a shared hot file, "
                       "deterministic scheduler"),
        "group_commit_window": GROUP_WINDOW,
        "txns_per_client": TXNS_PER_CLIENT,
        "sched_seed": SCHED_SEED,
        "disjoint": disjoint,
        "hot": hot,
        "scaling": {
            "txns_per_sec_by_clients": {
                str(r["clients"]): r["txns_per_sec"] for r in disjoint},
            "speedup_8_over_1": disjoint[-1]["txns_per_sec"] / base,
        },
    }


def main(argv: list[str]) -> int:
    out = argv[0] if argv else "BENCH_multiuser.json"
    results = run_multiuser()
    with open(out, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=2)
        f.write("\n")
    s = results["scaling"]
    hot8 = results["hot"][-1]
    print(f"wrote {out}: disjoint 1->8 clients "
          f"{s['speedup_8_over_1']:.2f}x throughput, hot-file max wait "
          f"{hot8['fairness']['max_park_s']:.4f}s "
          f"(parks={hot8['contention']['sched_lock_parks']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
