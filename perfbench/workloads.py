"""The three workloads: seeded plans, fixtures, timed loops and checks.

Every workload is generated in the benchmark process from its seed
in its constructor, before anything runs; the program only ever receives
the generated ``p_*`` calls.  Each plan carries its own expected
results, so every read is checked against a model of the bytes and
names the calls should have produced.

All workloads run closed-loop on one thread with the repository's
default flush policy: ``group_commit_window=0`` (one status force per
commit), coalesced write-back on, read-ahead 8, 300 buffer pages per
database, and no cache flushes between ops.
"""

from __future__ import annotations

import functools
import math
import os
import random
import time
from dataclasses import dataclass, field

from perfbench.hostspeed import HostSpeed
from repro.core.client import RemoteInversionClient
from repro.core.constants import CHUNK_SIZE, O_RDWR
from repro.core.filesystem import InversionFS
from repro.core.server import InversionServer
from repro.db.buffer import DEFAULT_BUFFERS, DEFAULT_READAHEAD
from repro.db.database import Database
from repro.db.page import PAGE_SIZE
from repro.sched.scheduler import Call, Ref, Txn
from repro.shard import ShardedCluster, ShardedScheduler
from repro.sim.clock import SimClock
from repro.sim.network import ETHERNET_10MBIT, NetworkModel

READ, WRITE = "r", "w"


@dataclass
class RoundResult:
    """Everything one fixture build plus one timed phase measured."""

    setup_s: float = 0.0
    #: (kind, simulated seconds, host seconds, op name) per completed op
    samples: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    sim_elapsed_s: float = 0.0
    wall_elapsed_s: float = 0.0
    device_bytes: int = 0
    live_bytes: int = 0
    user_bytes_written: int = 0
    #: counter deltas over the timed phase, read from the program's own
    #: stats objects (per-layer metrics of the traced run)
    counters: dict = field(default_factory=dict)
    #: workload-specific figures (scheduler statistics)
    extra: dict = field(default_factory=dict)
    open_fds: int = 0
    #: host-speed samples of this round, and when each sample's op ended
    speed: HostSpeed = field(default_factory=HostSpeed)
    op_ends: list = field(default_factory=list)

    def normalize(self) -> None:
        """Restate host times at the reference speed (see
        :mod:`perfbench.hostspeed`)."""
        speed = self.speed
        self.samples = [(k, s, w / speed.factor_at(t), name)
                        for (k, s, w, name), t in zip(self.samples,
                                                      self.op_ends)]
        self.wall_elapsed_s /= speed.factor()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def open_fds() -> int:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return 0


def device_bytes(dbs) -> int:
    """Bytes allocated on every magnetic device: pages of every
    relation the devices hold."""
    total = 0
    for db in dbs:
        for dev in db.switch:
            if hasattr(dev, "list_relations") and hasattr(dev, "disk"):
                total += sum(dev.nblocks(rel) for rel in dev.list_relations())
    return total * PAGE_SIZE


def _disk_stats(dbs) -> dict:
    out = {"seeks": 0, "sequential_ops": 0, "reads": 0, "writes": 0,
           "bytes_written": 0}
    for db in dbs:
        for dev in db.switch:
            disk = getattr(dev, "disk", None)
            if disk is None:
                continue
            for key in out:
                out[key] += getattr(disk.stats, key)
    return out


def _db_counters(dbs) -> dict:
    """Snapshot of the program's own counters, summed over databases."""
    from repro.db.btree import BTree
    out = {"btree_descents": BTree.total_descents,
           "btree_fastpath": BTree.descent_fastpath_hits}
    for key in ("hits", "misses", "evictions", "prefetches",
                "prefetch_hits"):
        out["buffer_" + key] = sum(getattr(db.buffers.stats, key)
                                   for db in dbs)
    for key in ("status_forces", "commits_recorded"):
        out["tx_" + key] = sum(getattr(db.tm.stats, key) for db in dbs)
    for key in ("waits", "deadlocks", "timeouts"):
        out["lock_" + key] = sum(getattr(db.locks.stats, key) for db in dbs)
    out["lock_wait_s"] = sum(
        db.obs.metrics.get("lock.wait_seconds").value().sum for db in dbs)
    out["chunks_written"] = sum(
        db.obs.metrics.get("chunks.chunks_written").total() for db in dbs)
    out["heap_rows_inserted"] = sum(
        db.obs.metrics.get("heap.rows_inserted").total() for db in dbs)
    for key, value in _disk_stats(dbs).items():
        out["disk_" + key] = value
    return out


def mix(rng: random.Random, weights, total: int) -> list:
    """``total`` op names in exact proportion to ``weights`` (a tuple of
    (name, kind, weight)).  The list is built from the smallest block
    that holds every op in exact proportion, each block shuffled on its
    own: every seed runs the same number of each op, spread evenly over
    the run, so seeds differ only in order within a block, sizes,
    offsets and names."""
    counts = [w for _n, _k, w in weights]
    unit = functools.reduce(math.gcd, counts)
    block = []
    for name, _kind, weight in weights:
        block += [name] * (weight // unit)
    names: list = []
    while len(names) < total:
        piece = list(block)
        rng.shuffle(piece)
        names += piece
    return names[:total]


def delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


# ---------------------------------------------------------------------------
# client/server fixture shared by namespace and datapath
# ---------------------------------------------------------------------------


class CsFixture:
    """One Inversion server on one simulated clock, one remote client
    over the simulated 10 Mbit Ethernet (the paper's client/server
    configuration, built as ``repro.bench.harness`` builds it)."""

    def __init__(self, workdir: str) -> None:
        self.clock = SimClock()
        self.db = Database.create(os.path.join(workdir, "db"),
                                  clock=self.clock,
                                  buffer_pages=DEFAULT_BUFFERS)
        self.db.buffers.readahead_window = DEFAULT_READAHEAD
        self.fs = InversionFS.mkfs(self.db)
        self.db.tm.group_commit_window = 0.0
        self.server = InversionServer(self.fs)
        self.network = NetworkModel(clock=self.clock, params=ETHERNET_10MBIT)
        self.client = RemoteInversionClient(self.server, self.network)
        self.dbs = [self.db]
        self.clocks = [self.clock]

    def counters(self) -> dict:
        out = _db_counters(self.dbs)
        out["net_messages"] = self.network.stats.messages
        out["net_bytes"] = self.network.stats.bytes_sent
        return out

    def close(self) -> None:
        self.client.close()
        self.db.close()


def timed_loop(ops, do, check, clock, result: RoundResult,
               tracer=None) -> None:
    """Run ``ops`` one after another, timing each ``do(op)`` on both
    clocks.  ``check(op, value)`` runs outside the timed region and
    returns an error string or None; an op that raises counts as
    failed too, and the loop goes on."""
    perf = time.perf_counter
    samples = result.samples
    speed = result.speed
    spent = speed.spent
    w_start, s_start = perf(), clock.now()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        result.attempted += 1
        w0, s0 = perf(), clock.now()
        try:
            value = do(op)
        except Exception as exc:  # a failed op is a result, not a crash
            result.fail(f"op {i} ({op[0]}) raised {type(exc).__name__}: {exc}")
            continue
        w1, s1 = perf(), clock.now()
        err = check(op, value)
        if err is not None:
            result.fail(f"op {i}: {err}")
        else:
            samples.append((op[1], s1 - s0, w1 - w0, op[0]))
            result.op_ends.append(w1)
        speed.maybe_sample()
    result.wall_elapsed_s = perf() - w_start - (speed.spent - spent)
    result.sim_elapsed_s = clock.now() - s_start


# ---------------------------------------------------------------------------
# namespace
# ---------------------------------------------------------------------------


class Namespace:
    """Small-file namespace churn on the client/server stack.

    Starts from an empty file system with four directories.  Creates of
    one-chunk-or-smaller files (70% into ``/d0``, which grows to a few
    hundred entries) interleave with stat, open-and-read-whole-file,
    paged readdir, rename and unlink.  Writes (create, rename, unlink)
    are 40% of ops.  Every file is two relations, so the catalog and
    the device's relation map grow with every create and the metadata
    outgrows the 300-page buffer pool.
    """

    name = "namespace"
    DIRS = ("/d0", "/d1", "/d2", "/d3")
    OPS = 1000
    PAGE = 32
    #: op mix: (name, kind, weight)
    MIX = (("create", WRITE, 30), ("rename", WRITE, 5), ("unlink", WRITE, 5),
           ("stat", READ, 25), ("read", READ, 25), ("readdir", READ, 10))

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.nops = max(20, int(self.OPS * scale))
        self.ops, self.live = self._plan(random.Random(f"namespace:{seed}"))

    def _plan(self, rng: random.Random):
        files: dict[str, bytes] = {}
        paths: list[str] = []            # for O(1) random choice
        index: dict[str, int] = {}
        dirs = {d: set() for d in self.DIRS}
        kinds = {m[0]: m[1] for m in self.MIX}
        used: set[str] = set()

        def fresh_name() -> str:
            while True:
                name = f"f{rng.getrandbits(40):010x}"
                if name not in used:
                    used.add(name)
                    return name

        def add(path: str, data: bytes) -> None:
            files[path] = data
            index[path] = len(paths)
            paths.append(path)
            d, n = path.rsplit("/", 1)
            dirs[d].add(n)

        def remove(path: str) -> bytes:
            i = index.pop(path)
            last = paths.pop()
            if last != path:
                paths[i] = last
                index[last] = i
            d, n = path.rsplit("/", 1)
            dirs[d].discard(n)
            return files.pop(path)

        def pick_dir() -> str:
            return "/d0" if rng.random() < 0.7 else rng.choice(self.DIRS[1:])

        order = mix(rng, self.MIX, self.nops)
        ops = []
        for i in range(len(order)):
            if not paths and order[i] != "create":
                # nothing to act on yet: pull the next create forward
                j = order.index("create", i)
                order[i], order[j] = order[j], order[i]
            op = order[i]
            kind = kinds[op]
            if op == "create":
                path = f"{pick_dir()}/{fresh_name()}"
                data = rng.randbytes(rng.randint(1, CHUNK_SIZE))
                add(path, data)
                ops.append(("create", kind, path, data))
            elif op == "rename":
                old = rng.choice(paths)
                new = f"{pick_dir()}/{fresh_name()}"
                add(new, remove(old))
                ops.append(("rename", kind, old, new))
            elif op == "unlink":
                path = rng.choice(paths)
                remove(path)
                ops.append(("unlink", kind, path))
            elif op == "stat":
                path = rng.choice(paths)
                ops.append(("stat", kind, path, len(files[path])))
            elif op == "read":
                path = rng.choice(paths)
                ops.append(("read", kind, path, files[path]))
            else:
                d = rng.choice(self.DIRS)
                listing = sorted(dirs[d])
                cookie = None
                if listing and rng.random() < 0.7:
                    cookie = rng.choice(listing)
                after = [n for n in listing if cookie is None or n > cookie]
                page = after[:self.PAGE]
                nxt = page[-1] if len(after) > self.PAGE else None
                ops.append(("readdir", kind, d, cookie, page, nxt))
        return ops, dict(files)

    def setup(self, workdir: str) -> CsFixture:
        fx = CsFixture(workdir)
        for d in self.DIRS:
            fx.client.p_mkdir(d)
        return fx

    def run(self, fx: CsFixture, result: RoundResult, tracer=None) -> None:
        cl = fx.client

        def do(op):
            name = op[0]
            if name == "create":
                fd = cl.p_creat(op[2])
                cl.p_write(fd, op[3])
                cl.p_close(fd)
                return None
            if name == "rename":
                return cl.p_rename(op[2], op[3])
            if name == "unlink":
                return cl.p_unlink(op[2])
            if name == "stat":
                return cl.p_stat(op[2]).size
            if name == "read":
                fd = cl.p_open(op[2])
                data = cl.p_read(fd, CHUNK_SIZE)
                cl.p_close(fd)
                return data
            return cl.p_readdir(op[2], cookie=op[3], limit=self.PAGE)

        def check(op, value):
            name = op[0]
            if name == "create":
                result.user_bytes_written += len(op[3])
            elif name == "stat" and value != op[3]:
                return f"stat {op[2]}: size {value}, expected {op[3]}"
            elif name == "read" and value != op[3]:
                return (f"read {op[2]}: {len(value)} bytes differ from the "
                        f"{len(op[3])} written")
            elif name == "readdir":
                names, nxt = value
                if list(names) != op[4] or nxt != op[5]:
                    return (f"readdir {op[2]} after {op[3]!r}: got "
                            f"{len(names)} names (next {nxt!r}), expected "
                            f"{len(op[4])} (next {op[5]!r})")
            return None

        timed_loop(self.ops, do, check, fx.clock, result, tracer)

    def finish(self, fx: CsFixture, result: RoundResult) -> None:
        result.live_bytes = sum(len(v) for v in self.live.values())


# ---------------------------------------------------------------------------
# datapath
# ---------------------------------------------------------------------------


class Datapath:
    """The paper's 25 MB file, then a mix of page-level I/O on it.

    Setup writes the file with sequential chunk-sized ``p_write`` calls
    (Table 3 "create").  The timed phase mixes random one-chunk reads,
    1 MB sequential reads in chunk-sized calls, single-byte reads,
    client transactions of 1-16 random chunk writes and 1 MB sequential
    writes; writes are 35% of ops.  Sequential transfers run inside a
    client transaction, as the paper's Table 3 tests did.  The file is
    3100 chunk pages, about 10x the 300-page buffer pool, and the
    namespace is not touched.

    Write payloads are drawn from a per-op seed just before the op is
    timed, and every read is compared with a byte model the loop keeps
    up to date, so the plan stays small.
    """

    name = "datapath"
    FILE = "/bigfile"
    FILE_SIZE = 25 * 1000 * 1000
    TRANSFER_CHUNKS = 125          # 125 x 8064 bytes ~ 1 MB
    OPS = 1000
    MIX = (("read_chunk", READ, 40), ("read_seq", READ, 4),
           ("read_byte", READ, 21), ("write_tx", WRITE, 30),
           ("write_seq", WRITE, 5))

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.file_size = max(CHUNK_SIZE * 40, int(self.FILE_SIZE * scale))
        self.nchunks = self.file_size // CHUNK_SIZE
        self.transfer = min(self.TRANSFER_CHUNKS, self.nchunks // 4)
        self.nops = max(20, int(self.OPS * scale))
        rng = random.Random(f"datapath:{seed}")
        self.initial = rng.randbytes(self.file_size)
        self.ops = self._plan(rng)

    def _plan(self, rng: random.Random) -> list:
        """(name, kind, offset or chunk offsets, payload seed)."""
        kinds = {m[0]: m[1] for m in self.MIX}
        last_seq = self.nchunks - self.transfer
        ops = []
        for op in mix(rng, self.MIX, self.nops):
            kind = kinds[op]
            if op == "read_chunk":
                ops.append((op, kind, rng.randrange(self.nchunks) * CHUNK_SIZE))
            elif op in ("read_seq", "write_seq"):
                ops.append((op, kind, rng.randrange(last_seq) * CHUNK_SIZE,
                            rng.getrandbits(64)))
            elif op == "read_byte":
                ops.append((op, kind, rng.randrange(self.file_size)))
            else:
                offs = [rng.randrange(self.nchunks) * CHUNK_SIZE
                        for _ in range(rng.randint(1, 16))]
                ops.append((op, kind, offs, rng.getrandbits(64)))
        return ops

    def setup(self, workdir: str) -> CsFixture:
        fx = CsFixture(workdir)
        cl = fx.client
        fd = cl.p_creat(self.FILE)
        view = memoryview(self.initial)
        for off in range(0, self.file_size, CHUNK_SIZE):
            cl.p_write(fd, bytes(view[off:off + CHUNK_SIZE]))
        cl.p_close(fd)
        fx.fd = cl.p_open(self.FILE, O_RDWR)
        return fx

    def run(self, fx: CsFixture, result: RoundResult, tracer=None) -> None:
        cl = fx.client
        fd = fx.fd
        model = bytearray(self.initial)
        view = memoryview(model)
        span = self.transfer * CHUNK_SIZE
        pending: list = []       # payloads of the op about to run

        def seek(off: int) -> None:
            cl.p_lseek(fd, off >> 32, off & 0xFFFFFFFF)

        def do(op):
            name = op[0]
            if name == "read_chunk":
                seek(op[2])
                return cl.p_read(fd, CHUNK_SIZE)
            if name == "read_byte":
                seek(op[2])
                return cl.p_read(fd, 1)
            cl.p_begin()
            if name == "read_seq":
                seek(op[2])
                parts = [cl.p_read(fd, CHUNK_SIZE)
                         for _ in range(self.transfer)]
                cl.p_commit()
                return b"".join(parts)
            if name == "write_tx":
                for off, buf in zip(op[2], pending):
                    seek(off)
                    cl.p_write(fd, buf)
            else:
                seek(op[2])
                for buf in pending:
                    cl.p_write(fd, buf)
            cl.p_commit()
            return None

        def payloads(op) -> list:
            rng = random.Random(op[3])
            if op[0] == "write_tx":
                return [rng.randbytes(CHUNK_SIZE) for _ in op[2]]
            return [rng.randbytes(CHUNK_SIZE) for _ in range(self.transfer)]

        def check(op, value):
            name = op[0]
            if op[1] == WRITE:
                offs = (op[2] if name == "write_tx" else
                        range(op[2], op[2] + span, CHUNK_SIZE))
                for off, buf in zip(offs, pending):
                    model[off:off + CHUNK_SIZE] = buf
                    result.user_bytes_written += len(buf)
                return None
            n = {"read_chunk": CHUNK_SIZE, "read_byte": 1}.get(name, span)
            expected = view[op[2]:op[2] + n]
            if value != expected:
                return (f"{name} at {op[2]}: {len(value)} bytes differ from "
                        f"the model's {len(expected)}")
            return None

        def prepared():
            for op in self.ops:
                pending[:] = payloads(op) if op[1] == WRITE else []
                yield op

        timed_loop(prepared(), do, check, fx.clock, result, tracer)

    def finish(self, fx: CsFixture, result: RoundResult) -> None:
        size = fx.client.p_stat(self.FILE).size
        if size != self.file_size:
            result.fail(f"final size {size}, expected {self.file_size}")
        result.live_bytes = self.file_size


# ---------------------------------------------------------------------------
# contention
# ---------------------------------------------------------------------------


class ClusterFixture:
    """A subtree-partitioned ``ShardedCluster`` (``/s<k>`` on shard k),
    each shard on its own simulated clock."""

    def __init__(self, workdir: str, nshards: int) -> None:
        self.cluster = ShardedCluster.create(
            os.path.join(workdir, "cluster"), nshards, policy="subtree",
            assignments={f"s{k}": k for k in range(nshards)},
            buffer_pages=DEFAULT_BUFFERS, group_commit_window=0.0)
        for db in self.cluster.dbs:
            db.buffers.readahead_window = DEFAULT_READAHEAD
        self.dbs = self.cluster.dbs
        self.clocks = [db.clock for db in self.dbs]

    def counters(self) -> dict:
        out = _db_counters(self.dbs)
        out["net_messages"] = 0
        out["net_bytes"] = 0
        stats = self.cluster.stats
        for key in ("single_shard_txns", "cross_shard_txns",
                    "cross_shard_messages"):
            out["shard_" + key] = getattr(stats, key)
        return out

    def close(self) -> None:
        self.cluster.close()


class Contention:
    """16 closed-loop sessions on a 2-shard cluster under the seeded
    :class:`~repro.shard.ShardedScheduler`.

    Each session owns one file on its home shard and one on the other.
    Its transactions overwrite its own file (50%), also rewrite the
    home shard's hot file (25%, lock queueing), also overwrite its file
    on the other shard (15%, two-phase commit), or stat and read its own
    file or the hot file (10%, read-only).  An op is one transaction,
    from issuing ``p_begin`` to the return of ``p_commit``, parks and
    retries included.  The 17 files per shard, 4000-8000 bytes each,
    fit easily in each shard's 300-page pool.
    """

    name = "contention"
    SHARDS = 2
    SESSIONS = 16
    TXNS = 100
    #: file sizes, drawn per file from the seed
    SIZES = (4000, 8000)
    MIX = (("own", WRITE, 50), ("hot", WRITE, 25), ("cross", WRITE, 15),
           ("read", READ, 10))

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.txns = max(2, int(self.TXNS * scale))
        rng = random.Random(f"contention:{seed}")
        self.sched_seed = rng.getrandbits(32)
        paths = [f"/s{k}/hot" for k in range(self.SHARDS)]
        for c in range(self.SESSIONS):
            paths += [self._own(c), self._away(c)]
        #: every write to a file overwrites all of it with its own size
        self.sizes = {p: rng.randint(*self.SIZES) for p in paths}
        self.initial = {p: rng.randbytes(self.sizes[p]) for p in paths}
        #: per session: list of (tag, kind, [(path, payload)], read path)
        self.programs = [self._plan_session(rng, c)
                         for c in range(self.SESSIONS)]
        self.nops = self.SESSIONS * self.txns

    def _home(self, c: int) -> int:
        return c % self.SHARDS

    def _own(self, c: int) -> str:
        return f"/s{self._home(c)}/own{c}"

    def _away(self, c: int) -> str:
        return f"/s{(self._home(c) + 1) % self.SHARDS}/away{c}"

    def _plan_session(self, rng: random.Random, c: int):
        hot = f"/s{self._home(c)}/hot"
        order = mix(rng, self.MIX, self.txns)
        # reads alternate between the session's own file and the hot one
        read_paths = [self._own(c), hot] * self.txns
        txns = []
        for t, op in enumerate(order):
            tag = (c, t)
            if op == "read":
                txns.append((tag, READ, [], read_paths.pop()))
                continue
            paths = [self._own(c)]
            if op == "hot":
                paths.append(hot)
            elif op == "cross":
                paths.append(self._away(c))
            writes = [(p, rng.randbytes(self.sizes[p])) for p in paths]
            txns.append((tag, WRITE, writes, None))
        return txns

    def _program(self, txns) -> list:
        program = []
        ordinal = 0
        for tag, kind, writes, read_path in txns:
            items = []
            if kind == READ:
                items = [Call("p_stat", read_path),
                         Call("p_open", read_path),
                         Call("p_read", Ref(ordinal + 1),
                              self.sizes[read_path] + 1),
                         Call("p_close", Ref(ordinal + 1))]
            else:
                for k, (path, data) in enumerate(writes):
                    base = ordinal + 3 * k
                    items += [Call("p_open", path, O_RDWR),
                              Call("p_write", Ref(base), data),
                              Call("p_close", Ref(base))]
            ordinal += len(items)
            program.append(Txn(items, tag=tag))
        return program

    def setup(self, workdir: str) -> ClusterFixture:
        fx = ClusterFixture(workdir, self.SHARDS)
        client = fx.cluster.client()
        for k in range(self.SHARDS):
            client.p_mkdir(f"/s{k}")
        for path, data in self.initial.items():
            fd = client.p_creat(path)
            client.p_write(fd, data)
            client.p_close(fd)
        client.close()
        return fx

    def run(self, fx: ClusterFixture, result: RoundResult,
            tracer=None) -> None:
        cluster = fx.cluster
        sched = ShardedScheduler(cluster, seed=self.sched_seed)
        by_tag = {}
        for c, txns in enumerate(self.programs):
            sched.add_session(self._program(txns), name=f"c{c}",
                              home=self._home(c))
            for entry in txns:
                by_tag[entry[0]] = entry
        fx.commits = []
        sched.commit_hook = lambda session, tag: fx.commits.append(tag)
        timer = _SliceTimer(sched, cluster, result, by_tag, tracer)
        starts = [clock.now() for clock in fx.clocks]
        spent = result.speed.spent
        w0 = time.perf_counter()
        try:
            fairness = sched.run(strict=False)
        finally:
            timer.uninstall()
            sched.close()
        result.wall_elapsed_s = (time.perf_counter() - w0
                                 - (result.speed.spent - spent))
        result.sim_elapsed_s = cluster.elapsed_max(starts)
        result.attempted = self.nops
        result.failed += self.nops - len(timer.completed)
        result.errors += [f"{s.name}: {s.error}" for s in sched.sessions
                          if s.error][:20]
        self._check_reads(timer.read_results, result)
        result.extra = {
            "sched_slices": sched.stats.slices,
            "sched_context_switches": sched.stats.context_switches,
            "sched_retries": sched.stats.retries,
            "sched_max_ready_wait_s": fairness["max_ready_wait_s"],
        }

    def _check_reads(self, read_results: dict, result: RoundResult) -> None:
        """A read of the session's own file must return the session's
        last write to it (nobody else writes there); a read of a hot
        file must return bytes some transaction wrote there."""
        written: dict[str, set] = {p: {d} for p, d in self.initial.items()}
        own_before: dict = {}
        for c, txns in enumerate(self.programs):
            last = self.initial[self._own(c)]
            for tag, _kind, writes, _path in txns:
                own_before[tag] = last
                for path, data in writes:
                    written[path].add(data)
                    if path == self._own(c):
                        last = data
        for tag, data in read_results.items():
            path = self.programs[tag[0]][tag[1]][3]
            ok = (data == own_before[tag] if path == self._own(tag[0])
                  else data in written[path])
            if not ok:
                result.fail(f"txn {tag} read wrong bytes from {path}")

    def finish(self, fx: ClusterFixture, result: RoundResult) -> None:
        """Each file must hold its last committed write, in commit
        order."""
        expected = dict(self.initial)
        for c, t in fx.commits:
            for path, data in self.programs[c][t][2]:
                expected[path] = data
                result.user_bytes_written += len(data)
        client = fx.cluster.client()
        try:
            for path, data in sorted(expected.items()):
                fd = client.p_open(path)
                got = client.p_read(fd, self.sizes[path] + 1)
                client.p_close(fd)
                if got != data:
                    result.fail(f"final content of {path} is not its last "
                                f"committed write")
        finally:
            client.close()
        result.live_bytes = sum(len(v) for v in expected.values())


class _SliceTimer:
    """Observes the scheduler's slices to time each transaction: the
    simulated latency runs on the session's home clock from the first
    ``p_begin`` slice to the end of the ``p_commit`` slice (parks and
    retries included); the host latency is the time spent inside that
    transaction's own slices (nested slices of other sessions, run
    while it was parked, are subtracted)."""

    def __init__(self, sched, cluster, result: RoundResult, by_tag,
                 tracer=None) -> None:
        self.sched = sched
        self.cluster = cluster
        self.result = result
        self.by_tag = by_tag
        self.tracer = tracer
        self.completed: list = []
        self.read_results: dict = {}
        self._start: dict[int, float] = {}
        self._wall: dict[int, float] = {}
        self._stack: list[list] = []
        self._original = sched._run_slice
        sched._run_slice = self._run_slice

    def uninstall(self) -> None:
        self.sched._run_slice = self._original

    def _run_slice(self, session) -> None:
        sid = session.sid
        unit_idx = session.unit_idx
        unit = session.units[unit_idx]
        clock = self.cluster.clock(session.home)
        if sid not in self._start:
            self._start[sid] = clock.now()
            self._wall[sid] = 0.0
        tracer = self.tracer
        if tracer is not None:
            saved_op, saved_clock = tracer.op, tracer.clock
            tracer.op = sid * 100000 + unit_idx
            tracer.clock = clock
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            self._original(session)
        finally:
            self._stack.pop()
            elapsed = time.perf_counter() - frame[0]
            if self._stack:
                self._stack[-1][1] += elapsed
            self._wall[sid] += elapsed - frame[1]
            if tracer is not None:
                tracer.op = saved_op
                tracer.clock = saved_clock
        if session.unit_idx != unit_idx or session.finished:
            if session.unit_idx != unit_idx:
                tag = unit.txn.tag
                kind = self.by_tag[tag][1]
                if kind == READ:
                    # ordinals: stat, open, read, close
                    self.read_results[tag] = session.values.get(
                        unit.ordinals[2])
                self.completed.append(tag)
                self.result.samples.append(
                    (kind, clock.now() - self._start[sid], self._wall[sid],
                     "txn"))
                self.result.op_ends.append(time.perf_counter())
            self._start.pop(sid, None)
            self._wall.pop(sid, None)
        if not self._stack:
            self.result.speed.maybe_sample()


WORKLOADS = {w.name: w for w in (Namespace, Datapath, Contention)}
