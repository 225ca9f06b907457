"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public methods of each layer's classes
(the layers are ``repro`` modules, see :data:`LAYERS`) and the
``SimClock.advance`` / ``CpuModel`` charge methods.  While a traced
phase is active every wrapped call records a span (function, parent
span, op id, start and end on the host clock and on the simulated
clock of the current op) in flat arrays, and time is attributed:

- host seconds between two span boundaries go to the innermost open
  span (its *self* time);
- every simulated advance goes to the innermost open span on the clock
  that advanced, so per-layer simulated self seconds sum to each
  clock's elapsed time (the ledger the benchmark checks);
- CPU-model charges open no span: they stay with the layer that made
  them and are only tallied by kind.

The wrappers only observe: they call the original function with the
original arguments and return its result, so no simulated number may
change (the benchmark checks that too).  :meth:`LayerTracer.uninstall`
restores every attribute it replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

#: reported layer -> the ``repro`` modules whose classes it covers.
#: ``core.library`` (the in-server ``p_*`` session) and ``core.files``
#: (open-file handles) are the file-system layer's own helpers.
LAYERS = {
    "core.client": ("repro.core.client",),
    "sim.network": ("repro.sim.network",),
    "core.server": ("repro.core.server",),
    "core.filesystem": ("repro.core.filesystem", "repro.core.library",
                        "repro.core.files"),
    "core.naming": ("repro.core.naming",),
    "core.fileatt": ("repro.core.fileatt",),
    "core.chunks": ("repro.core.chunks",),
    "db.catalog": ("repro.db.catalog",),
    "db.btree": ("repro.db.btree",),
    "db.heap": ("repro.db.heap",),
    "db.buffer": ("repro.db.buffer",),
    "db.transactions": ("repro.db.transactions",),
    "db.locks": ("repro.db.locks",),
    "devices.magnetic": ("repro.devices.magnetic",),
    "sim.disk": ("repro.sim.disk",),
    "shard.client": ("repro.shard.client",),
    "shard.cluster": ("repro.shard.cluster",),
    "shard.router": ("repro.shard.router",),
    "shard.twophase": ("repro.shard.twophase",),
    "shard.sched": ("repro.shard.sched",),
}

#: pseudo-layer for time spent outside every wrapped call (the
#: benchmark's own op loop).
ROOT = "bench"

CPU_KINDS = ("tuple_pack", "tuple_unpack", "buffer_copy", "btree_compare",
             "rpc_dispatch", "query_row", "udf_call")


class LedgerError(AssertionError):
    """The simulated-time ledger did not close."""


class LayerTracer:
    """Span recorder and time ledger over the wrapped layers."""

    def __init__(self) -> None:
        self.active = False
        #: function id -> (layer, qualified name); id 0 is the root.
        self.funcs: list[tuple[str, str]] = [(ROOT, ROOT)]
        self._fid_of: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    # -- state -----------------------------------------------------------

    def reset(self) -> None:
        """Forget every span and tally (wrappers stay installed)."""
        self.calls: dict[int, int] = {}
        self.wall_self: dict[int, float] = {}
        #: (clock index, fid) -> [sum, compensation] (Neumaier)
        self.sim_self: dict[tuple[int, int], list[float]] = {}
        #: (generator fid, consumer fid) -> items yielded, and host
        #: seconds spent inside the generator (nested calls included)
        self.yields: dict[tuple[int, int], int] = {}
        self.gen_wall: dict[tuple[int, int], float] = {}
        self.cpu: dict[str, float] = {k: 0.0 for k in CPU_KINDS}
        self.unknown_clock_advances = 0
        self._stack: list[int] = [0]
        self._span_stack: list[int] = [-1]
        self._last = time.perf_counter()
        self.op = -1
        self._clocks: list = []
        self._clock_index: dict[int, int] = {}
        #: the simulated clock span start/end times are read from (the
        #: current op's clock; the contention workload switches it per
        #: scheduler slice to the session's home shard)
        self.clock = None
        self._starts: list[float] = []
        self._ends: list[float] = []
        # span records, one entry per wrapped call
        self.s_fid = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_wall0 = array("d")
        self.s_wall1 = array("d")
        self.s_sim0 = array("d")
        self.s_sim1 = array("d")

    def start(self, clocks) -> None:
        """Begin a traced phase over ``clocks`` (every SimClock the
        workload may advance).  The first one stamps span sim times
        until :attr:`clock` is pointed elsewhere."""
        self.reset()
        self._clocks = list(clocks)
        self._clock_index = {id(c): i for i, c in enumerate(self._clocks)}
        self._starts = [c.now() for c in self._clocks]
        self.clock = self._clocks[0]
        self._last = time.perf_counter()
        self.active = True

    def stop(self) -> None:
        self._tick()
        self.active = False
        self._ends = [c.now() for c in self._clocks]

    # -- attribution -----------------------------------------------------

    def _tick(self) -> float:
        now = time.perf_counter()
        top = self._stack[-1]
        self.wall_self[top] = self.wall_self.get(top, 0.0) + (now - self._last)
        self._last = now
        return now

    def _enter(self, fid: int) -> int:
        now = self._tick()
        idx = len(self.s_fid)
        self.s_fid.append(fid)
        self.s_parent.append(self._span_stack[-1])
        self.s_op.append(self.op)
        self.s_wall0.append(now)
        self.s_wall1.append(now)
        sim = self.clock.now()
        self.s_sim0.append(sim)
        self.s_sim1.append(sim)
        self.calls[fid] = self.calls.get(fid, 0) + 1
        self._stack.append(fid)
        self._span_stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        now = self._tick()
        self._stack.pop()
        self._span_stack.pop()
        self.s_wall1[idx] = now
        self.s_sim1[idx] = self.clock.now()

    def _charge_sim(self, clock, delta: float) -> None:
        cidx = self._clock_index.get(id(clock))
        if cidx is None:
            self.unknown_clock_advances += 1
            return
        key = (cidx, self._stack[-1])
        acc = self.sim_self.get(key)
        if acc is None:
            self.sim_self[key] = [delta, 0.0]
            return
        total = acc[0] + delta
        if abs(acc[0]) >= abs(delta):
            acc[1] += (acc[0] - total) + delta
        else:
            acc[1] += (delta - total) + acc[0]
        acc[0] = total

    # -- wrapping --------------------------------------------------------

    def _fid(self, layer: str, qualname: str) -> int:
        fid = self._fid_of.get(qualname)
        if fid is None:
            fid = self._fid_of[qualname] = len(self.funcs)
            self.funcs.append((layer, qualname))
        return fid

    def _span_wrapper(self, fn, fid: int):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._enter(fid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
        return traced

    def _generator_wrapper(self, fn, fid: int):
        """Generators run their body while the *consumer* iterates, so
        each resumption is attributed to the generator's layer, and the
        items it yields, and the host time it runs, are counted against
        the consumer's function."""
        tracer = self

        def resume(gen, consumer):
            key = (fid, consumer)
            try:
                while True:
                    t0 = tracer._tick()
                    tracer._stack.append(fid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = tracer._tick()
                        tracer._stack.pop()
                        tracer.gen_wall[key] = (tracer.gen_wall.get(key, 0.0)
                                                + t1 - t0)
                    tracer.yields[key] = tracer.yields.get(key, 0) + 1
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen
            tracer.calls[fid] = tracer.calls.get(fid, 0) + 1
            return resume(gen, tracer._stack[-1])
        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every public method of every class the layers define,
        plus the clock and CPU-model charge points."""
        for layer, modnames in LAYERS.items():
            for modname in modnames:
                module = importlib.import_module(modname)
                for cls in list(vars(module).values()):
                    if (isinstance(cls, type)
                            and cls.__module__ == modname):
                        self._wrap_class(layer, cls)
        self._wrap_clock()
        self._wrap_cpu()

    def _wrap_class(self, layer: str, cls) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qualname = f"{cls.__module__}.{cls.__qualname__}.{name}"
            if isinstance(value, classmethod):
                fn = value.__func__
                wrapped = self._wrap_function(layer, qualname, fn)
                self._patch(cls, name, classmethod(wrapped))
            elif isinstance(value, staticmethod):
                continue
            elif inspect.isfunction(value):
                self._patch(cls, name,
                            self._wrap_function(layer, qualname, value))

    def _wrap_function(self, layer: str, qualname: str, fn):
        fid = self._fid(layer, qualname)
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(fn, fid)
        return self._span_wrapper(fn, fid)

    def _wrap_clock(self) -> None:
        from repro.sim.clock import SimClock
        tracer = self
        original = SimClock.advance

        @functools.wraps(original)
        def advance(clock, seconds):
            before = clock.now()
            result = original(clock, seconds)
            if tracer.active:
                tracer._charge_sim(clock, result - before)
            return result
        self._patch(SimClock, "advance", advance)

    def _wrap_cpu(self) -> None:
        from repro.sim.cpu import CpuModel
        tracer = self
        for kind in CPU_KINDS:
            original = vars(CpuModel)[kind]

            def charge(model, count=1, _orig=original, _kind=kind):
                cost = _orig(model, count)
                if tracer.active:
                    tracer.cpu[_kind] += cost
                return cost
            functools.update_wrapper(charge, original)
            self._patch(CpuModel, kind, charge)

    def uninstall(self) -> None:
        self.active = False
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def fid(self, qualname: str) -> int | None:
        return self._fid_of.get(qualname)

    def layer_of(self, fid: int) -> str:
        return self.funcs[fid][0]

    def sim_self_by_layer(self, clock_index: int | None = None
                          ) -> dict[str, float]:
        out: dict[str, float] = {}
        for (cidx, fid), (total, comp) in self.sim_self.items():
            if clock_index is not None and cidx != clock_index:
                continue
            layer = self.funcs[fid][0]
            out[layer] = out.get(layer, 0.0) + total + comp
        return out

    def sim_self_of(self, fid: int | None) -> float:
        if fid is None:
            return 0.0
        return sum(t + c for (_ci, f), (t, c) in self.sim_self.items()
                   if f == fid)

    def wall_self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for fid, secs in self.wall_self.items():
            layer = self.funcs[fid][0]
            out[layer] = out.get(layer, 0.0) + secs
        return out

    def calls_by_layer(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for fid, n in self.calls.items():
            layer = self.funcs[fid][0]
            out[layer] = out.get(layer, 0) + n
        return out

    def inclusive_wall(self, fid: int | None) -> float:
        """Summed duration of every span of one function (children
        included)."""
        if fid is None:
            return 0.0
        total = 0.0
        for i, f in enumerate(self.s_fid):
            if f == fid:
                total += self.s_wall1[i] - self.s_wall0[i]
        return total

    def ledger(self, tolerance: float = 1e-9) -> list[dict]:
        """Per clock: elapsed seconds against the per-layer sum.  Raises
        :class:`LedgerError` if any clock does not close."""
        rows = []
        for cidx in range(len(self._clocks)):
            elapsed = self._ends[cidx] - self._starts[cidx]
            layers = self.sim_self_by_layer(cidx)
            attributed = sum(sorted(layers.values()))
            rows.append({"clock": cidx, "elapsed_s": elapsed,
                         "attributed_s": attributed,
                         "residual_s": attributed - elapsed,
                         "layers": layers})
            if abs(attributed - elapsed) > tolerance:
                raise LedgerError(
                    f"clock {cidx}: layers sum to {attributed!r} s but the "
                    f"clock advanced {elapsed!r} s")
        if self.unknown_clock_advances:
            raise LedgerError(
                f"{self.unknown_clock_advances} advances on a clock the "
                f"workload did not declare")
        return rows

    def span_count(self) -> int:
        return len(self.s_fid)

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        import gzip
        import json
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            for i in range(len(self.s_fid)):
                layer, name = self.funcs[self.s_fid[i]]
                f.write(json.dumps({
                    "id": i, "parent": self.s_parent[i], "op": self.s_op[i],
                    "layer": layer, "name": name,
                    "wall": [self.s_wall0[i], self.s_wall1[i]],
                    "sim": [self.s_sim0[i], self.s_sim1[i]],
                }, separators=(",", ":")))
                f.write("\n")
