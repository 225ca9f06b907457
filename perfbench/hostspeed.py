"""Host-speed tracking, so host times compare across runs on a shared
machine.

Other tenants of a shared host slow a run down by 10-50% for seconds
at a time, long enough to shift every repetition inside one run.  The
benchmark therefore times a fixed pure-Python reference loop (dict,
struct, bytes and list work, like the program's hot paths) every
quarter second of the timed phase, and reports host times at the
reference speed: ``measured x NOMINAL_S / reference loop time``.  The
reference loop is the benchmark's own code, so a change to the program
moves the reported times and a change of host load does not.
"""

from __future__ import annotations

import bisect
import statistics
import struct
import time

#: reference-loop time on an unloaded reference host (seconds); host
#: times are reported as if every run had the loop at this speed.
NOMINAL_S = 0.0005
#: seconds of timed phase between two reference samples.
INTERVAL_S = 0.25

_KEYS = [f"k{i}" for i in range(64)]
_REC = struct.Struct("<IIQ")


def reference_loop() -> int:
    """The fixed unit of work the host's speed is measured with."""
    table: dict[str, int] = {}
    parts = []
    for i in range(1200):
        key = _KEYS[i & 63]
        table[key] = table.get(key, 0) + i
        rec = _REC.pack(i, i * 7, i * i)
        parts.append(rec[2:10])
        _REC.unpack(rec)
    return len(b"".join(parts)) + min(table.values())


class HostSpeed:
    """Reference-loop samples taken during one round, and the host-time
    normalisation they give."""

    def __init__(self) -> None:
        #: (perf_counter at the sample, fastest reference-loop time)
        self.samples: list[tuple[float, float]] = []
        #: host seconds spent sampling (kept out of throughput figures)
        self.spent = 0.0
        self._next = 0.0

    def sample(self) -> None:
        """Time the reference loop a few times and keep the fastest, so
        a single interruption does not count as a slow host."""
        perf = time.perf_counter
        t0 = perf()
        best = float("inf")
        for _ in range(3):
            s = perf()
            reference_loop()
            best = min(best, perf() - s)
        now = perf()
        self.samples.append((now, best))
        self.spent += now - t0
        self._next = now + INTERVAL_S

    def maybe_sample(self) -> None:
        """Sample if a quarter second has passed since the last one."""
        if time.perf_counter() >= self._next:
            self.sample()

    def factor_at(self, when: float) -> float:
        """Host slowness (1.0 = nominal) at perf_counter time ``when``:
        the nearest sample's."""
        if not self.samples:
            self.sample()
        times = [t for t, _d in self.samples]
        i = bisect.bisect_left(times, when)
        near = [self.samples[j] for j in (i - 1, i)
                if 0 <= j < len(self.samples)]
        _t, best = min(near, key=lambda s: abs(s[0] - when))
        return best / NOMINAL_S

    def factor(self) -> float:
        """Median host slowness over the whole round."""
        if not self.samples:
            self.sample()
        return statistics.median(d for _t, d in self.samples) / NOMINAL_S
