"""The repository benchmark: three seeded closed-loop workloads through
the public ``p_*`` client stacks, measured on both clocks.

Run from the root of a checkout::

    python3 perfbench/run.py --workload namespace --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload (same seed, fresh fixture each
round) until ``--seconds`` of measuring have passed, at least three
rounds, and reports the end-to-end metrics: simulated and host latency
per op, throughput on both clocks, set-up time, failures, space
amplification and peak memory.  ``--trace 1`` runs one untraced round,
then the same round again with every layer wrapped (see
``perfbench/tracer.py``) and reports the per-layer metrics; it also
checks that tracing changed no simulated number and that each clock's
elapsed time is exactly the sum of the layers' simulated self time.

Every read is checked against the workload's model; any wrong result
makes the command exit non-zero.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_ROUNDS = 3
MIN_SETUPS = 5
MAX_SETUPS = 25
EXTRA_SETUP_S = 1.0


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail_rank(n: int) -> int:
    """1-based rank of the highest percentile (at most p99) that still
    leaves at least ten samples beyond it."""
    if n <= 10:
        return max(1, math.ceil(n / 2))
    return min(n - 10, math.ceil(0.99 * n))


def latency_stats(values: list) -> dict:
    """Median and tail (see :func:`tail_rank`) of ``values`` (seconds),
    in ms."""
    if not values:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0.0, "n": 0}
    data = sorted(values)
    rank = tail_rank(len(data))
    return {"p50_ms": statistics.median(data) * 1e3,
            "tail_ms": data[rank - 1] * 1e3,
            "tail_pct": 100.0 * rank / len(data), "n": len(data)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def run_round(workload, tmp_root: str, tracer=None):
    """Build a fresh fixture in a fresh directory, run the timed phase,
    check it, and remove the directory."""
    from perfbench.workloads import (RoundResult, delta, device_bytes,
                                     open_fds)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root)
    result = RoundResult()
    try:
        fx, result.setup_s = build_fixture(workload, workdir, result.speed)
        try:
            before = fx.counters()
            if tracer is not None:
                tracer.start(fx.clocks)
            try:
                workload.run(fx, result, tracer)
            finally:
                if tracer is not None:
                    tracer.stop()
            result.counters = delta(fx.counters(), before)
            result.open_fds = open_fds()
            workload.finish(fx, result)
            result.device_bytes = device_bytes(fx.dbs)
        finally:
            fx.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.normalize()
    return result


def build_fixture(workload, workdir: str, speed):
    """(fixture, set-up seconds at the reference speed)."""
    speed.sample()
    t0 = time.perf_counter()
    fx = workload.setup(workdir)
    t1 = time.perf_counter()
    speed.sample()
    slowness = (speed.factor_at(t0) + speed.factor_at(t1)) / 2
    return fx, (t1 - t0) / slowness


def sim_signature(result) -> tuple:
    """Everything simulated a round produced, for exact comparison."""
    return (tuple((k, s, name) for k, s, _w, name in result.samples),
            result.sim_elapsed_s, result.device_bytes, result.live_bytes,
            result.failed)


def best_of_rounds(rounds: list) -> list:
    """(kind, host seconds) per op: the fastest of the op's repetitions.
    Rounds repeat identical inputs, so op ``i`` of every round does the
    same work; taking each op's minimum removes the stalls that other
    tenants of the host impose on some repetitions and not others."""
    first = rounds[0].samples
    same = [r for r in rounds if len(r.samples) == len(first)]
    return [(first[i][0], min(r.samples[i][2] for r in same))
            for i in range(len(first))]


def end_to_end(rounds: list, setups: list) -> tuple[dict, dict]:
    """(metrics, notes) for the untraced rounds of one workload.
    Simulated figures come from the first round (every round must
    repeat them exactly); host latencies are per-op bests over rounds
    (:func:`best_of_rounds`), and host throughput is ops per second of
    those per-op bests."""
    first = rounds[0]
    sim = {"r": [], "w": []}
    for kind, s, _w, _name in first.samples:
        sim[kind].append(s)
    wall = {"r": [], "w": []}
    best = best_of_rounds(rounds)
    for kind, w in best:
        wall[kind].append(w)
    out, notes = {}, {}
    for kind, label in (("r", "read"), ("w", "write")):
        for clock, values in (("sim", sim[kind]), ("wall", wall[kind])):
            st = latency_stats(values)
            out[f"{clock}_{label}_p50_ms"] = (st["p50_ms"], "ms")
            out[f"{clock}_{label}_p99_ms"] = (st["tail_ms"], "ms")
            notes[f"{clock}_{label}_p99_ms"] = (
                f"p{st['tail_pct']:.1f} of {st['n']} samples")
    completed = len(first.samples)
    out["sim_ops_per_s"] = (completed / first.sim_elapsed_s
                            if first.sim_elapsed_s else 0.0, "1/s")
    busy = sum(w for _k, w in best)
    out["wall_ops_per_s"] = (completed / busy if busy else 0.0, "1/s")
    out["setup_s"] = (statistics.median(setups), "s")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    out["failed_ratio"] = (failed / attempted if attempted else 1.0, "ratio")
    out["space_amp"] = (first.device_bytes / first.live_bytes
                        if first.live_bytes else 0.0, "ratio")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    notes["wall_read_p50_ms"] = f"best of {len(rounds)} rounds per op"
    notes["setup_s"] = f"median of {len(setups)} set-ups"
    growth = create_growth(rounds)
    if growth:
        notes["wall_write_p50_ms"] = growth
    return out, notes


def create_growth(rounds: list) -> str:
    """Mean create cost of the last decile of creates over the first
    decile, on both clocks (how per-file costs grow with the number of
    files)."""
    creates = [(s, w) for r in rounds[:1] for _k, s, w, name in r.samples
               if name == "create"]
    d = len(creates) // 10
    if d == 0:
        return ""
    first, last = creates[:d], creates[-d:]
    sim = sum(s for s, _w in last) / sum(s for s, _w in first)
    wall = sum(w for _s, w in last) / sum(w for _s, w in first)
    return (f"create cost last/first decile: wall {wall:.2f}x, "
            f"sim {sim:.2f}x")


def run_untraced(workload, seconds: float, tmp_root: str):
    """Rounds until ``seconds`` have passed (at least MIN_ROUNDS), then
    extra fixture builds: at least MIN_SETUPS set-up times in all, more
    while the extra builds fit in EXTRA_SETUP_S (cheap fixtures get a
    steadier median).  Returns (rounds, set-up times, problems)."""
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        gc.collect()
        rounds.append(run_round(workload, tmp_root))
    setups = [r.setup_s for r in rounds]
    extra = time.perf_counter()
    while len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS
            and time.perf_counter() - extra < EXTRA_SETUP_S):
        gc.collect()
        setups.append(time_setup(workload, tmp_root))
    problems = []
    base = sim_signature(rounds[0])
    for i, r in enumerate(rounds[1:], 1):
        if sim_signature(r) != base:
            problems.append(f"round {i} repeated the same inputs with "
                            f"different simulated results")
    return rounds, setups, problems


def time_setup(workload, tmp_root: str) -> float:
    """Set-up seconds (at the reference speed) of one more fixture,
    which is then discarded."""
    from perfbench.hostspeed import HostSpeed
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root)
    try:
        fx, elapsed = build_fixture(workload, workdir, HostSpeed())
        fx.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return elapsed


def run_traced(workload, tmp_root: str, spans_path: str | None):
    """One untraced round, then the identical round traced."""
    from perfbench.layers import layer_metrics
    from perfbench.tracer import LayerTracer, LedgerError
    gc.collect()
    plain = run_round(workload, tmp_root)
    gc.collect()
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = run_round(workload, tmp_root, tracer)
    finally:
        tracer.uninstall()
    problems = []
    try:
        ledger = tracer.ledger()
    except LedgerError as exc:
        problems.append(f"ledger does not close: {exc}")
        ledger = []
    if sim_signature(traced) != sim_signature(plain):
        problems.append("tracing changed simulated results")
    metrics = layer_metrics(tracer, traced, plain)
    if spans_path:
        tracer.write_spans(spans_path)
    return plain, traced, metrics, ledger, problems


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (tests use tiny sizes)")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1: write every span, one JSON "
                             "line each, to this gzip file")
    args = parser.parse_args(argv)

    import_program()
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    work_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        return report(args, workload, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)   # only if no other run is using it


def report(args, workload, tmp_root: str) -> int:
    """Run the workload as ``args`` asks, print the human-readable lines
    and the result line, and return the exit code."""
    if args.trace:
        plain, traced, metrics, ledger, problems = run_traced(
            workload, tmp_root, args.spans)
        rounds = [plain, traced]
        print(f"# {workload.name} seed={args.seed}: traced per-layer metrics")
        for row in ledger:
            print(f"#   ledger clock {row['clock']}: elapsed "
                  f"{row['elapsed_s']:.9f} s = layers "
                  f"{row['attributed_s']:.9f} s "
                  f"(residual {row['residual_s']:.2e})")
        for name, (value, unit) in metrics.items():
            print(f"#   {name:44s} {_fmt(value):>14s} {unit}")
    else:
        rounds, setups, problems = run_untraced(workload, args.seconds,
                                                tmp_root)
        metrics, notes = end_to_end(rounds, setups)
        print(f"# {workload.name} seed={args.seed}: {len(rounds)} rounds of "
              f"{workload.nops} ops")
        for name, (value, unit) in metrics.items():
            note = notes.get(name, "")
            print(f"#   {name:20s} {_fmt(value):>14s} {unit:6s} {note}")
        metrics.pop("failed_ratio")

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        for err in r.errors:
            problems.append(err)
    for p in problems[:20]:
        print(f"# ERROR: {p}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
