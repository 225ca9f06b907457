"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

TINY = 0.05


@pytest.fixture
def tmp_root(tmp_path):
    return str(tmp_path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_root):
    rounds, setups, problems = bench.run_untraced(WORKLOADS[name](3, TINY),
                                                  0, tmp_root)
    assert problems == []
    assert len(rounds) == bench.MIN_ROUNDS
    for r in rounds:
        assert r.failed == 0, r.errors
        assert r.attempted == len(r.samples) > 0
    assert bench.MIN_SETUPS <= len(setups) <= bench.MAX_SETUPS
    metrics, _notes = bench.end_to_end(rounds, setups)
    assert metrics["failed_ratio"][0] == 0
    for key in ("sim_write_p50_ms", "sim_ops_per_s", "space_amp",
                "wall_ops_per_s", "setup_s"):
        assert metrics[key][0] > 0, key
    assert os.listdir(tmp_root) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_closes_ledger_and_changes_nothing(name, tmp_root):
    plain, traced, metrics, ledger, problems = bench.run_traced(
        WORKLOADS[name](3, TINY), tmp_root, None)
    assert problems == []
    assert bench.sim_signature(plain) == bench.sim_signature(traced)
    assert ledger and all(abs(row["residual_s"]) <= 1e-9 for row in ledger)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["bench.spans"][0] > 0


def _cli(tmp_path, *args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
        env={**os.environ, **(env or {})})


def test_same_seed_twice_gives_identical_simulated_results(tmp_path):
    """Two processes (different string-hash seeds) on one workload seed:
    every simulated metric and every layer's span count must agree."""
    outs = []
    for hashseed in ("1", "2"):
        proc = _cli(tmp_path, "--workload", "contention", "--seed", "5",
                    "--trace", "1", "--scale", str(TINY),
                    env={"PYTHONHASHSEED": hashseed})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(json.loads(proc.stdout.splitlines()[-1])["metrics"])
    keys = [k for k in PER_LAYER
            if k.endswith((".sim_self_s", ".calls")) or k == "bench.spans"
            or k.startswith("sim.cpu.")]
    for key in keys:
        assert outs[0][key] == outs[1][key], key


def test_sabotaged_read_is_counted_and_fails_the_command(monkeypatch,
                                                         capsys):
    from repro.core.client import RemoteInversionClient
    original = RemoteInversionClient.p_read
    calls = {"n": 0}

    def corrupt_one(self, fd, length):
        data = original(self, fd, length)
        calls["n"] += 1
        if calls["n"] == 7 and data:
            data = bytes([data[0] ^ 0xFF]) + data[1:]
        return data

    monkeypatch.setattr(RemoteInversionClient, "p_read", corrupt_one)
    code = bench.main(["--workload", "namespace", "--seed", "3",
                       "--seconds", "0", "--scale", str(TINY)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1


def test_benchmark_json_matches_the_code(tmp_root):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    rounds, setups, _ = bench.run_untraced(WORKLOADS["contention"](1, TINY),
                                           0, tmp_root)
    metrics, _ = bench.end_to_end(rounds, setups)
    metrics.pop("failed_ratio")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_v, unit) in metrics.items()}


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path, "--workload", "namespace", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
