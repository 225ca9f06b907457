"""``python -m repro.bench.report --profile`` accepts every bench.

The profile targets are derived from ``BENCH_MODULES``; this pins that
list to the package itself, so a new bench module with a ``main`` that
is not registered fails here instead of being rejected by argparse."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro.bench
from repro.bench import report

#: modules with a ``main`` that are not artifact benches: the figure
#: and table CLI, and this reporting CLI itself.
NOT_BENCHES = {"__main__", "report"}


def _modules_with_main() -> list[str]:
    names = []
    for info in pkgutil.iter_modules(repro.bench.__path__):
        if info.name in NOT_BENCHES:
            continue
        module = importlib.import_module(f"repro.bench.{info.name}")
        if callable(getattr(module, "main", None)):
            names.append(info.name)
    return sorted(names)


def test_every_bench_module_is_a_profile_target():
    names = _modules_with_main()
    assert "vfsio" in names and "replication" in names
    assert sorted(report.PROFILE_TARGETS) == names


@pytest.mark.parametrize("name", _modules_with_main())
def test_profile_flag_accepts_bench(monkeypatch, name):
    calls = []
    monkeypatch.setattr(report, "profile_bench",
                        lambda bench, **kw: calls.append(bench) or 0)
    assert report.main(["--profile", name]) == 0
    assert calls == [name]
