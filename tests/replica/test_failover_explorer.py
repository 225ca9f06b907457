"""Failover crash exploration: kill the primary at sampled write
boundaries, promote the most caught-up replica, and require (a) the
promoted state to be an oracle-allowed state, (b) zero lost committed
transactions (promoted state == local recovery of the dead primary's
media), (c) surviving followers to converge from their cursors, and
(d) clean storage invariants.  ``-m torture`` opts into the full sweep
of every boundary."""

import pytest

from repro.testkit.failover import FailoverCrashExplorer
from repro.testkit.workload import commit_workload, vacuum_workload

#: sampled boundaries per CI run — each is a full build/seed/crash/
#: promote/verify cycle with two replicas.
CI_POINTS = 6


def _assert_clean(report):
    assert report.violations == [], "\n".join(
        f"point {v.point}: {v.detail}" for v in report.violations)


def test_commit_failover_no_lost_transactions(tmp_path):
    explorer = FailoverCrashExplorer(str(tmp_path), commit_workload(),
                                     nreplicas=2)
    report = explorer.explore(max_points=CI_POINTS)
    assert report.total_writes >= CI_POINTS
    _assert_clean(report)
    crashed = [r for r in report.results if not r.completed]
    assert crashed, "no crash point actually fired"
    for result in crashed:
        assert result.matches_local_recovery
        assert result.followers_converged


def test_torn_append_failover(tmp_path):
    """Torn status tails ship too (the feed is exactly the media), so
    the in-flight transaction may land on either side — and the replica
    must agree with local recovery about which side it landed on."""
    explorer = FailoverCrashExplorer(str(tmp_path), commit_workload(),
                                     nreplicas=2, torn_append=True)
    _assert_clean(explorer.explore(max_points=4))


def test_vacuum_failover_replays_rename_journal(tmp_path):
    """Crashes inside vacuum's heap+index swap window: promotion must
    finish the shipped rename journal exactly like local recovery."""
    explorer = FailoverCrashExplorer(str(tmp_path), vacuum_workload(),
                                     nreplicas=1)
    _assert_clean(explorer.explore(max_points=4))


@pytest.mark.parametrize("point", [51, 97])
def test_followers_resume_after_promotion_mid_vacuum_swap(tmp_path, point):
    """Crashes that leave vacuum's rename journal half-replayed: the
    renames promotion finishes must reach the new feed, or a follower
    resumes against the pre-swap relation ("page N out of range")."""
    explorer = FailoverCrashExplorer(str(tmp_path), vacuum_workload(),
                                     nreplicas=2)
    result = explorer.run_crash_point(point)
    assert not result.completed, "the crash point no longer fires"
    assert result.followers_converged, result.detail
    assert result.ok, result.detail


@pytest.mark.torture
@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
def test_exhaustive_commit_failover(tmp_path, torn):
    explorer = FailoverCrashExplorer(str(tmp_path), commit_workload(),
                                     nreplicas=2, torn_append=torn)
    _assert_clean(explorer.explore())


@pytest.mark.torture
def test_exhaustive_vacuum_failover(tmp_path):
    explorer = FailoverCrashExplorer(str(tmp_path), vacuum_workload(),
                                     nreplicas=2)
    _assert_clean(explorer.explore())
