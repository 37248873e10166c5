"""Cluster simulation: grouping, live migration, jobs determinism.

These are the acceptance tests the issue pins:

* a mid-load migration finishes with **both** shard images passing
  ``verify_lfs`` and zero lost acked writes (every issued request
  completes — parked requests are resubmitted at cutover, not
  dropped);
* the same seeded run renders **byte-identically** for ``jobs=1`` and
  ``jobs>1`` — stats text, merged telemetry report and per-shard image
  hashes alike.
"""

from repro.cluster import (
    ClusterConfig,
    MigrationSpec,
    build_groups,
    run_cluster,
)
from repro.obs import render_report


def test_build_groups_merges_migration_pairs():
    config = ClusterConfig(shards=4, clients=8)
    assert build_groups(config) == [(0,), (1,), (2,), (3,)]
    config = ClusterConfig(
        shards=4,
        clients=8,
        migrations=(MigrationSpec(2, 0, 0.1),),
    )
    assert build_groups(config) == [(0, 2), (1,), (3,)]
    config = ClusterConfig(
        shards=6,
        clients=8,
        migrations=(MigrationSpec(5, 1, 0.1), MigrationSpec(0, 3, 0.2)),
    )
    assert build_groups(config) == [(0, 3), (1, 5), (2,), (4,)]


def test_plain_cluster_run_completes_and_verifies():
    config = ClusterConfig(
        shards=2, clients=6, seed=3, requests_per_client=8
    )
    result = run_cluster(config)
    assert result.completed == 6 * 8
    assert result.consistent
    assert result.elapsed > 0
    assert len(result.shards) == 2
    for row in result.shards:
        assert row["stats"].dropped == 0
        assert row["verify_errors"] == []
    assert (
        result.telemetry.gauge("cluster.shards").value == 2
    )


def test_live_migration_loses_nothing_and_verifies_both_sides():
    config = ClusterConfig(
        shards=2,
        clients=8,
        seed=0,
        requests_per_client=12,
        migrations=(MigrationSpec(1, 0, 0.05),),
    )
    result = run_cluster(config)
    # Zero lost acked writes: every issued request completed, nothing
    # dropped, on either side of the cutover.
    assert result.completed == 8 * 12
    for row in result.shards:
        assert row["stats"].dropped == 0
    # Both images — the drained source and the adopting target — pass
    # the offline consistency check.
    assert result.consistent
    summary = result.migrations[0]
    assert summary["source"] == 1 and summary["target"] == 0
    assert summary["clients"] > 0
    assert summary["files"] > 0 and summary["bytes"] > 0
    assert summary["cutover"] > summary["started"] > 0
    telemetry = result.telemetry
    assert telemetry.counter("cluster.migrations").value == 1
    assert telemetry.counter("cluster.routing_flips").value == 1
    assert (
        telemetry.counter("cluster.migrated_files").value
        == summary["files"]
    )
    # The drain window parks at least one request per frozen client
    # tick, so the redirect path (and its latency component) is hit.
    assert summary["redirected"] > 0
    assert (
        telemetry.counter("cluster.redirected_requests").value
        == summary["redirected"]
    )


def test_migration_at_time_zero_completes(monkeypatch):
    # Regression: a freeze due at the instant serving starts used to
    # spin the run loop forever (its timer never came due "later").
    from repro.cluster import sim as cluster_sim

    migrators = []

    class Recorded(cluster_sim.ShardMigrator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            migrators.append(self)

    monkeypatch.setattr(cluster_sim, "ShardMigrator", Recorded)
    config = ClusterConfig(
        shards=2,
        clients=8,
        seed=0,
        requests_per_client=10,
        migrations=(MigrationSpec(1, 0, 0.0),),
    )
    result = run_cluster(config)
    assert result.completed == 8 * 10
    for row in result.shards:
        assert row["stats"].dropped == 0
        assert row["verify_errors"] == []
    assert [migrator.state for migrator in migrators] == ["DONE"]
    assert result.migrations[0]["clients"] > 0


def test_jobs_output_is_byte_identical():
    config = ClusterConfig(
        shards=3,
        clients=9,
        seed=7,
        requests_per_client=8,
        migrations=(MigrationSpec(2, 0, 0.05),),
    )
    serial = run_cluster(config, jobs=1)
    fanned = run_cluster(config, jobs=3)
    assert serial.render() == fanned.render()
    assert render_report(serial.telemetry) == render_report(
        fanned.telemetry
    )
    assert [row["image_sha"] for row in serial.shards] == [
        row["image_sha"] for row in fanned.shards
    ]
