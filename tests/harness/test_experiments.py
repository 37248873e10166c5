"""Smoke tests for the experiment harness (small parameters).

The benchmarks run the full-size experiments; these tests pin the
harness's structure and the direction of each paper claim at a scale
that keeps the unit suite fast.
"""

import pytest

from repro.harness import (
    ablation_cleaner_policy,
    fig1_fig2_creation_traces,
    fig3_small_file,
    fig5_cleaning_rate,
    new_rig,
    recovery_comparison,
    sec31_cpu_scaling,
)
from repro.units import KIB, MIB

# Figures 1 and 2 at 48 MiB, byte for byte.
FFS_TABLE = """\
     time  op    mode  position            sector      size  label
------------------------------------------------------------------
 334.7 ms  write sync  sequential sector    32800    8.0 KB  new inode 1026
 344.9 ms  write sync  near       sector    33136    8.0 KB  directory 1024 data
 367.0 ms  write sync  near       sector    32800    8.0 KB  new inode 1027
 384.4 ms  write sync  near       sector    33152    8.0 KB  directory 1025 data
 403.9 ms  write async sequential sector    33168    8.0 KB  writeback data 1026
 403.9 ms  write async sequential sector    33184    8.0 KB  writeback data 1027
 403.9 ms  write async near       sector    32800    8.0 KB  writeback inode 0
 403.9 ms  write async near       sector    32784    8.0 KB  cg header 1"""
LFS_TABLE = """\
     time  op    mode  position            sector      size  label
------------------------------------------------------------------
 113.9 ms  write async sequential sector     2136   28.0 KB  segment:0+11 seq=3"""
FFS_IMAGE = "........................S..............................................."
LFS_IMAGE = ".w......................................................................"


class TestRig:
    def test_builds_both_kinds(self):
        for kind in ("lfs", "ffs"):
            rig = new_rig(kind, total_bytes=48 * MIB)
            rig.fs.write_file("/x", b"hello")
            assert rig.fs.read_file("/x") == b"hello"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            new_rig("zfs")

    def test_speed_factor_plumbs_through(self):
        rig = new_rig("lfs", total_bytes=48 * MIB, speed_factor=4.0)
        assert rig.cpu.speed_factor == 4.0


class TestCreationTraces:
    def test_paper_shape(self):
        results = fig1_fig2_creation_traces(total_bytes=48 * MIB)
        assert results["ffs"].sync_writes == 4
        assert results["ffs"].write_requests >= 8
        assert results["lfs"].write_requests == 1
        assert results["lfs"].sync_writes == 0

    def test_trace_tables_render(self):
        results = fig1_fig2_creation_traces(total_bytes=48 * MIB)
        ffs, lfs = results["ffs"], results["lfs"]
        assert ffs.table == FFS_TABLE
        assert ffs.disk_image == FFS_IMAGE
        assert lfs.table == LFS_TABLE
        assert lfs.disk_image == LFS_IMAGE
        counts = [
            (r.write_requests, r.sync_writes, r.random_writes, r.bytes_written)
            for r in (ffs, lfs)
        ]
        assert counts == [(8, 4, 5, 65536), (1, 0, 0, 28672)]

    def test_telemetry_without_trace_io_is_refused(self):
        from repro.obs import Telemetry

        with pytest.raises(ValueError):
            fig1_fig2_creation_traces(total_bytes=48 * MIB, telemetry=Telemetry())


class TestSmallFileDirection:
    def test_lfs_beats_ffs_on_create_delete(self):
        results = fig3_small_file(
            num_files=300, file_size=1 * KIB, total_bytes=64 * MIB
        )
        assert (
            results["lfs"].create_per_second
            > 3 * results["ffs"].create_per_second
        )
        assert (
            results["lfs"].delete_per_second
            > 3 * results["ffs"].delete_per_second
        )


class TestCleaningSweepDirection:
    def test_rate_decreases_with_utilization(self):
        points = fig5_cleaning_rate(
            (0.2, 0.6), total_bytes=48 * MIB, fill_segments=6
        )
        from repro.lfs.config import LfsConfig

        seg = LfsConfig().segment_size
        low, high = points
        assert low[0].clean_kb_per_second(seg) > high[0].clean_kb_per_second(
            seg
        )


class TestCpuScalingDirection:
    def test_lfs_scales_ffs_does_not(self):
        points = sec31_cpu_scaling(
            (1.0, 8.0), num_files=40, total_bytes=48 * MIB
        )
        lfs_speedup = (
            points[0].lfs_ms_per_create_delete
            / points[1].lfs_ms_per_create_delete
        )
        ffs_speedup = (
            points[0].ffs_ms_per_create_delete
            / points[1].ffs_ms_per_create_delete
        )
        assert lfs_speedup > 3.0
        assert ffs_speedup < 2.0


class TestRecoveryDirection:
    def test_lfs_recovers_faster(self):
        points = recovery_comparison(
            (60,), total_bytes=48 * MIB, files_after_checkpoint=10
        )
        point = points[0]
        assert point.lfs_recovery_seconds < point.ffs_fsck_seconds
        assert point.lfs_partials_replayed >= 1


class TestPolicyAblation:
    def test_all_policies_run(self):
        points = ablation_cleaner_policy(
            policies=("greedy", "random"),
            operations=1200,
            total_bytes=24 * MIB,
            segment_size=256 * KIB,
        )
        assert {point.policy for point in points} == {"greedy", "random"}
        for point in points:
            assert point.ops_per_second > 0
