"""Tests for the workload generators."""

import pytest

from repro.errors import InvalidArgumentError
from repro.units import KIB, MIB
from repro.workloads.cleaning import run_cleaning_rate_test
from repro.workloads.generator import FileSizeSampler, ZipfPicker
from repro.workloads.largefile import PHASES, run_large_file_test
from repro.workloads.office import run_office_workload
from repro.workloads.smallfile import run_small_file_test
from tests.conftest import small_lfs_config


class TestSmallFile:
    def test_runs_and_verifies(self, anyfs):
        result = run_small_file_test(anyfs, num_files=50, file_size=1024)
        assert result.create_per_second > 0
        assert result.read_per_second > 0
        assert result.delete_per_second > 0
        # All files were deleted at the end.
        assert anyfs.listdir("/small") == []

    def test_detects_corruption(self, lfs):
        result = run_small_file_test(lfs, num_files=10, file_size=512)
        assert result.num_files == 10


class TestLargeFile:
    def test_all_phases_measured(self, lfs):
        result = run_large_file_test(
            lfs, file_bytes=2 * MIB, request_bytes=8 * KIB
        )
        assert set(result.seconds) == set(PHASES)
        for phase in PHASES:
            assert result.kb_per_second(phase) > 0

    def test_lfs_write_rate_pattern_independent(self, lfs):
        result = run_large_file_test(
            lfs, file_bytes=4 * MIB, request_bytes=8 * KIB
        )
        seq = result.kb_per_second("seq_write")
        rand = result.kb_per_second("rand_write")
        # §5.2: "LFS's write bandwidth is independent of how the file is
        # written" (random can exceed sequential via cache overwrites).
        assert rand >= seq * 0.8

    def test_file_contents_survive(self, lfs):
        run_large_file_test(lfs, file_bytes=1 * MIB, request_bytes=8 * KIB)
        assert lfs.stat("/big").size == 1 * MIB


class TestCleaningRate:
    def test_zero_utilization_free(self, disk, cpu):
        from repro.lfs.filesystem import LogStructuredFS

        fs = LogStructuredFS.mkfs(disk, cpu, small_lfs_config())
        point = run_cleaning_rate_test(fs, 0.0, fill_segments=6)
        assert point.segments_cleaned >= 6
        # Only the /churn directory's own metadata can still be live.
        assert point.live_blocks_copied <= 4

    def test_utilization_controls_liveness(self, disk, cpu):
        from repro.lfs.filesystem import LogStructuredFS

        fs = LogStructuredFS.mkfs(disk, cpu, small_lfs_config())
        point = run_cleaning_rate_test(fs, 0.5, fill_segments=6)
        assert point.measured_utilization == pytest.approx(0.5, abs=0.08)
        assert point.live_blocks_copied > 0

    def test_rejects_bad_utilization(self, lfs):
        with pytest.raises(InvalidArgumentError):
            run_cleaning_rate_test(lfs, 1.0)

    def test_net_rate_below_gross(self, disk, cpu):
        from repro.lfs.filesystem import LogStructuredFS

        fs = LogStructuredFS.mkfs(disk, cpu, small_lfs_config())
        point = run_cleaning_rate_test(fs, 0.6, fill_segments=6)
        seg = fs.config.segment_size
        assert point.clean_kb_per_second(seg) < point.gross_kb_per_second(seg)


class TestOffice:
    def test_steady_state_churn(self, anyfs):
        result = run_office_workload(
            anyfs, operations=400, target_population=60, seed=3
        )
        assert result.files_created > 0
        assert result.files_deleted > 0
        assert result.final_live_files <= 60
        assert result.ops_per_second > 0
        assert len(anyfs.listdir("/office")) == result.final_live_files

    def test_lfs_reports_write_cost(self, lfs):
        result = run_office_workload(lfs, operations=300, target_population=50)
        assert result.write_cost is not None
        assert result.write_cost > 0


class TestGenerators:
    def test_file_sizes_in_bands(self):
        sampler = FileSizeSampler(seed=1)
        sizes = [sampler.sample() for _ in range(500)]
        assert all(1 * KIB <= size <= 1024 * KIB for size in sizes)
        small = sum(1 for size in sizes if size <= 8 * KIB)
        assert small / len(sizes) > 0.6  # §3: mostly small files

    def test_deterministic(self):
        first, second = FileSizeSampler(seed=7), FileSizeSampler(seed=7)
        assert [first.sample() for _ in range(20)] == [
            second.sample() for _ in range(20)
        ]

    def test_bad_bands_rejected(self):
        with pytest.raises(InvalidArgumentError):
            FileSizeSampler(bands=[(0.5, 1024, 2048)])

    def test_zipf_skews_low(self):
        picker = ZipfPicker(seed=2)
        picks = [picker.pick(100) for _ in range(2000)]
        low = sum(1 for pick in picks if pick < 20)
        assert low / len(picks) > 0.4
        assert all(0 <= pick < 100 for pick in picks)

    def test_zipf_bounds(self):
        picker = ZipfPicker(seed=0)
        assert picker.pick(1) == 0
        with pytest.raises(InvalidArgumentError):
            picker.pick(0)
        with pytest.raises(InvalidArgumentError):
            ZipfPicker(skew=0)
