"""Unit tests for disk geometry parameters."""

import pytest

from repro.disk.geometry import (
    DiskGeometry,
    FAST_1990S_DISK,
    NULL_TIMING,
    WREN_IV,
    wren_iv,
)
from repro.disk.sim_disk import AccessTier, SimDisk
from repro.sim.clock import SimClock
from repro.units import MIB


class TestWrenIV:
    def test_paper_parameters(self):
        # §5: 1.3 MB/s max transfer, 17.5 ms average seek, ~300 MB fs.
        assert WREN_IV.bandwidth == pytest.approx(1.3 * MIB)
        assert WREN_IV.avg_seek == pytest.approx(0.0175)
        assert WREN_IV.total_bytes == 300 * MIB

    def test_custom_size(self):
        assert wren_iv(64 * MIB).num_sectors == 64 * MIB // 512


class TestValidation:
    def test_rejects_unaligned_total(self):
        with pytest.raises(ValueError):
            DiskGeometry(name="bad", total_bytes=1000)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            DiskGeometry(name="bad", total_bytes=1 * MIB, bandwidth=0)

    def test_rejects_negative_seek(self):
        with pytest.raises(ValueError):
            DiskGeometry(name="bad", total_bytes=1 * MIB, avg_seek=-1.0)


class TestDerived:
    def test_transfer_time(self):
        geometry = DiskGeometry(
            name="g", total_bytes=1 * MIB, bandwidth=1 * MIB
        )
        assert geometry.transfer_time(512 * 1024) == pytest.approx(0.5)

    def test_transfer_time_rejects_negative(self):
        with pytest.raises(ValueError):
            WREN_IV.transfer_time(-1)

    def test_request_gap_quarter_rotation(self):
        assert WREN_IV.request_gap == pytest.approx(WREN_IV.rotation / 4)

    def test_random_access_time(self):
        # A far access costs an average seek and half a rotation.
        geometry = wren_iv(8 * MIB)
        disk = SimDisk(geometry, SimClock())
        far, tier = disk.service_time(geometry.num_sectors - 1, 0)
        assert tier is AccessTier.FAR
        assert far == pytest.approx(geometry.avg_seek + geometry.rotation / 2)

    def test_null_timing_is_free(self):
        assert NULL_TIMING.avg_seek + NULL_TIMING.rotation / 2 == 0.0
        assert NULL_TIMING.transfer_time(10 * MIB) < 1e-6

    def test_fast_disk_faster_than_wren(self):
        assert FAST_1990S_DISK.bandwidth > WREN_IV.bandwidth
        assert FAST_1990S_DISK.avg_seek < WREN_IV.avg_seek


class TestReadExtents:
    BS = 4096

    def test_reads_through_a_gap_no_slower_than_a_near_access(self):
        # WREN IV: a near access (3 ms seek + 8.35 ms half turn) costs
        # about 3.7 blocks of transfer, so a 3-block gap is read
        # through and a 4-block gap ends the extent.
        assert WREN_IV.read_extents([0, 4, 9], self.BS) == [(0, 5), (9, 10)]
        assert WREN_IV.read_extents(range(5, 8), self.BS) == [(5, 8)]

    def test_free_positioning_never_reads_a_gap(self):
        assert NULL_TIMING.read_extents([0, 1, 3], self.BS) == [(0, 2), (3, 4)]

    def test_rejects_blocks_out_of_order(self):
        with pytest.raises(ValueError):
            WREN_IV.read_extents([4, 2], self.BS)
