"""Unit tests for the disk timing model."""

import pytest

from repro.disk.geometry import wren_iv
from repro.disk.sim_disk import AccessTier, SimDisk
from repro.obs import Telemetry
from repro.sim.clock import SimClock
from repro.units import KIB, MIB


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def disk(clock):
    return SimDisk(wren_iv(64 * MIB), clock)


class TestServiceTime:
    def test_sequential_cheaper_than_far(self, disk):
        far, far_tier = disk.service_time(100000, 4 * KIB)
        disk._head_pos = 100000
        seq, seq_tier = disk.service_time(100000, 4 * KIB)
        assert seq < far
        assert far_tier is AccessTier.FAR
        assert seq_tier is AccessTier.SEQUENTIAL

    def test_near_between_seq_and_far(self, disk):
        geometry = disk.geometry
        disk._head_pos = 1000
        near, tier = disk.service_time(1000 + 100, 4 * KIB)
        assert tier is AccessTier.NEAR
        seq, _ = disk.service_time(1000, 4 * KIB)
        far, _ = disk.service_time(1000 + geometry.near_distance + 1, 4 * KIB)
        assert seq < near < far

    def test_transfer_scales_with_size(self, disk):
        small, _ = disk.service_time(0, 4 * KIB)
        large, _ = disk.service_time(0, 1 * MIB)
        expected = disk.geometry.transfer_time(1 * MIB - 4 * KIB)
        assert large - small == pytest.approx(expected)

    def test_large_sequential_dominated_by_bandwidth(self, disk):
        # The paper's segment-sizing rule: the seek must be amortized.
        duration, _ = disk.service_time(10**5, 1 * MIB)
        positioning = disk.geometry.avg_seek + disk.geometry.rotation / 2
        assert positioning / duration < 0.05


class TestSyncVsAsync:
    def test_sync_write_blocks_caller(self, disk, clock):
        disk.write(0, b"x" * 4096, sync=True)
        assert clock.now() > 0.0

    def test_async_write_does_not_block(self, disk, clock):
        disk.write(0, b"x" * 4096, sync=False)
        assert clock.now() == 0.0
        assert disk.busy_until > 0.0

    def test_read_blocks_caller(self, disk, clock):
        disk.read(0, 8)
        assert clock.now() > 0.0

    def test_read_ahead_alone_is_async(self, clock):
        telemetry = Telemetry(trace_io=True)
        disk = SimDisk(wren_iv(64 * MIB), clock, telemetry=telemetry)
        disk.read(0, 16, demand=0)
        assert clock.now() == 0.0
        assert disk.busy_until > 0.0
        assert disk.stats.reads == 1
        assert disk.stats.sync_requests == 0
        assert not telemetry.tracer.spans[-1].attrs["sync"]
        disk.read(16, 16, demand=8)  # the caller waits for part of it
        assert disk.stats.sync_requests == 1

    def test_read_waits_for_queued_writes(self, disk, clock):
        disk.write(0, b"x" * 1 * MIB, sync=False)
        write_done = disk.busy_until
        disk.read(0, 8)
        assert clock.now() > write_done

    def test_drain_advances_to_busy_until(self, disk, clock):
        disk.write(0, b"x" * 4096, sync=False)
        target = disk.busy_until
        disk.drain()
        assert clock.now() == pytest.approx(target)

    def test_queue_delay(self, disk, clock):
        assert disk.busy_until == clock.now()
        disk.write(0, b"x" * 1 * MIB, sync=False)
        assert disk.busy_until > clock.now()

    def test_idle_flag(self, disk, clock):
        assert disk.busy_until <= clock.now()
        disk.write(0, b"x" * 4096, sync=False)
        assert disk.busy_until > clock.now()
        disk.drain()
        assert disk.busy_until <= clock.now()


class TestStats:
    def test_counts_and_bytes(self, disk):
        disk.write(0, b"x" * 4096, sync=True)
        disk.read(0, 8)
        assert disk.stats.writes == 1
        assert disk.stats.reads == 1
        assert disk.stats.bytes_written == 4096
        assert disk.stats.bytes_read == 4096
        assert disk.stats.sync_requests == 2  # reads always sync

    def test_tier_counts(self, disk):
        disk.write(0, b"x" * 4096)  # head starts at 0: sequential
        disk.write(8, b"x" * 4096)  # sequential
        disk.write(100000, b"x" * 4096)  # far
        tiers = disk.stats.tier_counts
        assert tiers.get("sequential") == 2
        assert tiers.get("far") == 1


    def test_vectored_reads_counted(self, disk):
        disk.write(0, b"x" * 4096, sync=True)
        disk.read(0, 8)
        assert disk.stats.vectored_reads == 0
        disk.read(0, 8, vectored=True)
        disk.read(8, 8, vectored=True)
        assert disk.stats.vectored_reads == 2


class TestCrash:
    def test_crash_drops_inflight_async_write(self, disk, clock):
        disk.write(0, b"y" * 4096, sync=False)
        disk.crash()  # clock never advanced: write incomplete
        disk.revive()
        assert disk.read(0, 8) == b"\x00" * 4096

    def test_crash_preserves_completed_write(self, disk, clock):
        disk.write(0, b"y" * 4096, sync=True)
        disk.crash()
        disk.revive()
        assert disk.read(0, 8) == b"y" * 4096


class TestTrace:
    def test_events_recorded(self, clock):
        telemetry = Telemetry(trace_io=True)
        disk = SimDisk(wren_iv(64 * MIB), clock, telemetry=telemetry)
        disk.write(0, b"x" * 4096, sync=True, label="meta")
        disk.read(0, 8, label="back")
        assert len(telemetry.tracer.spans) == 2
        write, read = telemetry.tracer.spans
        assert write.kind == "disk.write" and write.attrs["sync"]
        assert write.attrs["label"] == "meta"
        assert read.kind == "disk.read" and read.attrs["label"] == "back"

    def test_geometry_validation(self, clock):
        geometry = wren_iv(64 * MIB)
        from repro.disk.device import SectorDevice

        tiny = SectorDevice(num_sectors=8)
        with pytest.raises(ValueError):
            SimDisk(geometry, clock, device=tiny)
