"""Unit tests for checkpoint regions (§4.4.1)."""

import pytest

from repro.disk.geometry import wren_iv
from repro.disk.sim_disk import SimDisk
from repro.errors import CheckpointError, CorruptionError
from repro.lfs.checkpoint import CheckpointData, CheckpointManager
from repro.lfs.config import LfsConfig, LfsLayout
from repro.lfs.segments import LogPosition
from repro.sim.clock import SimClock
from repro.units import MIB


def make_data(timestamp: float = 1.0, seq: int = 5) -> CheckpointData:
    return CheckpointData(
        timestamp=timestamp,
        position=LogPosition(
            active_segment=2, active_offset=17, next_segment=3, sequence=seq
        ),
        imap_addrs=[0, 100, 200],
        usage_addrs=[300],
    )


@pytest.fixture
def manager():
    clock = SimClock()
    disk = SimDisk(wren_iv(64 * MIB), clock)
    config = LfsConfig()
    layout = LfsLayout.for_device(config, disk.device.total_bytes)
    return CheckpointManager(layout, disk, clock)


class TestSerialization:
    def test_roundtrip(self, manager):
        data = make_data()
        packed = data.pack(manager.region_bytes)
        assert len(packed) == manager.region_bytes
        parsed = CheckpointData.unpack(packed)
        assert parsed == data

    def test_corruption_detected(self, manager):
        packed = bytearray(make_data().pack(manager.region_bytes))
        packed[100] ^= 0x01
        with pytest.raises(CorruptionError):
            CheckpointData.unpack(bytes(packed))

    def test_bad_magic(self, manager):
        with pytest.raises(CorruptionError):
            CheckpointData.unpack(b"\x00" * manager.region_bytes)

    def test_oversized_rejected(self):
        data = CheckpointData(
            timestamp=0.0,
            position=LogPosition(0, 0, 1, 1),
            imap_addrs=list(range(10000)),
        )
        with pytest.raises(CorruptionError):
            data.pack(1024)


class TestAlternation:
    def test_write_load_roundtrip(self, manager):
        manager.write(make_data(timestamp=1.0))
        loaded, region = manager.load_latest()
        assert loaded.timestamp == 1.0
        assert region == 0

    def test_alternates_regions(self, manager):
        manager.write(make_data(timestamp=1.0))
        manager.write(make_data(timestamp=2.0, seq=6))
        loaded, region = manager.load_latest()
        assert loaded.timestamp == 2.0
        assert region == 1
        # Next write goes back to region 0.
        manager.write(make_data(timestamp=3.0, seq=7))
        loaded, region = manager.load_latest()
        assert loaded.timestamp == 3.0
        assert region == 0

    def test_newest_wins(self, manager):
        manager.write(make_data(timestamp=5.0))
        manager.write(make_data(timestamp=2.0))  # older content, region 1
        loaded, _region = manager.load_latest()
        assert loaded.timestamp == 5.0

    def test_torn_checkpoint_falls_back(self, manager):
        manager.write(make_data(timestamp=1.0))
        # A crash mid-write of region 1: garbage there.
        manager.disk.write(
            manager._region_sector(1), b"\xde\xad" * 2048, sync=True
        )
        loaded, region = manager.load_latest()
        assert loaded.timestamp == 1.0
        assert region == 0

    def test_no_checkpoint_raises(self, manager):
        with pytest.raises(CheckpointError):
            manager.load_latest()

    def test_write_is_synchronous(self, manager):
        before = manager.clock.now()
        manager.write(make_data())
        assert manager.clock.now() > before
        assert manager.disk.stats.sync_requests >= 1

    def test_counters(self, manager):
        manager.write(make_data(timestamp=4.0))
        assert manager.stats.writes == 1
        assert manager.last_checkpoint_time == 4.0
