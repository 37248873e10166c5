"""End-to-end hardening tests: checkpoint fallback, roll-forward under
log-tail damage, and cleaner-side quarantine of unreadable segments."""

import pytest

from repro.disk.geometry import wren_iv
from repro.disk.sim_disk import SimDisk
from repro.errors import CheckpointError, MediaError
from repro.faults import FaultConfig, FaultInjector, FaultyDevice
from repro.lfs.checkpoint import CheckpointData, CheckpointManager
from repro.lfs.config import LfsConfig, LfsLayout
from repro.lfs.filesystem import LogStructuredFS
from repro.lfs.segments import LogPosition
from repro.sim.clock import SimClock
from repro.sim.cpu import CpuModel
from repro.units import MIB
from tests.conftest import small_lfs_config


def faulty_rig(total_bytes=32 * MIB, config=None):
    """A small LFS whose device takes injected faults."""
    geometry = wren_iv(total_bytes)
    clock = SimClock()
    cpu = CpuModel(clock)
    injector = FaultInjector(config or FaultConfig())
    device = FaultyDevice(
        geometry.num_sectors, geometry.sector_size, injector=injector
    )
    disk = SimDisk(geometry, clock, device=device)
    fs = LogStructuredFS.mkfs(disk, cpu, small_lfs_config())
    return fs, device, injector


def make_data(timestamp: float, seq: int = 5) -> CheckpointData:
    return CheckpointData(
        timestamp=timestamp,
        position=LogPosition(
            active_segment=2, active_offset=17, next_segment=3, sequence=seq
        ),
        imap_addrs=[0, 100, 200],
        usage_addrs=[300],
    )


class TestCheckpointFallback:
    def make_manager(self):
        clock = SimClock()
        geometry = wren_iv(64 * MIB)
        injector = FaultInjector()
        device = FaultyDevice(
            geometry.num_sectors, geometry.sector_size, injector=injector
        )
        disk = SimDisk(geometry, clock, device=device)
        config = LfsConfig()
        layout = LfsLayout.for_device(config, device.total_bytes)
        return CheckpointManager(layout, disk, clock), device, injector

    def test_bit_flip_in_newest_region_falls_back(self):
        manager, device, _injector = self.make_manager()
        manager.write(make_data(1.0))
        manager.write(make_data(2.0, seq=6))  # newest, region 1
        device.flip_bit(manager._region_sector(1) + 1, bit=3)
        loaded, region = manager.load_latest()
        assert loaded.timestamp == 1.0
        assert region == 0
        assert manager.last_load_rejects == 1

    def test_unreadable_region_falls_back(self):
        manager, _device, injector = self.make_manager()
        manager.write(make_data(1.0))
        manager.write(make_data(2.0, seq=6))
        injector.mark_unreadable(manager._region_sector(1))
        loaded, region = manager.load_latest()
        assert loaded.timestamp == 1.0
        assert region == 0
        assert manager.last_load_rejects == 1

    def test_both_regions_bad_raises_with_reasons(self):
        manager, device, injector = self.make_manager()
        manager.write(make_data(1.0))
        manager.write(make_data(2.0, seq=6))
        injector.mark_unreadable(manager._region_sector(0))
        device.flip_bit(manager._region_sector(1) + 1, bit=0)
        with pytest.raises(CheckpointError) as excinfo:
            manager.load_latest()
        message = str(excinfo.value)
        assert "region 0" in message and "region 1" in message

    def test_end_to_end_mount_survives_corrupt_newest_region(self):
        fs, device, _injector = faulty_rig()
        fs.write_file("/keep", b"k" * 2000)
        fs.checkpoint()
        newest = 1 - fs.checkpoints._next_region  # region just written
        device.flip_bit(fs.checkpoints._region_sector(newest) + 2, bit=1)
        fs.crash()
        device.revive()
        again = LogStructuredFS.mount(fs.disk, fs.cpu, small_lfs_config())
        assert again.checkpoints.last_load_rejects == 1
        assert again.read_file("/keep") == b"k" * 2000


class TestRollForwardUnderDamage:
    def test_corrupt_summary_ends_scan_instead_of_crashing(self):
        fs, device, _injector = faulty_rig()
        fs.write_file("/base", b"base")
        fs.checkpoint()
        tail_seg = fs.segments.position.active_segment
        tail_offset = fs.segments.position.active_offset
        fs.write_file("/tail", b"t" * 4000)
        fs.sync()
        # Flip a bit inside the tail partial's summary block: its CRC
        # fails, so recovery must treat the log as ending there.
        first_block = fs.layout.segment_first_block(tail_seg) + tail_offset
        device.flip_bit(first_block * fs.config.sectors_per_block, bit=9)
        fs.crash()
        device.revive()
        again = LogStructuredFS.mount(fs.disk, fs.cpu, small_lfs_config())
        assert again.last_recovery.partials_applied == 0
        assert again.read_file("/base") == b"base"
        assert not again.exists("/tail")

    def test_unreadable_summary_stops_scan_with_media_reason(self):
        fs, device, injector = faulty_rig()
        fs.write_file("/base", b"base")
        fs.checkpoint()
        tail_seg = fs.segments.position.active_segment
        tail_offset = fs.segments.position.active_offset
        fs.write_file("/tail", b"t" * 4000)
        fs.sync()
        first_block = fs.layout.segment_first_block(tail_seg) + tail_offset
        injector.mark_unreadable(first_block * fs.config.sectors_per_block)
        fs.crash()
        device.revive()
        again = LogStructuredFS.mount(fs.disk, fs.cpu, small_lfs_config())
        assert again.last_recovery.stop_reason == "media-error"
        assert again.last_recovery.media_errors == 1
        assert again.last_recovery.degraded
        assert again.read_file("/base") == b"base"

    def test_unreadable_data_block_does_not_end_the_scan(self):
        """Roll-forward reads a partial's IMAP and SEGUSAGE blocks only,
        so a bad sector under a data block is left for the file's reader:
        the partials after it still apply."""
        fs, device, injector = faulty_rig()
        fs.write_file("/base", b"base")
        fs.checkpoint()
        fs.write_file("/first", b"1" * 5000)
        fs.sync()
        # Ten data blocks: the first lies far enough ahead of the imap
        # block that the replay's read does not reach it.
        fs.write_file("/damaged", b"d" * 40_000)
        fs.sync()
        fs.write_file("/later", b"L" * 5000)
        fs.sync()
        inode = fs._get_inode(fs.stat("/damaged").inum)
        TestCleanerQuarantine.poison_block(
            fs, injector, fs.block_map.get(inode, 0)
        )
        fs.crash()
        device.revive()
        again = LogStructuredFS.mount(fs.disk, fs.cpu, small_lfs_config())
        report = again.last_recovery
        assert report.partials_applied == 3
        assert report.stop_reason == "log-end"
        assert report.media_errors == 0
        assert not report.degraded
        assert again.read_file("/base") == b"base"
        assert again.read_file("/first") == b"1" * 5000
        assert again.read_file("/later") == b"L" * 5000
        with pytest.raises(MediaError):
            again.read_file("/damaged")

    def test_unreadable_imap_block_stops_scan_with_media_reason(self):
        fs, device, injector = faulty_rig()
        fs.write_file("/base", b"base")
        fs.checkpoint()
        fs.write_file("/first", b"1" * 5000)
        fs.sync()
        fs.write_file("/tail", b"t" * 5000)
        fs.sync()
        # The imap block the last flush logged.
        TestCleanerQuarantine.poison_block(
            fs, injector, fs.imap.block_addrs[0]
        )
        fs.crash()
        device.revive()
        again = LogStructuredFS.mount(fs.disk, fs.cpu, small_lfs_config())
        report = again.last_recovery
        assert report.partials_applied == 1
        assert report.stop_reason == "media-error"
        assert report.media_errors == 1
        assert again.read_file("/first") == b"1" * 5000
        assert not again.exists("/tail")

    def test_valid_tail_still_recovers_on_faulty_device(self):
        fs, device, _injector = faulty_rig()
        fs.checkpoint()
        fs.write_file("/after", b"A" * 5000)
        fs.sync()
        fs.crash()
        device.revive()
        again = LogStructuredFS.mount(fs.disk, fs.cpu, small_lfs_config())
        assert again.last_recovery.partials_applied >= 1
        assert not again.last_recovery.degraded
        assert again.read_file("/after") == b"A" * 5000


class TestCleanerQuarantine:
    @staticmethod
    def fragmented_rig():
        fs, _device, injector = faulty_rig()
        # Several dirty segments with live data in each.
        for i in range(30):
            fs.write_file(f"/f{i}", bytes([i]) * 20_000)
        fs.checkpoint()
        assert fs.usage.dirty_segments()
        return fs, injector

    @staticmethod
    def poison_block(fs, injector, addr):
        """Kill a whole block's worth of sectors."""
        spb = fs.config.sectors_per_block
        for sector in range(addr * spb, (addr + 1) * spb):
            injector.mark_unreadable(sector)

    def test_unreadable_live_block_quarantines_segment(self):
        fs, injector = self.fragmented_rig()
        # A data block of /f0: the file's block map names it, so it is
        # live, and with the cache emptied the cleaner must read it to
        # relocate it.
        inode = fs._get_inode(fs.stat("/f0").inum)
        addr = fs.block_map.get(inode, 1)
        fs.flush_caches()
        victim = fs.layout.segment_of_block(addr)
        dirty = fs.usage.dirty_segments()
        assert victim in dirty
        self.poison_block(fs, injector, addr)
        target = fs.usage.clean_count() + len(dirty)
        fs.clean_now(target)
        assert fs.cleaner.stats.segments_quarantined >= 1
        assert victim in fs.usage.quarantined_segments()
        # A quarantined segment is out of circulation for good.
        assert victim not in fs.usage.dirty_segments()
        assert victim not in fs.usage.clean_segments()
        fs.clean_now(target)
        assert fs.usage.quarantined_segments().count(victim) == 1

    def test_unreadable_dead_block_is_cleaned_and_healed(self):
        fs, injector = self.fragmented_rig()
        # The first content block of the log held the root directory's
        # first block, which every create since has rewritten elsewhere.
        victim = fs.usage.dirty_segments()[0]
        addr = fs.layout.segment_first_block(victim) + 1
        root = fs._get_inode(fs.stat("/").inum)
        assert fs.block_map.get(root, 0) != addr
        self.poison_block(fs, injector, addr)
        fs.clean_now(fs.usage.clean_count() + len(fs.usage.dirty_segments()))
        # The cleaner never reads a dead block, so nothing is quarantined.
        assert fs.cleaner.stats.segments_quarantined == 0
        assert fs.usage.quarantined_segments() == []
        assert victim in fs.usage.clean_segments()
        # The log's next write over the segment remaps the bad sectors.
        for i in range(200):
            fs.write_file(f"/g{i}", bytes([i]) * 20_000)
            fs.sync()
            if victim in fs.usage.dirty_segments():
                break
        assert victim in fs.usage.dirty_segments()
        assert injector.counts["remaps"] >= 1
        assert not injector.bad_sectors
