"""Cleaner behaviour under severe space pressure.

These scenarios historically deadlock log-structured systems: the
cleaner needs free segments to make free segments.  The implementation
defends with a sized reserve, the empty-victim fast path (reclaimed
*before* the flush), and an emergency mode that waives the utilization
threshold when the clean pool hits the reserve.
"""

import pytest

from repro.errors import NoSpaceError
from repro.lfs.config import LfsConfig, LfsLayout
from repro.lfs.filesystem import LogStructuredFS
from repro.service.config import SERVICE_LFS_CONFIG
from tests.conftest import small_lfs_config
from repro.units import KIB, MIB


class TestReserveSizing:
    def test_reserve_covers_dirty_threshold(self, disk, cpu):
        config = small_lfs_config(
            segment_size=256 * KIB, cache_bytes=4 * MIB
        )
        fs = LogStructuredFS.mkfs(disk, cpu, config)
        # dirty threshold = 2 MB = 8 segments; +4 victims +2 slack.
        assert fs.segments.reserve_segments == fs.layout.reserve_segments == 14

    def test_reserve_capped_on_tiny_devices(self, clock, cpu):
        from repro.disk.geometry import wren_iv
        from repro.disk.sim_disk import SimDisk

        disk = SimDisk(wren_iv(16 * MIB), clock)
        config = small_lfs_config(
            segment_size=512 * KIB, cache_bytes=8 * MIB
        )
        fs = LogStructuredFS.mkfs(disk, cpu, config)
        assert fs.segments.reserve_segments <= fs.layout.num_segments // 3

    @pytest.mark.parametrize(
        "config, device_bytes, reserve",
        [
            (LfsConfig(), 120 * MIB, 14),
            (LfsConfig(), 128 * MIB, 14),
            (LfsConfig(), 300 * MIB, 14),
            (SERVICE_LFS_CONFIG, 64 * MIB, 10),
            (SERVICE_LFS_CONFIG, 5 * MIB, 6),
            (SERVICE_LFS_CONFIG, 4 * MIB, 5),
        ],
    )
    def test_reserve_on_the_volumes_in_use(self, config, device_bytes, reserve):
        # The default volume holds back its 7.5 MiB dirty threshold plus
        # six segments; the service volume its 1 MiB one; the smallest
        # service volumes are capped at a third of their segments.
        layout = LfsLayout.for_device(config, device_bytes)
        assert layout.reserve_segments == reserve


class TestEmergencyCleaning:
    def test_threshold_waived_when_pool_hits_reserve(
        self, disk, cpu, monkeypatch
    ):
        """White-box: every dirty segment sits above the cleanability
        threshold and the clean pool is at the reserve — the normal
        policy finds no victims, and the emergency mode must clean the
        over-threshold segments anyway."""
        monkeypatch.setattr("repro.lfs.cleaner.MAX_LIVE_FRACTION_TO_CLEAN", 0.3)
        config = small_lfs_config(segment_size=256 * KIB, cache_bytes=2 * MIB)
        fs = LogStructuredFS.mkfs(disk, cpu, config)
        # Write real data so the "over-threshold" segments genuinely
        # hold live files, then fabricate the pressure: mark the rest
        # of the clean pool dirty at u = 0.6 (above the 0.3 threshold).
        for i in range(16):
            fs.write_file(f"/f{i}", bytes([i]) * 65536)
        fs.checkpoint()
        reserve = fs.segments.reserve_segments
        clean = fs.usage.clean_segments()
        for seg in clean[: len(clean) - (reserve + 2)]:
            fs.usage.force_state(
                seg, type(fs.usage.info(seg).state).DIRTY
            )
            fs.usage.note_write(
                seg, int(0.6 * config.segment_size), fs.clock.now()
            )
        assert fs.cleaner.select_victims(4) == []  # normal policy: stuck
        cleaned = fs.cleaner.clean(fs.layout.num_segments)
        assert fs.cleaner.stats.emergency_passes > 0
        assert cleaned > 0
        # The genuinely live data survived the emergency cleaning.
        for i in range(16):
            assert fs.read_file(f"/f{i}") == bytes([i]) * 65536

    def test_truly_full_disk_raises_cleanly(self, clock, cpu):
        from repro.disk.geometry import wren_iv
        from repro.disk.sim_disk import SimDisk

        disk = SimDisk(wren_iv(16 * MIB), clock)
        config = small_lfs_config(cache_bytes=1 * MIB)
        fs = LogStructuredFS.mkfs(disk, cpu, config)
        with pytest.raises(NoSpaceError):
            for i in range(10000):
                fs.write_file(f"/fill{i}", b"F" * 32768)
        # The failure is clean: existing files still read back.
        survivors = [
            name for name in fs.listdir("/") if fs.stat(f"/{name}").size
        ]
        assert survivors
        assert fs.read_file(f"/{survivors[0]}")
