"""Behavioural tests for the LFS storage manager."""

import dataclasses

import pytest

from repro.cache.writeback import WritebackConfig
from repro.common.inode import N_DIRECT, pointers_per_block
from repro.disk.retry import RetryPolicy
from repro.errors import NoSpaceError, StaleHandleError
from repro.lfs.config import LfsConfig
from repro.lfs.filesystem import LogStructuredFS, SuperBlock
from repro.lfs.verify import verify_lfs
from repro.units import KIB, MIB
from tests.conftest import small_lfs_config


class TestSuperBlock:
    def test_roundtrip(self):
        superblock = SuperBlock(
            block_size=4096,
            segment_size=262144,
            max_inodes=4096,
            total_blocks=16384,
        )
        assert SuperBlock.unpack(superblock.pack()) == superblock

    def test_bad_magic(self):
        from repro.errors import CorruptionError

        with pytest.raises(CorruptionError):
            SuperBlock.unpack(b"\x00" * 4096)


class TestNoSynchronousWrites:
    def test_create_touches_no_disk(self, lfs):
        writes_before = lfs.disk.stats.writes
        lfs.create("/f").close()
        assert lfs.disk.stats.writes == writes_before

    def test_delete_touches_no_disk(self, lfs):
        lfs.create("/f").close()
        lfs.sync()
        writes_before = lfs.disk.stats.writes
        reads_before = lfs.disk.stats.reads
        lfs.unlink("/f")
        assert lfs.disk.stats.writes == writes_before
        assert lfs.disk.stats.reads == reads_before

    def test_only_checkpoints_are_synchronous(self, lfs):
        for i in range(100):
            lfs.write_file(f"/f{i}", b"x" * 3000)
        lfs.checkpoint()
        # All log writes are async; only checkpoint regions are sync.
        sync_events = lfs.disk.stats.sync_requests
        assert sync_events == lfs.checkpoints.checkpoints_written + 1
        # (+1: the superblock write at mkfs.)


class TestDataPath:
    def test_overwrite_marks_old_blocks_dead(self, lfs):
        lfs.write_file("/f", b"a" * 8192)
        lfs.sync()
        live_before = lfs.usage.total_live_bytes()
        lfs.write_file("/f", b"b" * 8192)  # truncate + rewrite
        lfs.sync()
        # Same amount of live data, old copies dead.
        assert lfs.read_file("/f") == b"b" * 8192
        assert lfs.usage.total_live_bytes() <= live_before + 3 * 4096

    def test_append_only_log_never_overwrites(self, lfs):
        lfs.write_file("/f", b"1" * 4096)
        lfs.sync()
        first_addr = lfs.block_map.get(lfs._get_inode(lfs.stat("/f").inum), 0)
        with lfs.open("/f") as handle:
            handle.pwrite(0, b"2" * 4096)
        lfs.sync()
        second_addr = lfs.block_map.get(lfs._get_inode(lfs.stat("/f").inum), 0)
        assert second_addr != first_addr

    def test_version_bumped_on_truncate_to_zero(self, lfs):
        lfs.write_file("/f", b"x" * 4096)
        inum = lfs.stat("/f").inum
        version = lfs.imap.get(inum).version
        with lfs.open("/f") as handle:
            handle.truncate(0)
        assert lfs.imap.get(inum).version == version + 1

    def test_atime_in_imap_not_inode(self, lfs):
        lfs.write_file("/f", b"x")
        inum = lfs.stat("/f").inum
        lfs.clock.advance(5.0)
        lfs.read_file("/f")
        assert lfs.imap.get(inum).atime == pytest.approx(
            lfs.stat("/f").atime
        )
        # Footnote 2: the inode itself does not track atime in LFS.
        assert lfs._get_inode(inum).atime == 0.0

    def test_read_does_not_dirty_inode(self, lfs):
        lfs.write_file("/f", b"x" * 100)
        lfs.sync()
        assert not lfs._dirty_inodes
        lfs.read_file("/f")
        # Reading dirties only the inode map (atime), never the inode.
        assert not lfs._dirty_inodes

    def test_sparse_file_reads_zeros(self, lfs):
        with lfs.create("/sparse") as handle:
            handle.pwrite(100 * 4096, b"end")
        data = lfs.read_file("/sparse")
        assert len(data) == 100 * 4096 + 3
        assert data[:4096] == b"\x00" * 4096
        assert data[-3:] == b"end"

    def test_large_file_through_indirects(self, lfs):
        # > 12 direct blocks to exercise the single indirect path.
        payload = bytes(range(256)) * 16 * 30  # 120 KB
        lfs.write_file("/big", payload)
        lfs.sync()
        lfs.flush_caches()
        assert lfs.read_file("/big") == payload

    def test_data_block_evicted_between_finalize_and_serialize(self, disk, cpu):
        # One flush, one partial segment, a cache with three blocks to
        # spare: placing /near's thirteenth block and /far's only one
        # loads their pointer blocks, which evicts /near's first blocks —
        # already placed and marked clean, not yet copied into the
        # segment buffer.  The plan must hold them by object.
        bs = 4 * KIB
        config = small_lfs_config(
            cache_bytes=32 * bs,
            writeback=WritebackConfig(dirty_high_fraction=1.0),
        )
        fs = LogStructuredFS.mkfs(disk, cpu, config)
        near = bytes(range(256)) * (bs // 256) * 29  # past N_DIRECT
        far_lbn = N_DIRECT + pointers_per_block(bs) + 5  # second leaf
        partials = fs.segments.partial_segments_written
        with fs.create("/near") as handle:
            handle.write(near)
        with fs.create("/far") as handle:
            handle.pwrite(far_lbn * bs, b"far" * 100)
        assert fs.segments.partial_segments_written == partials
        evictions = fs.cache.stats.evictions
        fs.sync()
        assert fs.segments.partial_segments_written == partials + 1
        assert fs.cache.stats.evictions > evictions  # the window was open
        fs.unmount()
        again = LogStructuredFS.mount(disk, cpu, config)
        assert again.read_file("/near") == near
        far = again.read_file("/far")
        assert far == bytes(far_lbn * bs) + b"far" * 100
        assert verify_lfs(disk.device).consistent


class TestDurability:
    def test_unmount_then_mount(self, lfs):
        lfs.mkdir("/d")
        lfs.write_file("/d/f", b"persist me")
        lfs.unmount()
        again = LogStructuredFS.mount(lfs.disk, lfs.cpu, small_lfs_config())
        assert again.read_file("/d/f") == b"persist me"
        assert again.listdir("/") == ["d"]

    def test_unmounted_fs_rejects_ops(self, lfs):
        lfs.unmount()
        with pytest.raises(StaleHandleError):
            lfs.create("/f")

    def test_mount_preserves_inode_numbers(self, lfs):
        lfs.write_file("/f", b"x")
        inum = lfs.stat("/f").inum
        lfs.unmount()
        again = LogStructuredFS.mount(lfs.disk, lfs.cpu, small_lfs_config())
        assert again.stat("/f").inum == inum

    def test_mount_preserves_versions(self, lfs):
        lfs.write_file("/f", b"x")
        inum = lfs.stat("/f").inum
        with lfs.open("/f") as handle:
            handle.truncate(0)
        version = lfs.imap.get(inum).version
        lfs.unmount()
        again = LogStructuredFS.mount(lfs.disk, lfs.cpu, small_lfs_config())
        assert again.imap.get(inum).version == version

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(LfsConfig)]
    )
    def test_mount_keeps_the_config_it_is_given(self, lfs, name):
        lfs.unmount()
        given = LfsConfig(
            block_size=8 * KIB,
            segment_size=512 * KIB,
            cache_bytes=3 * MIB,
            max_inodes=64,
            checkpoint_interval=7.0,
            clean_low_water=3,
            clean_high_water=5,
            cleaner_reserve_segments=2,
            max_live_fraction_to_clean=0.5,
            cleaner_policy="cost-benefit",
            roll_forward=False,
            writeback=WritebackConfig(age_threshold=9.0),
            readahead_blocks=2,
            retry=RetryPolicy(max_attempts=5),
            quarantine_budget=1,
        )
        default, on_disk = LfsConfig(), small_lfs_config()
        # A field added to LfsConfig must be given a non-default value above.
        assert getattr(given, name) != getattr(default, name)
        mounted = LogStructuredFS.mount(lfs.disk, lfs.cpu, given).config
        geometry = ("block_size", "segment_size", "max_inodes")
        expected = on_disk if name in geometry else given
        assert getattr(mounted, name) == getattr(expected, name)

    def test_flush_caches_forces_disk_reads(self, lfs):
        lfs.write_file("/f", b"y" * 4096)
        lfs.flush_caches()
        reads_before = lfs.disk.stats.reads
        assert lfs.read_file("/f") == b"y" * 4096
        assert lfs.disk.stats.reads > reads_before


class TestSpace:
    def test_disk_full_raises(self, disk, cpu):
        config = small_lfs_config(cache_bytes=1024 * 1024)
        fs = LogStructuredFS.mkfs(disk, cpu, config)
        with pytest.raises(NoSpaceError):
            for i in range(100000):
                fs.write_file(f"/f{i}", b"z" * 8192)

    def test_deleting_frees_space(self, lfs):
        # Fill a good chunk, delete it all, then fill again: the cleaner
        # must recycle the dead segments.
        for round_ in range(4):
            for i in range(200):
                lfs.write_file(f"/r{round_}_{i}", b"q" * 8192)
            lfs.sync()
            for i in range(200):
                lfs.unlink(f"/r{round_}_{i}")
        assert lfs.usage.underflow_clamps == 0

    def test_write_cost_counts_metadata(self, lfs):
        lfs.write_file("/f", b"x" * 40960)
        lfs.sync()
        assert lfs.write_cost() > 1.0


class TestLfsSpecificApi:
    def test_checkpoint_resets_interval(self, lfs):
        before = lfs.checkpoints.checkpoints_written
        lfs.checkpoint()
        assert lfs.checkpoints.checkpoints_written == before + 1

    def test_clean_now_on_clean_fs(self, lfs):
        assert lfs.clean_now() == 0

    def test_utilization_histogram(self, lfs):
        for i in range(100):
            lfs.write_file(f"/f{i}", b"h" * 8192)
        lfs.sync()
        histogram = lfs.segment_utilization_histogram()
        assert len(histogram) == 10
        assert sum(histogram) == len(lfs.usage.dirty_segments())

    def test_live_data_bytes_grows(self, lfs):
        before = lfs.live_data_bytes()
        lfs.write_file("/f", b"x" * 40960)
        lfs.sync()
        assert lfs.live_data_bytes() > before
