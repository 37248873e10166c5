"""Behavioural tests for the FFS baseline."""

import dataclasses

import pytest

from repro.common.inode import NIL
from repro.ffs.config import FfsConfig
from repro.ffs.filesystem import FastFileSystem, FfsSuperBlock
from repro.rig import new_rig
from repro.units import KIB, MIB
from tests.conftest import small_ffs_config


class TestSuperBlock:
    def test_roundtrip(self):
        superblock = FfsSuperBlock(
            block_size=8192,
            cg_bytes=8 * 1024 * 1024,
            inodes_per_cg=512,
            maxbpg=512,
            total_blocks=8192,
        )
        assert FfsSuperBlock.unpack(superblock.pack()) == superblock

    def test_bad_magic(self):
        from repro.errors import CorruptionError

        with pytest.raises(CorruptionError):
            FfsSuperBlock.unpack(b"\x00" * 8192)


class TestSynchronousMetadata:
    def test_create_issues_two_sync_writes(self, ffs):
        ffs.mkdir("/d")
        ffs.sync()
        sync_before = ffs.disk.stats.sync_requests
        ffs.create("/d/f").close()
        # §3.1 / Figure 1: the new inode block and the directory data
        # block are forced to disk.
        assert ffs.disk.stats.sync_requests == sync_before + 2

    def test_unlink_issues_two_sync_writes(self, ffs):
        ffs.write_file("/f", b"x")
        ffs.sync()
        sync_before = ffs.disk.stats.sync_requests
        ffs.unlink("/f")
        assert ffs.disk.stats.sync_requests == sync_before + 2

    def test_create_blocks_the_caller(self, ffs):
        ffs.sync()
        before = ffs.clock.now()
        ffs.create("/slow").close()
        # The caller waited at least one random disk access.
        assert ffs.clock.now() - before > ffs.disk.geometry.avg_seek

    def test_data_writes_are_delayed(self, ffs):
        with ffs.create("/f") as handle:
            writes_before = ffs.disk.stats.writes
            handle.write(b"d" * 8192)
            assert ffs.disk.stats.writes == writes_before


class TestPlacement:
    def test_data_allocated_at_write_time(self, ffs):
        with ffs.create("/f") as handle:
            handle.write(b"x" * 8192)
        inode = ffs._get_inode(ffs.stat("/f").inum)
        assert ffs.block_map.get(inode, 0) != NIL

    def test_update_in_place(self, ffs):
        ffs.write_file("/f", b"1" * 8192)
        inode = ffs._get_inode(ffs.stat("/f").inum)
        addr = ffs.block_map.get(inode, 0)
        ffs.sync()
        with ffs.open("/f") as handle:
            handle.pwrite(0, b"2" * 8192)
        ffs.sync()
        assert ffs.block_map.get(inode, 0) == addr  # same block reused

    def test_sequential_files_sequential_blocks(self, ffs):
        with ffs.create("/seq") as handle:
            handle.write(b"s" * 8192 * 6)
        inode = ffs._get_inode(ffs.stat("/seq").inum)
        addrs = [ffs.block_map.get(inode, lbn) for lbn in range(6)]
        assert addrs == list(range(addrs[0], addrs[0] + 6))

    def test_file_inode_near_directory(self, ffs):
        ffs.mkdir("/d")
        ffs.create("/d/f").close()
        dir_cg = ffs.layout.cg_of_inum(ffs.stat("/d").inum)
        file_cg = ffs.layout.cg_of_inum(ffs.stat("/d/f").inum)
        assert dir_cg == file_cg

    def test_directories_spread(self, ffs):
        ffs.mkdir("/d1")
        ffs.mkdir("/d2")
        cg1 = ffs.layout.cg_of_inum(ffs.stat("/d1").inum)
        cg2 = ffs.layout.cg_of_inum(ffs.stat("/d2").inum)
        assert cg1 != cg2

    def test_atime_kept_in_inode(self, ffs):
        ffs.write_file("/f", b"x")
        ffs.clock.advance(5.0)
        ffs.read_file("/f")
        inode = ffs._get_inode(ffs.stat("/f").inum)
        assert inode.atime == pytest.approx(ffs.stat("/f").atime)
        assert inode.atime > 0


class TestDurability:
    def test_unmount_then_mount(self, ffs):
        ffs.mkdir("/d")
        ffs.write_file("/d/f", b"persist")
        ffs.unmount()
        again = FastFileSystem.mount(ffs.disk, ffs.cpu, small_ffs_config())
        assert again.read_file("/d/f") == b"persist"

    def test_mount_restores_bitmaps(self, ffs):
        ffs.write_file("/f", b"x" * 8192 * 3)
        ffs.unmount()
        again = FastFileSystem.mount(ffs.disk, ffs.cpu, small_ffs_config())
        free_before = again.allocator.free_blocks()
        again.write_file("/g", b"y" * 8192)
        assert again.allocator.free_blocks() == free_before - 1

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(FfsConfig)]
    )
    def test_mount_keeps_the_config_it_is_given(self, ffs, name):
        ffs.unmount()
        given = FfsConfig(
            block_size=4 * KIB,
            cg_bytes=4 * MIB,
            inodes_per_cg=256,
            maxbpg=64,
            cache_bytes=3 * MIB,
            synchronous_metadata=False,
        )
        default, on_disk = FfsConfig(), small_ffs_config()
        # A field added to FfsConfig must be given a non-default value above.
        assert getattr(given, name) != getattr(default, name)
        mounted = FastFileSystem.mount(ffs.disk, ffs.cpu, given).config
        geometry = ("block_size", "cg_bytes", "inodes_per_cg", "maxbpg")
        expected = on_disk if name in geometry else given
        assert getattr(mounted, name) == getattr(expected, name)

    def test_free_space_accounting(self, ffs):
        ffs.create("/f").close()  # the root dir block is allocated here
        before = ffs.free_space_bytes()
        with ffs.open("/f") as handle:
            handle.write(b"z" * 8192 * 2)
        assert ffs.free_space_bytes() == before - 2 * ffs.block_size
        ffs.unlink("/f")
        assert ffs.free_space_bytes() == before

    def test_large_file_roundtrip_through_indirects(self, ffs):
        payload = bytes(range(256)) * 512  # 128 KB: needs the indirect
        ffs.write_file("/big", payload)
        ffs.sync()
        ffs.flush_caches()
        assert ffs.read_file("/big") == payload


class TestWritesAsLargeAsTheCache:
    """A write that leaves every cached block dirty used to evict the
    inode-table block the write-back was about to dirty, and failed with
    ``cannot dirty uncached block``."""

    @pytest.mark.parametrize("cache_kib", [16, 256])
    def test_one_write_fills_the_cache(self, cache_kib):
        fs = new_rig(
            "ffs",
            total_bytes=64 * MIB,
            ffs_config=FfsConfig(cache_bytes=cache_kib * KIB),
        ).fs
        payload = bytes(range(256)) * (cache_kib * 4)
        with fs.create("/a") as handle:
            handle.write(payload)
        assert fs.read_file("/a") == payload
        fs.unmount()
        again = FastFileSystem.mount(fs.disk, fs.cpu, fs.config)
        assert again.read_file("/a") == payload
