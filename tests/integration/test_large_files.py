"""Large-file edge cases: indirect trees under churn and cleaning."""


import pytest

from repro.common.inode import BlockKey, BlockKind, N_DIRECT, pointers_per_block
from repro.ffs.filesystem import FastFileSystem
from repro.lfs.filesystem import LogStructuredFS
from repro.units import KIB
from tests.conftest import small_ffs_config, small_lfs_config


def big_payload(tag: int, nbytes: int) -> bytes:
    stamp = bytes([tag]) * 251  # prime-ish block so patterns don't align
    reps = nbytes // len(stamp) + 1
    return (stamp * reps)[:nbytes]


class TestDoubleIndirect:
    def test_lfs_double_indirect_file(self, disk, cpu):
        # Small blocks would need >512 blocks for a double indirect;
        # with 4 KB blocks that is > 12 + 512 blocks = > 2 MB.
        config = small_lfs_config(cache_bytes=4 * 1024 * 1024)
        fs = LogStructuredFS.mkfs(disk, cpu, config)
        ppb = pointers_per_block(fs.block_size)
        size = (N_DIRECT + ppb + 5) * fs.block_size  # into the 2nd level
        payload = big_payload(7, size)
        fs.write_file("/huge", payload)
        fs.sync()
        fs.flush_caches()
        assert fs.read_file("/huge") == payload

    def test_double_indirect_survives_remount(self, disk, cpu):
        config = small_lfs_config(cache_bytes=4 * 1024 * 1024)
        fs = LogStructuredFS.mkfs(disk, cpu, config)
        ppb = pointers_per_block(fs.block_size)
        size = (N_DIRECT + ppb + 3) * fs.block_size
        payload = big_payload(9, size)
        fs.write_file("/huge", payload)
        fs.unmount()
        again = LogStructuredFS.mount(disk, cpu, config)
        assert again.read_file("/huge") == payload

    def test_truncate_through_indirect_levels(self, anyfs):
        bs = anyfs.block_size
        size = (N_DIRECT + 20) * bs
        payload = big_payload(3, size)
        anyfs.write_file("/f", payload)
        anyfs.sync()
        with anyfs.open("/f") as handle:
            handle.truncate(5 * bs)  # back into the direct range
        anyfs.sync()
        anyfs.flush_caches()
        assert anyfs.read_file("/f") == payload[: 5 * bs]

    def test_shrink_then_regrow(self, anyfs):
        bs = anyfs.block_size
        first = big_payload(1, (N_DIRECT + 8) * bs)
        anyfs.write_file("/f", first)
        anyfs.sync()
        with anyfs.open("/f") as handle:
            handle.truncate(0)
        second = big_payload(2, (N_DIRECT + 4) * bs)
        with anyfs.open("/f") as handle:
            handle.pwrite(0, second)
        anyfs.sync()
        anyfs.flush_caches()
        assert anyfs.read_file("/f") == second


class TestHolesUnderTheDoubleIndirectRoot:
    """A hole whose leaf was never allocated reads as zeros and creates
    nothing: a leaf loaded for it would be a clean all-NIL pointer
    block, and pointer blocks are never evicted."""

    @staticmethod
    def sparse(kind, disk, cpu, leaves):
        """One block in the first leaf under the root and one ``leaves``
        leaves further, on a 256 KiB cache."""
        if kind == "lfs":
            config = small_lfs_config(cache_bytes=256 * KIB)
            fs = LogStructuredFS.mkfs(disk, cpu, config)
        else:
            config = small_ffs_config(cache_bytes=256 * KIB)
            fs = FastFileSystem.mkfs(disk, cpu, config)
        bs, ppb = fs.block_size, pointers_per_block(fs.block_size)
        first = N_DIRECT + ppb
        with fs.create("/sparse") as handle:
            handle.pwrite(first * bs, b"a" * bs)
            handle.pwrite((first + leaves * ppb) * bs, b"z" * bs)
        fs.sync()
        return fs, first, ppb

    @pytest.mark.parametrize("kind", ["lfs", "ffs"])
    def test_reading_holes_loads_no_leaves(self, kind, disk, cpu):
        fs, first, ppb = self.sparse(kind, disk, cpu, leaves=200)
        bs = fs.block_size
        evictions = fs.cache.stats.evictions
        with fs.open("/sparse") as handle:
            for leaf in range(2, 150):
                offset = (first + (leaf - 1) * ppb + 7) * bs
                assert handle.pread(offset, 16) == bytes(16)
        inum = fs.stat("/sparse").inum
        assert not any(
            fs.cache.contains(BlockKey(inum, BlockKind.INDIRECT, leaf))
            for leaf in range(2, 150)
        )
        assert not fs.cache.over_capacity()
        assert fs.cache.stats.evictions == evictions

    @pytest.mark.parametrize("kind", ["lfs", "ffs"])
    def test_unlinking_a_sparse_file_loads_no_leaves(
        self, kind, disk, cpu, monkeypatch
    ):
        fs, _first, _ppb = self.sparse(kind, disk, cpu, leaves=20)
        inserted = []
        insert = fs.cache.insert

        def counting(key, *args, **kwargs):
            inserted.append(key)
            return insert(key, *args, **kwargs)

        monkeypatch.setattr(fs.cache, "insert", counting)
        fs.unlink("/sparse")
        assert [key for key in inserted if key.kind is BlockKind.INDIRECT] == []


class TestLargeFileThroughCleaning:
    def test_indirect_blocks_relocated_correctly(self, disk, cpu):
        config = small_lfs_config(cache_bytes=4 * 1024 * 1024)
        fs = LogStructuredFS.mkfs(disk, cpu, config)
        bs = fs.block_size
        keep = big_payload(5, (N_DIRECT + 30) * bs)
        fs.write_file("/keep", keep)
        # Interleave with churn so /keep's segments fragment.
        for round_ in range(4):
            for i in range(150):
                fs.write_file(f"/junk{round_}_{i}", bytes([i % 256]) * 4096)
            fs.sync()
            for i in range(150):
                fs.unlink(f"/junk{round_}_{i}")
        fs.sync()
        fs.clean_now(fs.layout.num_segments)
        assert fs.read_file("/keep") == keep
        fs.unmount()
        again = LogStructuredFS.mount(disk, cpu, config)
        assert again.read_file("/keep") == keep


class TestFfsGroupSpillover:
    def test_maxbpg_spreads_large_files(self, disk, cpu):
        from repro.ffs.config import FfsConfig
        from repro.ffs.filesystem import FastFileSystem
        from repro.units import MIB

        config = FfsConfig(
            cg_bytes=8 * MIB, inodes_per_cg=512, maxbpg=16,
            cache_bytes=4 * MIB,
        )
        fs = FastFileSystem.mkfs(disk, cpu, config)
        size = 40 * fs.block_size  # spans three maxbpg windows
        payload = big_payload(6, size)
        fs.write_file("/spread", payload)
        fs.sync()
        inode = fs._get_inode(fs.stat("/spread").inum)
        groups = {
            fs.layout.cg_of_block(fs.block_map.get(inode, lbn))
            for lbn in range(40)
        }
        assert len(groups) >= 3  # the file really spread out
        fs.flush_caches()
        assert fs.read_file("/spread") == payload


class TestDeepPaths:
    def test_ten_levels(self, anyfs):
        path = ""
        for depth in range(10):
            path += f"/level{depth}"
            anyfs.mkdir(path)
        anyfs.write_file(path + "/leaf", b"deep")
        assert anyfs.read_file(path + "/leaf") == b"deep"
        assert anyfs.stat(path).is_dir

    def test_normalized_traversal(self, anyfs):
        anyfs.mkdir("/a")
        anyfs.write_file("/a/f", b"x")
        assert anyfs.read_file("/a/../a/./f") == b"x"
