"""Unit tests for cylinder-group allocation policy."""

import pytest

from repro.errors import NoInodesError, NoSpaceError
from repro.ffs.allocator import Allocator, CylinderGroup
from repro.ffs.config import FfsConfig, FfsLayout
from repro.units import MIB


@pytest.fixture
def setup():
    config = FfsConfig(cg_bytes=8 * MIB, inodes_per_cg=128)
    layout = FfsLayout.for_device(config, 64 * MIB)
    return config, layout, Allocator(config, layout)


class TestInodeAllocation:
    def test_inode_zero_reserved(self, setup):
        _config, _layout, alloc = setup
        assert alloc.groups[0].inodes.is_set(0)

    def test_directories_spread_across_groups(self, setup):
        config, _layout, alloc = setup
        first = alloc.alloc_inode(is_dir=True, parent_cg=0)
        second = alloc.alloc_inode(is_dir=True, parent_cg=0)
        # cg0 has one fewer free inode (reserved 0), so the first dir
        # goes elsewhere; the second spreads to yet another group.
        assert first // config.inodes_per_cg != second // config.inodes_per_cg

    def test_files_stay_in_parent_group(self, setup):
        config, _layout, alloc = setup
        parent_cg = 3
        inum = alloc.alloc_inode(is_dir=False, parent_cg=parent_cg)
        assert inum // config.inodes_per_cg == parent_cg

    def test_file_spills_when_group_full(self, setup):
        config, _layout, alloc = setup
        for _ in range(config.inodes_per_cg):
            if alloc.groups[2].inodes.free_count:
                alloc.groups[2].inodes.alloc_near(0)
        inum = alloc.alloc_inode(is_dir=False, parent_cg=2)
        assert inum // config.inodes_per_cg != 2

    def test_free_and_reuse(self, setup):
        config, _layout, alloc = setup
        inum = alloc.alloc_inode(is_dir=False, parent_cg=0)
        cg, index = divmod(inum, config.inodes_per_cg)
        assert alloc.groups[cg].inodes.is_set(index)
        alloc.free_inode(inum)
        assert not alloc.groups[cg].inodes.is_set(index)
        assert alloc.alloc_inode(is_dir=False, parent_cg=0) == inum

    def test_exhaustion_raises(self, setup):
        config, layout, alloc = setup
        total = layout.max_inodes - 1  # inode 0 reserved
        for _ in range(total):
            alloc.alloc_inode(is_dir=False, parent_cg=0)
        with pytest.raises(NoInodesError):
            alloc.alloc_inode(is_dir=False, parent_cg=0)

    def test_allocation_dirties_group(self, setup):
        _config, _layout, alloc = setup
        alloc.take_dirty_groups()
        alloc.alloc_inode(is_dir=False, parent_cg=1)
        assert alloc.take_dirty_groups() == [1]


class TestBlockAllocation:
    def test_sequential_after_hint(self, setup):
        _config, layout, alloc = setup
        first = alloc.alloc_data_block(0, None)
        second = alloc.alloc_data_block(0, first)
        assert second == first + 1

    def test_prefers_requested_group(self, setup):
        _config, layout, alloc = setup
        addr = alloc.alloc_data_block(2, None)
        assert layout.cg_of_block(addr) == 2

    def test_spills_to_next_group(self, setup):
        config, layout, alloc = setup
        group = alloc.groups[1]
        while group.blocks.free_count:
            group.blocks.alloc_near(0)
        addr = alloc.alloc_data_block(1, None)
        assert layout.cg_of_block(addr) != 1

    def test_free_block(self, setup):
        _config, layout, alloc = setup
        addr = alloc.alloc_data_block(0, None)
        cg, index = layout.data_index(addr)
        assert alloc.groups[cg].blocks.is_set(index)
        alloc.free_data_block(addr)
        assert not alloc.groups[cg].blocks.is_set(index)

    def test_exhaustion_raises(self, setup):
        _config, layout, alloc = setup
        for group in alloc.groups:
            while group.blocks.free_count:
                group.blocks.alloc_near(0)
        with pytest.raises(NoSpaceError):
            alloc.alloc_data_block(0, None)

    def test_maxbpg_changes_group(self, setup):
        config, _layout, alloc = setup
        assert alloc.preferred_cg_for(0, 0) == 0
        assert alloc.preferred_cg_for(0, config.maxbpg) == 1
        assert alloc.preferred_cg_for(0, 2 * config.maxbpg) == 2

    def test_free_counts(self, setup):
        _config, layout, alloc = setup
        blocks = alloc.free_blocks()
        alloc.alloc_data_block(0, None)
        assert alloc.free_blocks() == blocks - 1


class TestCgSerialization:
    def test_roundtrip(self, setup):
        config, _layout, alloc = setup
        group = alloc.groups[0]
        group.blocks.set(5)
        packed = group.pack()
        assert len(packed) == config.block_size
        parsed = CylinderGroup.unpack(config, packed)
        assert parsed.index == 0
        assert parsed.inodes == group.inodes
        assert parsed.blocks == group.blocks

    def test_corruption_detected(self, setup):
        config, _layout, alloc = setup
        packed = bytearray(alloc.groups[0].pack())
        packed[20] ^= 0xFF
        from repro.errors import CorruptionError

        with pytest.raises(CorruptionError):
            CylinderGroup.unpack(config, bytes(packed))
