"""Unit tests for the inode map (§4.2.1)."""

import pytest

from repro.common.inode import NIL
from repro.errors import CorruptionError, NoInodesError
from repro.lfs.inode_map import IMAP_ENTRY_SIZE, ImapEntry, InodeMap
from repro.vfs.base import ROOT_INUM

BS = 4096


@pytest.fixture
def imap() -> InodeMap:
    return InodeMap(max_inodes=1024, block_size=BS)


class TestEntrySerialization:
    def test_roundtrip(self):
        entry = ImapEntry(
            inode_addr=500, slot=7, version=3, atime=1.25, allocated=True
        )
        packed = entry.pack()
        assert len(packed) == IMAP_ENTRY_SIZE
        assert ImapEntry.unpack(packed) == entry

    def test_free_entry_roundtrip(self):
        entry = ImapEntry()
        assert ImapEntry.unpack(entry.pack()) == entry


class TestAllocation:
    def test_allocate_skips_inode_zero(self, imap):
        inum = imap.allocate(now=0.0)
        assert inum >= ROOT_INUM

    def test_allocate_marks_allocated(self, imap):
        inum = imap.allocate(now=2.0)
        entry = imap.get(inum)
        assert entry.allocated
        assert entry.inode_addr == NIL
        assert entry.atime == 2.0

    def test_allocate_distinct(self, imap):
        inums = {imap.allocate(0.0) for _ in range(50)}
        assert len(inums) == 50

    def test_exhaustion(self):
        imap = InodeMap(max_inodes=4, block_size=BS)
        for _ in range(3):  # inode 0 reserved
            imap.allocate(0.0)
        with pytest.raises(NoInodesError):
            imap.allocate(0.0)

    def test_free_allows_reuse(self, imap):
        inum = imap.allocate(0.0)
        imap.free(inum)
        assert imap.allocate(0.0) == inum

    def test_force_allocate(self, imap):
        imap.force_allocate(ROOT_INUM, now=0.0)
        assert imap.get(ROOT_INUM).allocated
        with pytest.raises(CorruptionError):
            imap.force_allocate(ROOT_INUM, now=0.0)

    def test_double_free_raises(self, imap):
        inum = imap.allocate(0.0)
        imap.free(inum)
        with pytest.raises(CorruptionError):
            imap.free(inum)

    def test_allocated_count(self, imap):
        assert imap.allocated_count() == 0
        a = imap.allocate(0.0)
        b = imap.allocate(0.0)
        imap.free(a)
        assert imap.allocated_count() == 1
        assert imap.allocated_inums() == [b]


class TestVersions:
    def test_free_bumps_version(self, imap):
        inum = imap.allocate(0.0)
        assert imap.get(inum).version == 0
        imap.free(inum)
        assert imap.get(inum).version == 1

    def test_truncate_bump(self, imap):
        inum = imap.allocate(0.0)
        imap.bump_version(inum)
        assert imap.get(inum).version == 1

    def test_version_survives_reallocation(self, imap):
        inum = imap.allocate(0.0)
        imap.free(inum)
        assert imap.allocate(0.0) == inum
        # Blocks logged under version 0 must look dead to the cleaner.
        assert imap.get(inum).version == 1


class TestLocations:
    def test_set_location_returns_previous(self, imap):
        inum = imap.allocate(0.0)
        assert imap.set_location(inum, 100, 3) == NIL
        assert imap.set_location(inum, 200, 4) == 100
        entry = imap.get(inum)
        assert entry.inode_addr == 200 and entry.slot == 4

    def test_set_location_unallocated_raises(self, imap):
        with pytest.raises(CorruptionError):
            imap.set_location(5, 100, 0)

    def test_atime(self, imap):
        inum = imap.allocate(0.0)
        imap.set_atime(inum, 9.0)
        assert imap.get(inum).atime == 9.0

    def test_out_of_range_inum(self, imap):
        with pytest.raises(CorruptionError):
            imap.get(0)
        with pytest.raises(CorruptionError):
            imap.get(1024)


class TestBlocks:
    def test_dirty_tracking(self, imap):
        assert not imap.has_dirty_blocks()
        inum = imap.allocate(0.0)
        assert imap.dirty_block_indexes() == [imap.block_of(inum)]
        imap.mark_block_clean(imap.block_of(inum))
        assert not imap.has_dirty_blocks()

    def test_block_roundtrip(self, imap):
        inum = imap.allocate(5.0)
        imap.set_location(inum, 77, 2)
        index = imap.block_of(inum)
        packed = imap.pack_block(index)
        assert len(packed) == BS

        other = InodeMap(max_inodes=1024, block_size=BS)
        other.load_block(index, packed)
        entry = other.get(inum)
        assert entry.allocated and entry.inode_addr == 77 and entry.slot == 2

    def test_load_all(self, imap):
        inum = imap.allocate(0.0)
        imap.set_location(inum, 42, 0)
        index = imap.block_of(inum)
        packed = {index: imap.pack_block(index)}
        addrs = [NIL] * imap.num_blocks
        addrs[index] = 1000

        other = InodeMap(max_inodes=1024, block_size=BS)
        other.load_all(addrs, lambda addr: packed[index])
        assert other.get(inum).inode_addr == 42
        assert other.block_addrs[index] == 1000

    def test_blocks_materialise_on_first_touch(self, imap):
        # Building or attaching a map builds no entries; touching one
        # inode builds its block alone, and only a block that has a log
        # address is fetched (and counted).
        assert imap._blocks == [None] * imap.num_blocks
        inum = imap.entries_per_block * 2 + 5
        imap.force_allocate(inum, 1.0)
        assert [block is not None for block in imap._blocks] == [
            index == 2 for index in range(imap.num_blocks)
        ]
        assert imap.demand_loads == 0

        fetched = []
        packed = imap.pack_block(2)
        addrs = [NIL] * imap.num_blocks
        addrs[2] = 1000
        other = InodeMap(max_inodes=1024, block_size=BS)
        other.attach(addrs, lambda addr: fetched.append(addr) or packed)
        assert other._blocks == [None] * other.num_blocks
        assert not other.get(3).allocated  # block 0: never written, all free
        assert (fetched, other.demand_loads) == ([], 0)
        assert other.get(inum).allocated
        assert other.get(inum + 1).atime == 0.0
        assert (fetched, other.demand_loads) == ([1000], 1)
        assert other.allocated_inums() == [inum]
        assert len(other._blocks[-1].entries) == 1024 - (
            other.num_blocks - 1
        ) * other.entries_per_block
        assert other.demand_loads == 1
        # Only the fetched block was decoded; never-written ones are
        # built free, not decoded.
        assert other.entries_decoded == other.entries_per_block

    def test_load_all_wrong_count(self, imap):
        other = InodeMap(max_inodes=1024, block_size=BS)
        with pytest.raises(CorruptionError):
            other.load_all([NIL], lambda addr: b"")

    def test_entries_per_block(self, imap):
        assert imap.entries_per_block == BS // IMAP_ENTRY_SIZE
        assert imap.num_blocks * imap.entries_per_block >= 1024
