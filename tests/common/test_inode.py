"""Unit tests for inodes and the block map."""

import pytest

from repro.common.inode import (
    BlockKey,
    BlockKind,
    BlockMap,
    FileType,
    Inode,
    INODE_SIZE,
    N_DIRECT,
    NIL,
    pointers_per_block,
)
from repro.errors import CorruptionError, InvalidArgumentError

BS = 4096
PPB = pointers_per_block(BS)


class TestInodeSerialization:
    def test_roundtrip(self):
        inode = Inode(
            inum=42,
            ftype=FileType.REGULAR,
            nlink=3,
            size=123456,
            mtime=1.5,
            ctime=2.5,
            atime=3.5,
            direct=[i * 7 for i in range(N_DIRECT)],
            indirect=99,
            dindirect=100,
        )
        packed = inode.pack()
        assert len(packed) == INODE_SIZE
        assert Inode.unpack(packed) == inode

    def test_free_inode_roundtrip(self):
        inode = Inode(inum=1)
        assert Inode.unpack(inode.pack()) == inode

    def test_bad_type_rejected(self):
        packed = bytearray(Inode(inum=1).pack())
        packed[4] = 99  # the ftype byte
        with pytest.raises(CorruptionError):
            Inode.unpack(bytes(packed))

    def test_wrong_direct_count_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Inode(inum=1, direct=[0] * 3)

    def test_copy_is_deep_enough(self):
        inode = Inode(inum=5, ftype=FileType.REGULAR)
        clone = inode.copy()
        clone.direct[0] = 77
        assert inode.direct[0] == NIL

    def test_nblocks(self):
        inode = Inode(inum=1, size=BS * 2 + 1)
        assert inode.nblocks(BS) == 3
        assert Inode(inum=1, size=0).nblocks(BS) == 0

    def test_is_dir(self):
        assert Inode(inum=1, ftype=FileType.DIRECTORY).is_dir
        assert not Inode(inum=1, ftype=FileType.REGULAR).is_dir


class _MapHarness:
    """Minimal in-memory pointer-block store for BlockMap tests."""

    def __init__(self):
        self.blocks = {}
        self.dirtied = []
        self.map = BlockMap(BS, self.load, self.dirty)
        self.map.set_cache_probe(lambda key: key in self.blocks)

    def load(self, key, addr):
        if key not in self.blocks:
            self.blocks[key] = [NIL] * PPB
        return self.blocks[key]

    def dirty(self, key):
        self.dirtied.append(key)


class TestBlockMapDirect:
    def test_get_hole(self):
        h = _MapHarness()
        inode = Inode(inum=1, ftype=FileType.REGULAR)
        assert h.map.get(inode, 0) == NIL

    def test_set_get_direct(self):
        h = _MapHarness()
        inode = Inode(inum=1, ftype=FileType.REGULAR)
        old = h.map.set(inode, 3, 777)
        assert old == NIL
        assert inode.direct[3] == 777
        assert h.map.get(inode, 3) == 777

    def test_set_returns_previous(self):
        h = _MapHarness()
        inode = Inode(inum=1, ftype=FileType.REGULAR)
        h.map.set(inode, 0, 10)
        assert h.map.set(inode, 0, 20) == 10

    def test_negative_lbn_rejected(self):
        h = _MapHarness()
        inode = Inode(inum=1)
        with pytest.raises(InvalidArgumentError):
            h.map.get(inode, -1)

    def test_lbn_beyond_max_rejected(self):
        h = _MapHarness()
        inode = Inode(inum=1)
        with pytest.raises(InvalidArgumentError):
            h.map.get(inode, h.map.max_lbn + 1)


class TestBlockMapIndirect:
    def test_single_indirect(self):
        h = _MapHarness()
        inode = Inode(inum=1, ftype=FileType.REGULAR)
        lbn = N_DIRECT + 5
        h.map.set(inode, lbn, 123)
        assert h.map.get(inode, lbn) == 123
        key = BlockKey(1, BlockKind.INDIRECT, 0)
        assert h.blocks[key][5] == 123
        assert key in h.dirtied

    def test_hole_read_does_not_create_blocks(self):
        h = _MapHarness()
        inode = Inode(inum=1, ftype=FileType.REGULAR)
        assert h.map.get(inode, N_DIRECT + 5) == NIL
        assert h.blocks == {}

    def test_double_indirect(self):
        h = _MapHarness()
        inode = Inode(inum=1, ftype=FileType.REGULAR)
        lbn = N_DIRECT + PPB + PPB + 3  # second leaf under the root
        h.map.set(inode, lbn, 555)
        assert h.map.get(inode, lbn) == 555
        leaf = BlockKey(1, BlockKind.INDIRECT, 2)
        assert h.blocks[leaf][3] == 555
        root = BlockKey(1, BlockKind.DINDIRECT, 0)
        assert root in h.blocks

    def test_double_indirect_dirties_root(self):
        h = _MapHarness()
        inode = Inode(inum=1, ftype=FileType.REGULAR)
        h.map.set(inode, N_DIRECT + PPB, 1)
        assert BlockKey(1, BlockKind.DINDIRECT, 0) in h.dirtied

    def test_cached_nil_addressed_block_found(self):
        # An LFS-style pointer block: exists in cache, no disk address.
        h = _MapHarness()
        inode = Inode(inum=1, ftype=FileType.REGULAR)
        h.map.set(inode, N_DIRECT + 1, 42)
        assert inode.indirect == NIL  # address assigned only at flush
        assert h.map.get(inode, N_DIRECT + 1) == 42

    def test_single_indirect_ordinal(self):
        h = _MapHarness()
        assert h.map.single_indirect_ordinal(N_DIRECT) == 0
        assert h.map.single_indirect_ordinal(N_DIRECT + PPB - 1) == 0
        assert h.map.single_indirect_ordinal(N_DIRECT + PPB) == 1
        assert h.map.single_indirect_ordinal(N_DIRECT + 2 * PPB) == 2


class TestIterAndKeys:
    def test_iter_allocated(self):
        h = _MapHarness()
        inode = Inode(inum=1, ftype=FileType.REGULAR, size=5 * BS)
        h.map.set(inode, 0, 10)
        h.map.set(inode, 4, 14)
        assert list(h.map.iter_allocated(inode)) == [(0, 10), (4, 14)]

    def test_indirect_block_keys_small_file(self):
        h = _MapHarness()
        inode = Inode(inum=1, size=3 * BS)
        assert h.map.indirect_block_keys(inode) == []

    def test_indirect_block_keys_medium_file(self):
        h = _MapHarness()
        inode = Inode(inum=1, size=(N_DIRECT + 2) * BS)
        assert h.map.indirect_block_keys(inode) == [
            BlockKey(1, BlockKind.INDIRECT, 0)
        ]

    def test_indirect_block_keys_large_file(self):
        h = _MapHarness()
        inode = Inode(inum=1, size=(N_DIRECT + PPB + PPB + 1) * BS)
        keys = h.map.indirect_block_keys(inode)
        assert BlockKey(1, BlockKind.INDIRECT, 0) in keys
        assert BlockKey(1, BlockKind.DINDIRECT, 0) in keys
        assert BlockKey(1, BlockKind.INDIRECT, 1) in keys
        assert BlockKey(1, BlockKind.INDIRECT, 2) in keys

    def test_max_file_size(self):
        h = _MapHarness()
        expected = N_DIRECT + PPB + PPB * PPB - 1
        assert h.map.max_lbn == expected


class TestBlockKeyHash:
    """Sets and dicts of keys are iterated (``discard_file``, the flush
    plan), so the hash *value* decides seeded outputs."""

    KEYS = [
        BlockKey(inum, kind, index)
        for inum in (0, 1, 7, 4096)
        for kind in BlockKind
        for index in (0, 1, 12, 1035)
    ]

    def test_hash_is_the_field_tuple_hash(self):
        for key in self.KEYS:
            assert hash(key) == hash((key.inum, key.kind, key.index))
            assert hash(key) == hash((key.inum, int(key.kind), key.index))

    def test_set_iteration_order_is_that_of_plain_tuples(self):
        as_tuples = [(k.inum, int(k.kind), k.index) for k in self.KEYS]
        assert [tuple(k) for k in set(self.KEYS)] == list(set(as_tuples))
