"""Inodes, block pointers and the logical-to-physical block map.

The inode format follows the classic UNIX layout the paper keeps
unchanged (§4.2): twelve direct block pointers, one single-indirect and
one double-indirect pointer.  Disk addresses are file-system block
numbers; the value :data:`NIL` (zero) means "no block" — block zero of
every file system holds the superblock and is never file data, so zero is
unambiguous and sparse files fall out naturally.

:class:`BlockMap` implements the pointer traversal generically.  The two
file systems differ only in how they *store* indirect blocks (LFS appends
them to the log, FFS updates them in place), so the traversal takes
callbacks for loading and dirtying pointer blocks, keyed by
:class:`BlockKey`.
"""

from __future__ import annotations

import enum
import struct
import sys
from array import array
from dataclasses import dataclass
from functools import partial
from typing import (
    Callable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import CorruptionError, InvalidArgumentError

NIL = 0
"""Null disk address (block 0 is always the superblock)."""

N_DIRECT = 12
"""Direct block pointers per inode, as in the BSD fast file system."""

INODE_SIZE = 160
"""Serialized inode size in bytes (power-of-two-friendly packing)."""

# The whole inode record as one precompiled layout: inum, ftype, nlink,
# size, mtime/ctime/atime, 12 direct + indirect + dindirect addresses.
# "<" packs without alignment padding, so this is byte-for-byte the old
# field-at-a-time Packer output; an inode (un)packs in a single call.
_INODE_RECORD = struct.Struct("<IBHQ3d14Q")
assert _INODE_RECORD.size <= INODE_SIZE
_INODE_PAD = b"\x00" * (INODE_SIZE - _INODE_RECORD.size)


def pointers_per_block(block_size: int) -> int:
    """Number of u64 disk addresses an indirect block holds."""
    return block_size // 8


# A pointer block in memory is an ``array('Q')``: its slots are edited in
# place, and its on-disk form (little-endian u64s) is its own buffer on a
# little-endian host, so writing one out is a copy, not 512 conversions.
_SWAP = sys.byteorder != "little"


def pointer_block(data: Optional[bytes], block_size: int) -> "array[int]":
    """A pointer block's addresses: decoded from its on-disk ``data``, or
    all NIL when ``data`` is None (a block never written)."""
    pointers = array("Q")
    if data is None:
        pointers.frombytes(bytes(block_size))
    else:
        pointers.frombytes(data)
        if _SWAP:
            pointers.byteswap()
    return pointers


def pointer_block_bytes(pointers: "array[int]") -> memoryview:
    """The on-disk form of a pointer block, as a view of its bytes."""
    if _SWAP:
        pointers = array("Q", pointers)
        pointers.byteswap()
    return memoryview(pointers).cast("B")


class FileType(enum.IntEnum):
    FREE = 0
    REGULAR = 1
    DIRECTORY = 2


class BlockKind(enum.IntEnum):
    """What a cached/logged block is, from the owning file's viewpoint."""

    DATA = 0
    INDIRECT = 1  # single-indirect pointer block (leaf of the map tree)
    DINDIRECT = 2  # the double-indirect root pointer block
    INODE = 3  # a block of packed inodes (LFS log / FFS inode table)
    IMAP = 4  # an inode-map block (LFS only)
    SEGUSAGE = 5  # a segment-usage-array block (LFS only)


# Reading an enum member through its class runs a descriptor; the
# per-call code below reads these instead.
_FREE = FileType.FREE
_DIRECTORY = FileType.DIRECTORY
_FILE_TYPES = {ftype.value: ftype for ftype in FileType}
_DATA = BlockKind.DATA
_INDIRECT = BlockKind.INDIRECT
_DINDIRECT = BlockKind.DINDIRECT


class BlockKey(NamedTuple):
    """Cache/log identity of a block: owner, kind and index.

    For ``DATA`` the index is the logical block number; for ``INDIRECT``
    it is the ordinal of the single-indirect block (0 = the inode's own
    indirect pointer, 1+j = the j-th leaf under the double-indirect
    root); for the remaining kinds it is the structure's block index.

    A tuple, so keys hash and compare in C: every layer builds and
    looks one up per block touched.  ``hash(key)`` must stay
    ``hash((inum, kind, index))`` — sets of keys are iterated, and their
    order (hence seeded output) follows the hash.
    """

    inum: int
    kind: BlockKind
    index: int


block_key = partial(tuple.__new__, BlockKey)
"""``block_key((inum, kind, index))`` is ``BlockKey(inum, kind, index)``
built in C, without the class's Python-level ``__new__``: the data path
makes a few keys per block."""


@dataclass(init=False)
class Inode:
    """An in-memory inode; serialize with :meth:`pack`.

    Slotted, with the constructor written out: every create and every
    inode load builds one, and every call reads a few of its fields.
    """

    __slots__ = (
        "inum", "ftype", "nlink", "size", "mtime", "ctime", "atime",
        "direct", "indirect", "dindirect",
    )

    inum: int
    ftype: FileType
    nlink: int
    size: int
    mtime: float
    ctime: float
    atime: float
    """Access time.  Only FFS maintains it here: LFS keeps atime in the
    inode map so that reads never relocate inodes (paper footnote 2)."""
    direct: List[int]
    indirect: int
    dindirect: int

    def __init__(
        self,
        inum: int,
        ftype: FileType = _FREE,
        nlink: int = 0,
        size: int = 0,
        mtime: float = 0.0,
        ctime: float = 0.0,
        atime: float = 0.0,
        direct: Optional[List[int]] = None,
        indirect: int = NIL,
        dindirect: int = NIL,
    ) -> None:
        if direct is None:
            direct = [NIL] * N_DIRECT
        elif len(direct) != N_DIRECT:
            raise InvalidArgumentError(
                f"inode needs exactly {N_DIRECT} direct pointers, "
                f"got {len(direct)}"
            )
        self.inum = inum
        self.ftype = ftype
        self.nlink = nlink
        self.size = size
        self.mtime = mtime
        self.ctime = ctime
        self.atime = atime
        self.direct = direct
        self.indirect = indirect
        self.dindirect = dindirect

    @property
    def is_dir(self) -> bool:
        return self.ftype is _DIRECTORY

    @property
    def is_allocated(self) -> bool:
        return self.ftype is not _FREE

    def nblocks(self, block_size: int) -> int:
        """Logical blocks spanned by the current size."""
        return (self.size + block_size - 1) // block_size

    def pack(self) -> bytes:
        out = bytearray(INODE_SIZE)
        self.pack_into(out, 0)
        return bytes(out)

    def pack_into(self, buffer: Union[bytearray, memoryview], offset: int) -> int:
        """Serialize into ``buffer`` at ``offset``; returns INODE_SIZE.

        One ``pack_into`` call for the whole record, plus an explicit
        zero of the padding tail (the segment writer's pooled buffers
        are reused, so stale bytes must be overwritten).
        """
        buffer[offset + _INODE_RECORD.size : offset + INODE_SIZE] = _INODE_PAD
        _INODE_RECORD.pack_into(
            buffer,
            offset,
            self.inum,
            int(self.ftype),
            self.nlink,
            self.size,
            self.mtime,
            self.ctime,
            self.atime,
            *self.direct,
            self.indirect,
            self.dindirect,
        )
        return INODE_SIZE

    @classmethod
    def unpack(
        cls, data: Union[bytes, bytearray, memoryview], offset: int = 0
    ) -> "Inode":
        """The inode packed at ``offset`` of ``data`` (read in place)."""
        try:
            fields = _INODE_RECORD.unpack_from(data, offset)
        except struct.error as exc:
            raise CorruptionError(f"truncated inode: {exc}") from exc
        ftype = _FILE_TYPES.get(fields[1])
        if ftype is None:
            raise CorruptionError(f"bad inode file type {fields[1]}")
        return cls(
            fields[0],
            ftype,
            *fields[2:7],
            list(fields[7 : 7 + N_DIRECT]),
            fields[7 + N_DIRECT],
            fields[8 + N_DIRECT],
        )


# A walked container, as BlockMap.get_container gives it.
Container = Tuple[Optional[List[int]], int, Tuple[BlockKey, ...]]


class BlockMap:
    """Walks and edits the direct/indirect pointer tree of one inode.

    ``load_pointers(key, addr)`` must return the live, mutable sequence
    of u64 addresses (see :func:`pointer_block`) for the pointer block
    identified by ``key``.  The
    ``addr`` argument is the on-disk address recorded in the parent
    structure (:data:`NIL` if none); the callback is the authority — a
    file system whose cache already holds the block returns the cached
    list, otherwise it reads ``addr`` from disk, or creates a fresh
    zeroed block when ``addr`` is NIL (how LFS materializes pointer
    blocks that have never been written).  ``dirty(key)`` marks a pointer
    block modified.  ``cached(key)`` tells whether the cache holds a
    block: a read past a NIL pointer still finds a pointer block that
    lives only in the cache (dirty, no disk address yet — the normal LFS
    state), and :meth:`get_missing` skips the data blocks it holds.

    A *container* is what one walk reaches: the inode's direct slots or
    one single-indirect leaf.  The run methods (:meth:`get_missing`,
    :meth:`set_run`) walk once per container and hand the lookups the
    other blocks would have repeated to ``rehit(keys, rounds)``: the
    loaded blocks are cached, so each would have been a hit.  By default
    that repeats the loads.
    """

    def __init__(
        self,
        block_size: int,
        load_pointers: Callable[[BlockKey, int], List[int]],
        dirty: Callable[[BlockKey], None],
        cached: Callable[[BlockKey], bool],
        rehit: Optional[Callable[[Sequence[BlockKey], int], None]] = None,
    ) -> None:
        self.block_size = block_size
        self.ppb = pointers_per_block(block_size)
        self._load = load_pointers
        self._dirty = dirty
        self._cached = cached
        self._rehit = rehit or self._load_again
        self.max_lbn = N_DIRECT + self.ppb + self.ppb * self.ppb - 1

    def _load_again(self, keys: Sequence[BlockKey], rounds: int) -> None:
        for _ in range(rounds):
            for key in keys:
                self._load(key, NIL)

    def _check_lbn(self, lbn: int) -> None:
        if lbn < 0:
            raise InvalidArgumentError(f"negative logical block number: {lbn}")
        if lbn > self.max_lbn:
            raise InvalidArgumentError(
                f"logical block {lbn} beyond maximum file size "
                f"({self.max_lbn + 1} blocks)"
            )

    def _check_range(self, first: int, last: int) -> None:
        """``_check_lbn`` of both ends, with one call when they pass."""
        if not 0 <= first <= last <= self.max_lbn:
            self._check_lbn(first)
            self._check_lbn(last)

    def single_indirect_ordinal(self, lbn: int) -> int:
        """Which INDIRECT block maps ``lbn`` (for lbn >= N_DIRECT)."""
        if lbn < N_DIRECT + self.ppb:
            return 0
        return 1 + (lbn - N_DIRECT - self.ppb) // self.ppb

    def container(self, lbn: int) -> Tuple[int, int, int]:
        """``(ordinal, first, last)`` of the container that maps ``lbn``:
        the single-indirect ordinal (-1 for the inode's direct slots) and
        the first and last logical blocks it maps."""
        if lbn < N_DIRECT:
            return -1, 0, N_DIRECT - 1
        ordinal = self.single_indirect_ordinal(lbn)
        first = N_DIRECT + ordinal * self.ppb
        return ordinal, first, first + self.ppb - 1

    def _leaf_pointers(
        self, inode: Inode, ordinal: int
    ) -> Tuple[List[int], Tuple[BlockKey, ...]]:
        """Pointer list of single-indirect block ``ordinal``, for a write,
        and the keys looked up to reach it (root first).

        The double-indirect root is dirtied on the way: its leaf slot may
        be filled in later by the flush code once the leaf gets a disk
        address.
        """
        if ordinal == 0:
            key = block_key((inode.inum, _INDIRECT, 0))
            return self._load(key, inode.indirect), (key,)
        root_key = block_key((inode.inum, _DINDIRECT, 0))
        root = self._load(root_key, inode.dindirect)
        self._dirty(root_key)
        leaf_key = block_key((inode.inum, _INDIRECT, ordinal))
        return self._load(leaf_key, root[ordinal - 1]), (root_key, leaf_key)

    def _read_leaf(
        self, inode: Inode, ordinal: int
    ) -> Tuple[Optional[List[int]], Tuple[BlockKey, ...]]:
        """Pointer list of single-indirect block ``ordinal`` for a read,
        and the keys looked up to reach it.  None for a hole under a
        pointer block that exists neither on disk nor in the cache:
        nothing is created, at either level."""
        if ordinal == 0:
            key = block_key((inode.inum, _INDIRECT, 0))
            if inode.indirect == NIL and not self._cached(key):
                return None, ()
            return self._load(key, inode.indirect), (key,)
        root_key = block_key((inode.inum, _DINDIRECT, 0))
        if inode.dindirect == NIL and not self._cached(root_key):
            return None, ()
        root = self._load(root_key, inode.dindirect)
        leaf_key = block_key((inode.inum, _INDIRECT, ordinal))
        leaf_addr = root[ordinal - 1]
        if leaf_addr == NIL and not self._cached(leaf_key):
            return None, (root_key,)
        return self._load(leaf_key, leaf_addr), (root_key, leaf_key)

    def get(self, inode: Inode, lbn: int) -> int:
        """Disk address of logical block ``lbn`` (NIL for holes)."""
        if 0 <= lbn < N_DIRECT:
            return inode.direct[lbn]
        pointers, first, _keys = self.get_container(inode, lbn)
        return NIL if pointers is None else pointers[lbn - first]

    def get_container(self, inode: Inode, lbn: int) -> Container:
        """The container that maps ``lbn``, walked as :meth:`get` walks
        it: its pointers (the inode's direct slots, a leaf, or None for a
        hole), the first logical block they map, and the keys the walk
        looked up.

        One walk answers :meth:`get` for every block of the container;
        a caller that asks for more than one hands the lookups the
        others would have repeated to ``rehit``, as the run methods do.
        """
        if 0 <= lbn < N_DIRECT:
            return inode.direct, 0, ()
        self._check_lbn(lbn)
        ordinal, first, _last = self.container(lbn)
        pointers, keys = self._read_leaf(inode, ordinal)
        return pointers, first, keys

    def get_missing(
        self, inode: Inode, first: int, last: int
    ) -> Tuple[List[Tuple[int, int]], Optional[Container]]:
        """``(lbn, addr)`` of every data block in ``[first, last]`` that
        ``cached`` does not hold and that is not a hole, and the
        container of the last of them as :meth:`get_container` gives it
        (None when there is none).

        The same lookups, in the same order, as asking ``cached`` and then
        :meth:`get` block by block, but with one walk per container.
        ``cached`` is still asked block by block after the walk for the
        blocks before it: a walk may read a leaf from disk, and caching
        it may evict a later block of the range.
        """
        self._check_range(first, last)
        cached = self._cached
        inum = inode.inum
        found: List[Tuple[int, int]] = []
        walked: Optional[Container] = None
        lbn = first
        while lbn <= last:
            ordinal, base, end = self.container(lbn)
            pointers: Optional[List[int]] = inode.direct
            keys: Tuple[BlockKey, ...] = ()
            rounds = -1  # lookups past the walk's
            for lbn in range(lbn, min(last, end) + 1):
                if cached(block_key((inum, _DATA, lbn))):
                    continue
                rounds += 1
                if rounds == 0 and ordinal >= 0:
                    pointers, keys = self._read_leaf(inode, ordinal)
                if pointers is not None and pointers[lbn - base] != NIL:
                    found.append((lbn, pointers[lbn - base]))
            if found and found[-1][0] >= base:
                walked = pointers, base, keys
            if rounds > 0 and keys:
                self._rehit(keys, rounds)
            lbn = end + 1
        return found, walked

    def set(self, inode: Inode, lbn: int, addr: int) -> int:
        """Point ``lbn`` at ``addr``; returns the previous address.

        Creates pointer blocks on demand and marks every touched pointer
        block dirty.  The *caller* is responsible for marking the inode
        itself dirty.
        """
        return self.set_run(inode, (lbn,), addr)[0]

    def set_run(
        self, inode: Inode, lbns: Sequence[int], first_addr: int
    ) -> List[int]:
        """Point ``lbns[i]`` at ``first_addr + i``; returns the previous
        addresses.

        ``lbns`` ascend within one container.  As :meth:`set` block by
        block, but only the first block walks the tree (loading, creating
        and dirtying pointer blocks); the other blocks' lookups go to
        ``rehit``, and the pointer blocks they would have dirtied again
        are dirty already.
        """
        if 0 <= lbns[0] and lbns[-1] < N_DIRECT:
            pointers, base = inode.direct, 0
        else:
            self._check_range(lbns[0], lbns[-1])
            ordinal, base, _end = self.container(lbns[0])
            pointers, keys = self._leaf_pointers(inode, ordinal)
            self._dirty(keys[-1])
            if len(lbns) > 1:
                self._rehit(keys, len(lbns) - 1)
        olds = []
        for addr, lbn in enumerate(lbns, first_addr):
            olds.append(pointers[lbn - base])
            pointers[lbn - base] = addr
        return olds

    def clear_run(self, inode: Inode, first: int, last: int) -> List[int]:
        """Point ``[first, last]``, inside one container, at NIL; returns
        the addresses that were not NIL, in block order.

        The lookups of :meth:`get` block by block, and of :meth:`set` to
        NIL for each block that is not a hole, from one walk: the rest
        go to ``rehit``.  A direct-slot container makes none.  The first
        block that is not a hole dirties the pointer blocks, as its
        ``set`` would have.
        """
        self._check_range(first, last)
        ordinal, base, _end = self.container(first)
        if ordinal < 0:
            pointers: Optional[List[int]] = inode.direct
            keys: Tuple[BlockKey, ...] = ()
        else:
            pointers, keys = self._read_leaf(inode, ordinal)
        freed: List[int] = []
        if pointers is not None:
            for index in range(first - base, last - base + 1):
                addr = pointers[index]
                if addr != NIL:
                    if not freed:
                        for key in keys:
                            self._dirty(key)
                    pointers[index] = NIL
                    freed.append(addr)
        if keys:
            rounds = last - first + len(freed)  # past the walk's
            if rounds:
                self._rehit(keys, rounds)
        return freed

    def indirect_block_keys(self, inode: Inode) -> List[BlockKey]:
        """Keys of every pointer block the inode's current size can use."""
        nblocks = inode.nblocks(self.block_size)
        keys: List[BlockKey] = []
        if nblocks > N_DIRECT:
            keys.append(BlockKey(inode.inum, BlockKind.INDIRECT, 0))
        beyond_single = nblocks - N_DIRECT - self.ppb
        if beyond_single > 0:
            keys.append(BlockKey(inode.inum, BlockKind.DINDIRECT, 0))
            nleaves = (beyond_single + self.ppb - 1) // self.ppb
            keys.extend(
                BlockKey(inode.inum, BlockKind.INDIRECT, 1 + j)
                for j in range(nleaves)
            )
        return keys
