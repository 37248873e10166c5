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
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, NamedTuple, Tuple, Union

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


@dataclass
class Inode:
    """An in-memory inode; serialize with :meth:`pack`."""

    inum: int
    ftype: FileType = FileType.FREE
    nlink: int = 0
    size: int = 0
    mtime: float = 0.0
    ctime: float = 0.0
    atime: float = 0.0
    """Access time.  Only FFS maintains it here: LFS keeps atime in the
    inode map so that reads never relocate inodes (paper footnote 2)."""
    direct: List[int] = field(default_factory=lambda: [NIL] * N_DIRECT)
    indirect: int = NIL
    dindirect: int = NIL

    def __post_init__(self) -> None:
        if len(self.direct) != N_DIRECT:
            raise InvalidArgumentError(
                f"inode needs exactly {N_DIRECT} direct pointers, "
                f"got {len(self.direct)}"
            )

    @property
    def is_dir(self) -> bool:
        return self.ftype is FileType.DIRECTORY

    @property
    def is_allocated(self) -> bool:
        return self.ftype is not FileType.FREE

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
    def unpack(cls, data: Union[bytes, memoryview]) -> "Inode":
        try:
            fields = _INODE_RECORD.unpack_from(data)
        except struct.error as exc:
            raise CorruptionError(f"truncated inode: {exc}") from exc
        inum, raw_type, nlink, size, mtime, ctime, atime = fields[:7]
        try:
            ftype = FileType(raw_type)
        except ValueError as exc:
            raise CorruptionError(f"bad inode file type {raw_type}") from exc
        direct = list(fields[7 : 7 + N_DIRECT])
        indirect = fields[7 + N_DIRECT]
        dindirect = fields[8 + N_DIRECT]
        return cls(
            inum=inum,
            ftype=ftype,
            nlink=nlink,
            size=size,
            mtime=mtime,
            ctime=ctime,
            atime=atime,
            direct=direct,
            indirect=indirect,
            dindirect=dindirect,
        )

    def copy(self) -> "Inode":
        return Inode(
            inum=self.inum,
            ftype=self.ftype,
            nlink=self.nlink,
            size=self.size,
            mtime=self.mtime,
            ctime=self.ctime,
            atime=self.atime,
            direct=list(self.direct),
            indirect=self.indirect,
            dindirect=self.dindirect,
        )


class BlockMap:
    """Walks and edits the direct/indirect pointer tree of one inode.

    ``load_pointers(key, addr)`` must return the live, mutable list of
    u64 addresses for the pointer block identified by ``key``.  The
    ``addr`` argument is the on-disk address recorded in the parent
    structure (:data:`NIL` if none); the callback is the authority — a
    file system whose cache already holds the block returns the cached
    list, otherwise it reads ``addr`` from disk, or creates a fresh
    zeroed block when ``addr`` is NIL (how LFS materializes pointer
    blocks that have never been written).  ``dirty(key)`` marks a pointer
    block modified.
    """

    def __init__(
        self,
        block_size: int,
        load_pointers: Callable[[BlockKey, int], List[int]],
        dirty: Callable[[BlockKey], None],
    ) -> None:
        self.block_size = block_size
        self.ppb = pointers_per_block(block_size)
        self._load = load_pointers
        self._dirty = dirty
        self._probe: Callable[[BlockKey], bool] = lambda _key: False
        self.max_lbn = N_DIRECT + self.ppb + self.ppb * self.ppb - 1

    def _check_lbn(self, lbn: int) -> None:
        if lbn < 0:
            raise InvalidArgumentError(f"negative logical block number: {lbn}")
        if lbn > self.max_lbn:
            raise InvalidArgumentError(
                f"logical block {lbn} beyond maximum file size "
                f"({self.max_lbn + 1} blocks)"
            )

    def single_indirect_ordinal(self, lbn: int) -> int:
        """Which INDIRECT block maps ``lbn`` (for lbn >= N_DIRECT)."""
        if lbn < N_DIRECT + self.ppb:
            return 0
        return 1 + (lbn - N_DIRECT - self.ppb) // self.ppb

    def _leaf_pointers(self, inode: Inode, lbn: int, touch: bool) -> List[int]:
        """Pointer list of the single-indirect block covering ``lbn``.

        With ``touch`` the double-indirect root is dirtied when traversed
        for a write (its leaf slot may be filled in later by the flush
        code once the leaf gets a disk address).
        """
        ordinal = self.single_indirect_ordinal(lbn)
        if ordinal == 0:
            key = BlockKey(inode.inum, BlockKind.INDIRECT, 0)
            return self._load(key, inode.indirect)
        root_key = BlockKey(inode.inum, BlockKind.DINDIRECT, 0)
        root = self._load(root_key, inode.dindirect)
        if touch:
            self._dirty(root_key)
        leaf_key = BlockKey(inode.inum, BlockKind.INDIRECT, ordinal)
        return self._load(leaf_key, root[ordinal - 1])

    def get(self, inode: Inode, lbn: int) -> int:
        """Disk address of logical block ``lbn`` (NIL for holes)."""
        self._check_lbn(lbn)
        if lbn < N_DIRECT:
            return inode.direct[lbn]
        # Avoid materializing pointer blocks for reads of obvious holes.
        if lbn < N_DIRECT + self.ppb:
            if inode.indirect == NIL and not self._cached(inode.inum, 0):
                return NIL
        elif inode.dindirect == NIL and not self._cached_root(inode.inum):
            return NIL
        pointers = self._leaf_pointers(inode, lbn, touch=False)
        return pointers[self._leaf_slot(lbn)]

    def set(self, inode: Inode, lbn: int, addr: int) -> int:
        """Point ``lbn`` at ``addr``; returns the previous address.

        Creates pointer blocks on demand and marks every touched pointer
        block dirty.  The *caller* is responsible for marking the inode
        itself dirty.
        """
        self._check_lbn(lbn)
        if lbn < N_DIRECT:
            old = inode.direct[lbn]
            inode.direct[lbn] = addr
            return old
        pointers = self._leaf_pointers(inode, lbn, touch=True)
        slot = self._leaf_slot(lbn)
        old = pointers[slot]
        pointers[slot] = addr
        ordinal = self.single_indirect_ordinal(lbn)
        self._dirty(BlockKey(inode.inum, BlockKind.INDIRECT, ordinal))
        return old

    def _leaf_slot(self, lbn: int) -> int:
        if lbn < N_DIRECT + self.ppb:
            return lbn - N_DIRECT
        return (lbn - N_DIRECT - self.ppb) % self.ppb

    # The hole-read fast path above must not hide pointer blocks that live
    # only in cache (dirty, no disk address yet — the normal LFS state).
    # File systems install a cache probe via ``set_cache_probe``.

    def set_cache_probe(self, probe: Callable[[BlockKey], bool]) -> None:
        self._probe = probe

    def _cached(self, inum: int, ordinal: int) -> bool:
        return self._probe(BlockKey(inum, BlockKind.INDIRECT, ordinal))

    def _cached_root(self, inum: int) -> bool:
        return self._probe(BlockKey(inum, BlockKind.DINDIRECT, 0))

    def iter_allocated(self, inode: Inode) -> Iterator[Tuple[int, int]]:
        """Yield ``(lbn, addr)`` for every non-NIL data pointer in range."""
        for lbn in range(inode.nblocks(self.block_size)):
            addr = self.get(inode, lbn)
            if addr != NIL:
                yield lbn, addr

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
