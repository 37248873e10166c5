"""The inode map (§4.2.1).

LFS inodes float: every flush writes modified inodes to a new place in
the log, so the file system needs a level of indirection from inode
number to the inode's current disk location.  That is the inode map.  An
entry also carries:

* the **version number**, incremented whenever the file is truncated to
  length zero or deleted — the cleaner's fast liveness check (§4.3.3);
* the file's **access time**, kept here rather than in the inode so that
  reading a file does not force its inode to move (paper footnote 2);
* the slot of the inode within its packed inode block.

The map is partitioned into blocks that are themselves written to the
log; the checkpoint region records their addresses.  Per §4.2.1 the
blocks mapping active files are expected to stay memory resident, so
this implementation keeps every block it has touched in memory (for the
paper-scale 32 K inodes the whole map is under a megabyte) and tracks
per-block dirtiness for the segment writer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, List, Optional, Set

from repro.common.inode import NIL
from repro.errors import CorruptionError, NoInodesError
from repro.vfs.base import ROOT_INUM

IMAP_ENTRY_SIZE = 24
"""Packed bytes per inode-map entry."""

# Fixed layout: u64 inode_addr, u8 slot, u8 allocated, u32 version,
# f64 atime, 2 pad bytes.  Precompiled: imap blocks are packed on every
# flush and unpacked on every demand load / roll-forward replay.
_ENTRY_PACK = struct.Struct("<QBBId2x")
_ENTRY_UNPACK = struct.Struct("<QBBId")


@dataclass
class ImapEntry:
    """Where one inode lives, plus version/atime bookkeeping."""

    inode_addr: int = NIL
    """Disk block holding the inode (NIL: free, or dirty-in-memory only)."""
    slot: int = 0
    """Index of the inode within its packed inode block."""
    version: int = 0
    atime: float = 0.0
    allocated: bool = False

    def pack(self) -> bytes:
        return _ENTRY_PACK.pack(
            self.inode_addr,
            self.slot,
            1 if self.allocated else 0,
            self.version,
            self.atime,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "ImapEntry":
        try:
            inode_addr, slot, allocated, version, atime = _ENTRY_UNPACK.unpack_from(
                data
            )
        except struct.error as exc:
            raise CorruptionError(f"truncated imap entry: {exc}") from exc
        return cls(
            inode_addr=inode_addr,
            slot=slot,
            version=version,
            atime=atime,
            allocated=allocated != 0,
        )


class _ImapBlock:
    """One block of the map; it costs what is touched in it.

    Exactly one of ``packed`` (bytes not decoded yet) and ``entries`` is
    set.  ``image`` is the block as ``pack_block_into`` last produced it
    and ``modified`` the positions changed since: only the packer writes
    the image, so shipping it equals a full repack of the entries.
    """

    __slots__ = ("packed", "entries", "image", "modified")

    def __init__(self, packed: Optional[bytes] = None) -> None:
        self.packed = packed
        self.entries: Optional[List[ImapEntry]] = None
        self.image: Optional[bytearray] = None
        self.modified: Set[int] = set()


class InodeMap:
    """In-memory inode map with per-block dirty tracking."""

    def __init__(self, max_inodes: int, block_size: int) -> None:
        self.max_inodes = max_inodes
        self.block_size = block_size
        self.entries_per_block = block_size // IMAP_ENTRY_SIZE
        self.num_blocks = (
            max_inodes + self.entries_per_block - 1
        ) // self.entries_per_block
        # Demand loading (§4.2.1: imap blocks are "cached like regular
        # files"): a block's entries exist only once one of them is
        # touched — read from the log if the block has an address, all
        # free if it was never written.  Mounting builds nothing.
        self._blocks: List[Optional[_ImapBlock]] = [None] * self.num_blocks
        self._dirty_blocks: Set[int] = set()
        self.block_addrs: List[int] = [NIL] * self.num_blocks
        """Current log address of each imap block (NIL: never written)."""
        self._alloc_hint = ROOT_INUM
        self._fetch: Optional[Callable[[int], bytes]] = None
        self.demand_loads = 0
        """Blocks fetched from the log (fresh all-free blocks not counted)."""
        self.entries_decoded = 0
        self.entries_packed = 0
        """Operation counts (asserted by tests): entries, not map geometry."""

    # ------------------------------------------------------------------
    # Entry access
    # ------------------------------------------------------------------

    def _check_inum(self, inum: int) -> None:
        # Inode 0 is reserved so that inum 0 never appears in directories.
        if not 0 < inum < self.max_inodes:
            raise CorruptionError(f"inode number {inum} out of range")

    def block_of(self, inum: int) -> int:
        self._check_inum(inum)
        return inum // self.entries_per_block

    def _block_len(self, index: int) -> int:
        """Entries in block ``index`` (the last block may be short)."""
        return min(
            self.entries_per_block,
            self.max_inodes - index * self.entries_per_block,
        )

    def _checked(self, index: int, data: bytes) -> bytes:
        """A private copy of the packed entries of block ``index``."""
        used = self._block_len(index) * IMAP_ENTRY_SIZE
        if len(data) < used:
            raise CorruptionError(
                f"imap block {index} holds {len(data)} bytes, need {used}"
            )
        return bytes(data[:used])

    def _ensure_loaded(self, index: int) -> List[ImapEntry]:
        """Entries of block ``index``, materialised on first touch."""
        block = self._blocks[index]
        if block is None:
            addr = self.block_addrs[index]
            if addr == NIL:
                block = _ImapBlock()
                block.entries = [ImapEntry() for _ in range(self._block_len(index))]
            elif self._fetch is None:
                raise CorruptionError(
                    f"imap block {index} not loaded and no fetch callback"
                )
            else:
                block = _ImapBlock(self._checked(index, self._fetch(addr)))
                self.demand_loads += 1
            self._blocks[index] = block
        if block.entries is None:
            block.entries = [
                ImapEntry(addr, slot, version, atime, allocated != 0)
                for addr, slot, allocated, version, atime in (
                    _ENTRY_PACK.iter_unpack(block.packed)
                )
            ]
            block.packed = None
            self.entries_decoded += len(block.entries)
        return block.entries

    def get(self, inum: int) -> ImapEntry:
        if not 0 < inum < self.max_inodes:  # _check_inum, on every call
            raise CorruptionError(f"inode number {inum} out of range")
        per_block = self.entries_per_block
        block = self._blocks[inum // per_block]
        if block is None or block.entries is None:
            return self._ensure_loaded(inum // per_block)[inum % per_block]
        return block.entries[inum % per_block]

    def _all_entries(self) -> Iterator[ImapEntry]:
        """Every entry in inode-number order (loads the whole map)."""
        for index in range(self.num_blocks):
            yield from self._ensure_loaded(index)

    def _touch(self, inum: int) -> None:
        """Every mutator ends here, after ``get`` loaded the block."""
        index, position = divmod(inum, self.entries_per_block)
        self._dirty_blocks.add(index)
        self._blocks[index].modified.add(position)

    def set_location(self, inum: int, inode_addr: int, slot: int) -> int:
        """Record a freshly written inode; returns the previous address."""
        entry = self.get(inum)
        if not entry.allocated:
            raise CorruptionError(
                f"inode {inum} written to the log but not allocated"
            )
        previous = entry.inode_addr
        entry.inode_addr = inode_addr
        entry.slot = slot
        self._touch(inum)
        return previous

    def set_atime(self, inum: int, atime: float) -> None:
        entry = self.get(inum)
        entry.atime = atime
        self._touch(inum)

    def bump_version(self, inum: int) -> None:
        """Truncation-to-zero: all previously logged blocks become dead."""
        entry = self.get(inum)
        entry.version += 1
        self._touch(inum)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, now: float) -> int:
        """Allocate a free inode number (lowest-first from a rotating hint)."""
        hint = self._alloc_hint
        start = hint if ROOT_INUM <= hint < self.max_inodes else ROOT_INUM
        for candidate in chain(
            range(start, self.max_inodes), range(ROOT_INUM, start)
        ):
            entry = self.get(candidate)
            if not entry.allocated:
                entry.allocated = True
                entry.inode_addr = NIL
                entry.slot = 0
                entry.atime = now
                self._alloc_hint = candidate + 1
                self._touch(candidate)
                return candidate
        raise NoInodesError(f"all {self.max_inodes} inodes are allocated")

    def force_allocate(self, inum: int, now: float) -> None:
        """Allocate a specific inode number (mkfs uses this for the root)."""
        entry = self.get(inum)
        if entry.allocated:
            raise CorruptionError(f"inode {inum} is already allocated")
        entry.allocated = True
        entry.inode_addr = NIL
        entry.slot = 0
        entry.atime = now
        self._touch(inum)

    def free(self, inum: int) -> int:
        """Free an inode; returns its previous disk address (may be NIL).

        The version bump makes every logged block of the file fail the
        cleaner's summary-entry check (§4.3.3 step 1).
        """
        entry = self.get(inum)
        if not entry.allocated:
            raise CorruptionError(f"double free of inode {inum}")
        previous = entry.inode_addr
        entry.allocated = False
        entry.inode_addr = NIL
        entry.slot = 0
        entry.version += 1
        self._alloc_hint = min(self._alloc_hint, inum)
        self._touch(inum)
        return previous

    def allocated_count(self) -> int:
        return sum(1 for entry in self._all_entries() if entry.allocated)

    # ------------------------------------------------------------------
    # Block (de)serialization for the segment writer / mount path
    # ------------------------------------------------------------------

    def dirty_block_indexes(self) -> List[int]:
        return sorted(self._dirty_blocks)

    def mark_block_dirty(self, index: int) -> None:
        if not 0 <= index < self.num_blocks:
            raise CorruptionError(f"imap block index {index} out of range")
        self._dirty_blocks.add(index)

    def mark_block_clean(self, index: int) -> None:
        self._dirty_blocks.discard(index)

    def pack_block(self, index: int) -> bytes:
        out = bytearray(self.block_size)
        self.pack_block_into(index, out)
        return bytes(out)

    def pack_block_into(self, index: int, out) -> None:
        """Serialize block ``index`` into ``out`` (block_size bytes).

        Only positions modified since the previous pack are packed again;
        the image lands in ``out`` with one slice copy and the tail is
        zeroed (``out`` is a reused pooled buffer holding stale bytes).
        """
        if not 0 <= index < self.num_blocks:
            raise CorruptionError(f"imap block index {index} out of range")
        entries = self._ensure_loaded(index)
        block = self._blocks[index]
        if block.image is None:  # first pack: every position
            block.image = bytearray(len(entries) * IMAP_ENTRY_SIZE)
            block.modified.update(range(len(entries)))
        image = block.image
        pack_into = _ENTRY_PACK.pack_into
        for position in block.modified:
            entry = entries[position]
            pack_into(
                image,
                position * IMAP_ENTRY_SIZE,
                entry.inode_addr,
                entry.slot,
                1 if entry.allocated else 0,
                entry.version,
                entry.atime,
            )
        self.entries_packed += len(block.modified)
        block.modified.clear()
        used = len(image)
        out[:used] = image
        if used < len(out):
            out[used:] = bytes(len(out) - used)  # alloc-ok: tail pad

    def load_block(self, index: int, data: bytes) -> None:
        """Adopt logged bytes for block ``index``, undecoded — and copied:
        roll-forward's payload aliases device storage the log may reuse."""
        if not 0 <= index < self.num_blocks:
            raise CorruptionError(f"imap block index {index} out of range")
        self._blocks[index] = _ImapBlock(self._checked(index, data))
        self._dirty_blocks.discard(index)

    def attach(
        self, addrs: List[int], fetch: Callable[[int], bytes]
    ) -> None:
        """Adopt checkpointed block addresses; blocks load on demand.

        This is what makes LFS mount/recovery time independent of the
        file count: nothing in the map is read until a file is touched.
        """
        if len(addrs) != self.num_blocks:
            raise CorruptionError(
                f"checkpoint lists {len(addrs)} imap blocks, layout has "
                f"{self.num_blocks}"
            )
        self.block_addrs = list(addrs)
        self._fetch = fetch
        self._blocks = [None] * self.num_blocks
        self._dirty_blocks.clear()
        self._alloc_hint = ROOT_INUM
