"""Shared file system machinery.

:class:`BaseFileSystem` implements everything the paper says is *common*
between LFS and the UNIX file system — inode-based files with direct and
indirect blocks, directories as ordinary file data, path resolution, a
write-back file cache — leaving placement, write timing, free-space
management and recovery to hooks the concrete systems override:

* LFS (:mod:`repro.lfs.filesystem`): blocks get disk addresses only when
  a segment is written; create/delete touch no disk; freed addresses
  feed the segment usage array.
* FFS (:mod:`repro.ffs.filesystem`): blocks get addresses at write time
  from cylinder-group bitmaps; create/delete synchronously write the
  inode and directory blocks (the behaviour of the paper's Figure 1).
"""

from __future__ import annotations

import abc
from array import array
from itertools import compress, count
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.cache.block_cache import BlockCache, CacheBlock
from repro.cache.readahead import ReadaheadPolicy
from repro.cache.writeback import WritebackMonitor, WritebackReason
from repro.common.directory import (
    ENTRY_HEADER_SIZE,
    DirectoryBlock,
    validate_name,
)
from repro.common.inode import (
    BlockKey,
    BlockKind,
    BlockMap,
    Container,
    FileType,
    Inode,
    NIL,
    N_DIRECT,
    block_key,
    pointer_block,
)
from repro.disk.sim_disk import SimDisk
from repro.errors import (
    CorruptionError,
    DirectoryNotEmptyError,
    FileExistsError_,
    FileNotFoundError_,
    InvalidArgumentError,
    IsADirectoryError_,
    MediaError,
    NotADirectoryError_,
    StaleHandleError,
)
from repro.obs import Telemetry
from repro.sim.cpu import CpuModel
from repro.units import KIB
from repro.vfs.interface import FileHandle, FsStats, StatResult, StorageManager
from repro.vfs.path import split_path

ROOT_INUM = 1
"""Inode number of the root directory in both file systems."""

MAX_READ_CLUSTER = 64 * KIB
"""Largest single disk read issued when filling the cache."""

# Read per call; through the class each costs a descriptor call.
_DATA = BlockKind.DATA
_FREE = FileType.FREE
_REGULAR = FileType.REGULAR
_DIRECTORY = FileType.DIRECTORY
_USED = attrgetter("used")


class _Directory:
    """A cached directory: its blocks, and a name index over all of them.

    ``names`` maps a name to (child inum, index of the block holding
    the entry); a block's free space is read off the block itself.
    """

    __slots__ = ("blocks", "names")

    def __init__(self) -> None:
        self.blocks: List[DirectoryBlock] = []
        self.names: Dict[str, Tuple[int, int]] = {}


class BaseFileSystem(StorageManager):
    """UNIX file semantics over abstract block placement."""

    def __init__(
        self,
        disk: SimDisk,
        cpu: CpuModel,
        cache_bytes: int,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.disk = disk
        self.clock = cpu.clock
        self.cpu = cpu
        # Adopt the disk's telemetry when none is given so one object
        # covers the whole simulated machine by default.
        self.telemetry = telemetry or disk.telemetry
        self.telemetry.bind_clock(self.clock)
        self._obs_enabled = self.telemetry.enabled
        self._stats = stats = FsStats()
        self.telemetry.counter("fs.bytes_written", lambda: stats.bytes_written)
        self.telemetry.counter("fs.bytes_read", lambda: stats.bytes_read)
        # The write-amplification ledger's numerator lives in the
        # segment writer (wamp.log_bytes); this is its denominator.
        self.telemetry.counter("wamp.user_bytes", lambda: stats.bytes_written)
        self.cache = BlockCache(
            cache_bytes, self.block_size, telemetry=self.telemetry
        )
        # The read-ahead window is one largest read, but no more than a
        # quarter of the cache: prefetch must not evict its own payload.
        self.readahead = ReadaheadPolicy(
            min(MAX_READ_CLUSTER, cache_bytes // 4) // self.block_size,
            self.block_size,
            disk.device.total_bytes // self.block_size,
            disk.geometry.transfer_time,
            telemetry=self.telemetry,
        )
        disk.write_observer = self.readahead.written
        self.monitor = WritebackMonitor(
            self.cache, self.clock, telemetry=self.telemetry
        )
        self._inodes: Dict[int, Inode] = {}
        self._dirty_inodes: Set[int] = set()
        # Times each inode number was freed: a handle opened before the
        # last free names a file that no longer exists.  Memory only.
        self._generations: Dict[int, int] = {}
        # Directory cache by inum, kept coherent by the _dir_* methods,
        # which are the only writers of directory data.
        self._dirs: Dict[int, _Directory] = {}
        self._unmounted = False
        self._in_writeback = False
        self._cluster_blocks = max(1, MAX_READ_CLUSTER // self.block_size)
        self.block_map = BlockMap(
            self.block_size,
            self._load_pointers,
            self._dirty_pointer_block,
            self.cache.contains,
            self.cache.rehit,
        )

    # ------------------------------------------------------------------
    # Abstract placement / policy hooks
    # ------------------------------------------------------------------

    @property
    @abc.abstractmethod
    def block_size(self) -> int:
        """File system block size (must be usable before __init__ runs)."""

    @property
    @abc.abstractmethod
    def sectors_per_block(self) -> int:
        """Device sectors per file system block."""

    @abc.abstractmethod
    def _load_inode_from_disk(self, inum: int) -> Inode:
        """Fetch an inode not present in the inode cache."""

    @abc.abstractmethod
    def _alloc_inum(self, ftype: FileType, parent_inum: int) -> int:
        """Pick a free inode number (placement-policy specific)."""

    @abc.abstractmethod
    def _on_inode_freed(self, inode: Inode) -> None:
        """Record that an inode is free (imap / bitmap bookkeeping)."""

    @abc.abstractmethod
    def _release_block_addr(self, addr: int) -> None:
        """A block address is no longer referenced by any file."""

    @abc.abstractmethod
    def _note_data_block_dirtied(self, inode: Inode, lbn: int) -> None:
        """A data block was modified in cache (FFS allocates here)."""

    @abc.abstractmethod
    def _writeback(self, reason: WritebackReason) -> None:
        """Push dirty cache blocks and dirty inodes toward the disk."""

    @abc.abstractmethod
    def _after_create(
        self, parent: Inode, inode: Inode, dir_block_index: int
    ) -> None:
        """Create committed in memory (FFS forces metadata to disk here)."""

    @abc.abstractmethod
    def _after_remove(
        self, parent: Inode, inode: Inode, dir_block_index: int
    ) -> None:
        """Remove committed in memory (FFS forces metadata to disk here)."""

    @abc.abstractmethod
    def _update_atime(self, inode: Inode) -> None:
        """Record a read access (LFS: inode map; FFS: inode itself)."""

    @abc.abstractmethod
    def _get_atime(self, inode: Inode) -> float:
        """Current access time for ``stat``."""

    def _on_truncate_to_zero(self, inode: Inode) -> None:
        """Hook: LFS bumps the file's inode-map version here (§4.2.1)."""

    # ------------------------------------------------------------------
    # Inode cache
    # ------------------------------------------------------------------

    def _get_inode(self, inum: int) -> Inode:
        inode = self._inodes.get(inum)
        if inode is None:
            inode = self._load_inode_from_disk(inum)
            if inode.inum != inum:
                raise CorruptionError(
                    f"inode {inum} loaded from disk claims to be "
                    f"{inode.inum}"
                )
            self._inodes[inum] = inode
        return inode

    def _install_inode(self, inode: Inode) -> None:
        self._inodes[inode.inum] = inode
        self._mark_inode_dirty(inode)

    def _mark_inode_dirty(self, inode: Inode) -> None:
        self._dirty_inodes.add(inode.inum)

    def _drop_inode(self, inum: int) -> None:
        self._inodes.pop(inum, None)
        self._dirty_inodes.discard(inum)
        self._dirs.pop(inum, None)

    def dirty_inode_numbers(self) -> List[int]:
        """Dirty inodes in ascending order (stable flush order)."""
        return sorted(self._dirty_inodes)

    # ------------------------------------------------------------------
    # Pointer-block access (BlockMap callbacks)
    # ------------------------------------------------------------------

    def _load_pointers(self, key: BlockKey, addr: int) -> "array[int]":
        block = self.cache.get(key)
        if block is None:
            raw = (
                None
                if addr == NIL
                else self._read_block_from_disk(addr, label=f"ptr:{key.inum}")
            )
            block = self.cache.insert(
                key,
                pointer_block(raw, self.block_size),
                dirty=False,
                now=self.clock.now(),
            )
        if not isinstance(block.payload, array):
            raise CorruptionError(f"cached block {key} is not a pointer block")
        return block.payload

    def _dirty_pointer_block(self, key: BlockKey) -> None:
        self.cache.mark_dirty(key, self.clock.now())

    # ------------------------------------------------------------------
    # Raw block I/O
    # ------------------------------------------------------------------

    def _read_block_from_disk(self, addr: int, label: str = "") -> bytes:
        if addr == NIL:
            raise CorruptionError("attempt to read the NIL block address")
        return self.disk.read(
            addr * self.sectors_per_block, self.sectors_per_block, label=label
        )

    # ------------------------------------------------------------------
    # File data I/O
    # ------------------------------------------------------------------

    def _fetch_blocks(
        self,
        missing: Sequence[Tuple[BlockKey, int]],
        label: str,
        inode: Optional[Inode] = None,
        container: Optional[Container] = None,
    ) -> CacheBlock:
        """Cache the blocks ``missing`` (``(key, addr)``, in read order)
        for a reader that waits for them: one demand.  Returns the block
        inserted last: a one-block demand's block, even when a cache
        full of dirty blocks evicted it at once.

        A block the read-ahead window holds is claimed from it.  The
        others are read in disk-contiguous runs, each one request, as
        the real systems' read clustering does; this is why LFS's 4 KB
        blocks do not halve its sequential read bandwidth relative to
        FFS's 8 KB.  When the demand continues the read stream, its
        last request goes on through the next window of addresses,
        which arrive while the reader runs; a demand the window served
        to its last block reads the next window ahead without waiting
        for it.  ``inode`` is the file whose data ``missing`` is, if it
        is data, and ``container`` the pointers that map its last block
        (:meth:`BlockMap.get_missing`): the request then also stops
        where the file jumps within ``container``, unless the file ends
        first.
        """
        readahead = self.readahead
        claim = readahead.claim
        disk = self.disk
        insert = self.cache.insert
        bs = self.block_size
        max_blocks = self._cluster_blocks
        sequential = readahead.continues(*missing[0])
        ends_window = False
        runs: List[List[int]] = []  # [index into missing, blocks]
        for index, (key, addr) in enumerate(missing):
            claimed = claim(addr)
            if claimed is not None:
                view, arrival, ends_window = claimed
                disk.wait_until(arrival)
                block = insert(key, bytearray(view), False, self.clock.now())
                sequential = True
            elif (
                runs
                and runs[-1][0] + runs[-1][1] == index
                and runs[-1][1] < max_blocks
                and missing[index - 1][1] + 1 == addr
            ):
                runs[-1][1] += 1
            else:
                runs.append([index, 1])
        if ends_window and not runs:
            runs.append([len(missing), 0])  # only the next window
        for index, run in runs:
            key, last = missing[index + run - 1]
            ahead = 0
            if sequential and index == runs[-1][0]:
                ahead = readahead.ahead(last)
                if ahead and inode is not None:
                    pointers, base, keys = container
                    lbn, after = key.index, key.index + 1
                    final = inode.nblocks(bs) - 1
                    # A run before the container in hand is not extended:
                    # the window served the demand's blocks after it.
                    if base <= lbn:
                        self.cache.rehit(keys, 1)  # sizing counts as a walk
                        stop = min(lbn + ahead, final, base + len(pointers) - 1)
                        while after <= stop and (
                            pointers[after - base] == last + after - lbn
                        ):
                            after += 1
                    if after <= final:
                        ahead = after - lbn - 1
            raw = self._read_run(last + 1 - run, run, ahead, label)
            now = self.clock.now()
            for (key, _addr), offset in zip(
                missing[index : index + run], range(0, run * bs, bs)
            ):
                block = insert(key, bytearray(raw[offset : offset + bs]), False, now)
        readahead.ended(*missing[-1])
        return block

    def _read_run(
        self, addr: int, run: int, ahead: int, label: str
    ) -> "bytes | memoryview":
        """Read blocks ``[addr, addr + run)``, waiting for them, and,
        best effort, the ``ahead`` blocks after them, without waiting:
        a read-ahead that fails is dropped, and only the demanded
        blocks are read again."""
        disk = self.disk
        spb = self.sectors_per_block
        if ahead > 0:
            try:
                raw = disk.read(
                    addr * spb,
                    (run + ahead) * spb,
                    label=label,
                    vectored=True,
                    demand=run * spb,
                )
            except MediaError:
                pass
            else:
                self.readahead.issued(
                    addr + run, raw[run * self.block_size :], disk.last_read_done
                )
                return raw
        if not run:
            return b""
        return disk.read(addr * spb, run * spb, label=label, vectored=run > 1)

    def _read_range(self, inode: Inode, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0:
            raise InvalidArgumentError(
                f"bad read range: offset={offset}, length={length}"
            )
        end = min(offset + length, inode.size)
        if offset >= end:
            return b""
        bs = self.block_size
        first, last = offset // bs, (end - 1) // bs
        inum = inode.inum
        missing, container = self.block_map.get_missing(inode, first, last)
        if missing:
            self._fetch_blocks(
                [(block_key((inum, _DATA, lbn)), addr) for lbn, addr in missing],
                f"data:{inum}",
                inode,
                container,
            )
        # Data payloads are whole blocks; each is copied once, by join.
        get = self.cache.get
        parts: List[Union[bytes, bytearray]] = []
        for lbn in range(first, last + 1):
            block = get(block_key((inum, _DATA, lbn)))
            if block is not None:
                chunk = block.payload
            elif (addr := self.block_map.get(inode, lbn)) == NIL:
                chunk = bytes(bs)  # hole
            else:
                # The clustered fetch skipped this block because it
                # was cached, but inserting its fetched neighbours
                # evicted it before assembly (cache smaller than
                # the read window).  Evicted means clean, so the
                # on-disk copy is current: read it directly rather
                # than re-inserting a block the cache just dropped.
                chunk = self._read_block_from_disk(addr, label=f"data:{inum}")
            lo = offset - lbn * bs if lbn == first else 0
            hi = end - lbn * bs if lbn == last else bs
            parts.append(chunk if lo == 0 and hi == bs else chunk[lo:hi])
        return b"".join(parts)

    def _write_range(self, inode: Inode, offset: int, data: bytes) -> int:
        if offset < 0:
            raise InvalidArgumentError(f"negative write offset: {offset}")
        if not data:
            return 0
        bs = self.block_size
        end = offset + len(data)
        first, last = offset // bs, (end - 1) // bs
        source = memoryview(data)
        cache = self.cache
        get = cache.get
        now = self.clock.now
        inum = inode.inum
        src = 0
        for lbn in range(first, last + 1):
            lo = offset - lbn * bs if lbn == first else 0
            hi = end - lbn * bs if lbn == last else bs
            piece = source[src : src + hi - lo]
            src += hi - lo
            key = block_key((inum, _DATA, lbn))
            block = get(key)
            if block is None:
                if hi - lo == bs:
                    payload = bytearray(piece)  # the one copy
                else:
                    # Partial update of an uncached block: bring in the
                    # old contents if the block exists on disk.
                    addr = (
                        self.block_map.get(inode, lbn)
                        if lbn * bs < inode.size
                        else NIL
                    )
                    if addr != NIL:
                        payload = bytearray(
                            self._read_block_from_disk(
                                addr, label=f"rmw:{inum}"
                            )
                        )
                    else:
                        payload = bytearray(bs)
                    payload[lo:hi] = piece
                cache.insert(key, payload, True, now())
            else:
                if not isinstance(block.payload, bytearray):
                    raise CorruptionError(f"data block {key} has wrong payload")
                if not block.dirty:
                    cache.mark_dirty(key, now())
                block.payload[lo:hi] = piece
            self._note_data_block_dirtied(inode, lbn)
        if end > inode.size:
            inode.size = end
        inode.mtime = now()
        self._mark_inode_dirty(inode)
        return end - offset

    # -- truncation ---------------------------------------------------

    def _pointer_block_addr(self, inode: Inode, key: BlockKey) -> int:
        """Current on-disk address of a pointer block (NIL if none)."""
        if key.kind is BlockKind.DINDIRECT:
            return inode.dindirect
        if key.kind is not BlockKind.INDIRECT:
            raise InvalidArgumentError(f"not a pointer block key: {key}")
        if key.index == 0:
            return inode.indirect
        root = self._load_pointers(
            BlockKey(inode.inum, BlockKind.DINDIRECT, 0), inode.dindirect
        )
        return root[key.index - 1]

    def _set_pointer_block_addr(
        self, inode: Inode, key: BlockKey, addr: int
    ) -> int:
        """Store ``addr`` in the parent slot of a pointer block.

        Returns the address the slot held (NIL if none).
        """
        if key.kind is BlockKind.DINDIRECT:
            old, inode.dindirect = inode.dindirect, addr
        elif key.kind is not BlockKind.INDIRECT:
            raise InvalidArgumentError(f"not a pointer block key: {key}")
        elif key.index == 0:
            old, inode.indirect = inode.indirect, addr
        else:
            root_key = BlockKey(inode.inum, BlockKind.DINDIRECT, 0)
            root = self._load_pointers(root_key, inode.dindirect)
            old, root[key.index - 1] = root[key.index - 1], addr
            self.cache.mark_dirty(root_key, self.clock.now())
        return old

    def _clear_pointer_block(self, inode: Inode, key: BlockKey) -> None:
        """Drop a pointer block: release its address, zero the parent slot."""
        addr = self._set_pointer_block_addr(inode, key, NIL)
        if addr != NIL:
            self._release_block_addr(addr)
        self.cache.discard(key)

    def _truncate(self, inode: Inode, new_size: int) -> None:
        if new_size < 0:
            raise InvalidArgumentError(f"negative truncate size: {new_size}")
        bs = self.block_size
        if new_size >= inode.size:
            inode.size = new_size
            inode.mtime = self.clock.now()
            self._mark_inode_dirty(inode)
            return
        block_map = self.block_map
        nblocks = inode.nblocks(bs)
        old_keys = (
            set(block_map.indirect_block_keys(inode))
            if nblocks > N_DIRECT
            else None
        )
        release = self._release_block_addr
        discard = self.cache.discard
        inum = inode.inum
        # One walk per pointer container.  Its data blocks leave the
        # cache before the next container's walk, which may read a leaf
        # and evict, as the block-by-block loop did.
        first = (new_size + bs - 1) // bs
        while first < nblocks:
            last = min(block_map.container(first)[2], nblocks - 1)
            for addr in block_map.clear_run(inode, first, last):
                release(addr)
            for lbn in range(first, last + 1):
                discard(block_key((inum, _DATA, lbn)))
            first = last + 1
        inode.size = new_size
        if old_keys:
            # Free pointer blocks the shrunken file no longer needs;
            # leaves before the double-indirect root so parent slots stay
            # readable.
            doomed = sorted(
                old_keys - set(block_map.indirect_block_keys(inode)),
                key=lambda key: (key.kind is BlockKind.DINDIRECT, key.index),
            )
            for key in doomed:
                self._clear_pointer_block(inode, key)
        if new_size % bs:
            # Zero the dropped tail of the final partial block so a later
            # extension reads zeros, not stale bytes.
            key = block_key((inum, _DATA, new_size // bs))
            block = self.cache.peek(key)
            if block is None:
                addr = self.block_map.get(inode, new_size // bs)
                if addr != NIL:
                    payload = bytearray(
                        self._read_block_from_disk(addr, label="trunc-tail")
                    )
                    block = self.cache.insert(
                        key, payload, dirty=True, now=self.clock.now()
                    )
            if block is not None and isinstance(block.payload, bytearray):
                block.payload[new_size % bs :] = bytes(bs - new_size % bs)
                self.cache.mark_dirty(key, self.clock.now())
        inode.mtime = self.clock.now()
        self._mark_inode_dirty(inode)
        if new_size == 0:
            self._on_truncate_to_zero(inode)

    def _free_file_storage(self, inode: Inode) -> None:
        """Release every block of a deleted file."""
        self._truncate(inode, 0)
        self.cache.discard_file(inode.inum)

    def _release_inode(self, inode: Inode) -> None:
        """Free a file's blocks and its inode number."""
        self._free_file_storage(inode)
        inode.ftype = _FREE
        inode.nlink = 0
        self._on_inode_freed(inode)
        inum = inode.inum
        self._generations[inum] = self._generations.get(inum, 0) + 1

    # ------------------------------------------------------------------
    # Directories
    # ------------------------------------------------------------------

    def _write_dir_block(
        self, inode: Inode, index: int, block: DirectoryBlock
    ) -> None:
        # The whole block goes through the file cache, as any data
        # write does, so cache stamps, dirty accounting and what the
        # segment writer or FFS later sends to disk do not depend on how
        # the block was edited.  The cache copies what it is handed.
        self._write_range(inode, index * self.block_size, memoryview(block.data))

    def _new_dir(self, inode: Inode) -> None:
        """Give a new directory its first, empty, data block.

        Like the classic UNIX "." / ".." block: the inode that the
        create path persists already points at valid directory data,
        so a crash can never leave a directory whose entries are
        unreachable through a stale zero-length inode.
        """
        directory = self._dirs[inode.inum] = _Directory()
        directory.blocks.append(DirectoryBlock(self.block_size))
        self._write_dir_block(inode, 0, directory.blocks[0])

    def _dir(self, inode: Inode) -> _Directory:
        directory = self._dirs.get(inode.inum)
        if directory is None:
            directory = _Directory()
            bs = self.block_size
            for index in range(inode.nblocks(bs)):
                block = DirectoryBlock.decode(
                    self._read_range(inode, index * bs, bs), bs
                )
                for name, child in block.as_dict().items():
                    directory.names[name] = (child, index)
                directory.blocks.append(block)
            self._dirs[inode.inum] = directory
        return directory

    def _dir_lookup(self, inode: Inode, name: str) -> Optional[int]:
        entry = self._dir(inode).names.get(name)
        return None if entry is None else entry[0]

    def _dir_add(
        self, inode: Inode, name: str, encoded: bytes, child: int
    ) -> int:
        """Insert an entry; returns the index of the block modified.

        ``encoded`` is ``validate_name(name)``: callers check the name
        before they allocate or remove anything.
        """
        directory = self._dir(inode)
        if name in directory.names:
            raise FileExistsError_(f"directory entry {name!r} already exists")
        blocks = directory.blocks
        # First fit, reading each block's fill directly; the scan runs
        # in C, as the blocks of a big directory are mostly full.
        max_used = self.block_size - ENTRY_HEADER_SIZE - len(encoded)
        index = next(
            compress(count(), map(max_used.__ge__, map(_USED, blocks))),
            len(blocks),
        )
        block = (
            blocks[index]
            if index < len(blocks)
            else DirectoryBlock(self.block_size)
        )
        block.add(name, child, encoded)
        try:
            self._write_dir_block(inode, index, block)
        except Exception:
            block.remove(name)  # the cached block must agree with ``names``
            raise
        if index == len(blocks):
            blocks.append(block)
        directory.names[name] = (child, index)
        return index

    def _link_new(self, parent: Inode, name: str, encoded: bytes, inode: Inode) -> int:
        """Enter a just-allocated inode in ``parent``; if a directory
        write fails the inode is freed again, not left unreachable."""
        try:
            if inode.ftype is _DIRECTORY:
                self._new_dir(inode)
            return self._dir_add(parent, name, encoded, inode.inum)
        except Exception:
            self._release_inode(inode)
            self._drop_inode(inode.inum)
            raise

    def _dir_remove(self, inode: Inode, name: str) -> Tuple[int, int]:
        """Remove an entry; returns (child inum, block index modified)."""
        directory = self._dir(inode)
        entry = directory.names.get(name)
        if entry is None:
            raise FileNotFoundError_(f"no directory entry {name!r}")
        child, index = entry
        block = directory.blocks[index]
        block.remove(name)
        try:
            self._write_dir_block(inode, index, block)
        except Exception:
            block.add(name, child)  # as in _dir_add
            raise
        del directory.names[name]
        return child, index

    # ------------------------------------------------------------------
    # Path resolution
    # ------------------------------------------------------------------

    def _namei(self, path: str) -> Inode:
        return self._walk(split_path(path), path)

    def _walk(self, components: Sequence[str], path: str = "") -> Inode:
        """The inode ``components`` name, looked up from the root.

        ``path`` names them in error messages (default: their own
        normalized path).
        """
        self.cpu.path_lookup(len(components) or 1)
        inodes, dirs = self._inodes, self._dirs
        inode = inodes.get(ROOT_INUM) or self._get_inode(ROOT_INUM)
        for component in components:
            if inode.ftype is not _DIRECTORY:
                raise NotADirectoryError_(
                    f"{component!r} looked up inside a non-directory in "
                    f"{path or '/' + '/'.join(components)!r}"
                )
            entry = (dirs.get(inode.inum) or self._dir(inode)).names.get(
                component
            )
            if entry is None:
                raise FileNotFoundError_(path or "/" + "/".join(components))
            inode = inodes.get(entry[0]) or self._get_inode(entry[0])
        return inode

    def _resolve_parent(self, components: List[str]) -> Tuple[Inode, str]:
        """The directory that holds the last of ``components``, and that
        last component: one walk, over the components before it."""
        if not components:
            raise InvalidArgumentError("the root directory has no parent")
        parent_components = components[:-1]
        parent = self._walk(parent_components)
        if parent.ftype is not _DIRECTORY:
            raise NotADirectoryError_("/" + "/".join(parent_components))
        return parent, components[-1]

    # ------------------------------------------------------------------
    # Public namespace operations
    # ------------------------------------------------------------------

    def _check_mounted(self) -> None:
        if self._unmounted:
            raise StaleHandleError("file system is unmounted")

    def _check_writable(self) -> None:
        """Hook run before every mutating operation.

        The base implementation allows all writes; a storage manager
        that supports a degraded read-only mode (see
        :meth:`repro.lfs.LogStructuredFS.degraded`) overrides this to
        raise :class:`~repro.errors.ReadOnlyFSError` so mutations are
        refused uniformly at the VFS entry points while reads continue.
        """

    def _make(self, path: str, ftype: FileType) -> Inode:
        """The body of ``create`` and ``mkdir``: a new inode, entered in
        its parent directory."""
        self._check_mounted()
        self._check_writable()
        self.cpu.syscall()
        parent, name = self._resolve_parent(split_path(path))
        encoded = validate_name(name)
        if name in self._dir(parent).names:
            raise FileExistsError_(path)
        self.cpu.create()
        inum = self._alloc_inum(ftype, parent.inum)
        now = self.clock.now()
        is_dir = ftype is _DIRECTORY
        inode = Inode(
            inum=inum, ftype=ftype, nlink=2 if is_dir else 1, mtime=now, ctime=now
        )
        self._install_inode(inode)
        # Writing the entry's block stamps the parent's mtime and marks
        # the parent dirty, as any write to a file does.
        block_index = self._link_new(parent, name, encoded, inode)
        if is_dir:
            parent.nlink += 1
        self._after_create(parent, inode, block_index)
        return inode

    def _remove(self, path: str, ftype: FileType) -> None:
        """The body of ``unlink`` and ``rmdir``."""
        self._check_mounted()
        self._check_writable()
        self.cpu.syscall()
        parent, name = self._resolve_parent(split_path(path))
        entry = self._dir(parent).names.get(name)
        if entry is None:
            raise FileNotFoundError_(path)
        inode = self._get_inode(entry[0])
        is_dir = ftype is _DIRECTORY
        if (inode.ftype is _DIRECTORY) != is_dir:
            raise (NotADirectoryError_ if is_dir else IsADirectoryError_)(path)
        if is_dir and self._dir(inode).names:
            raise DirectoryNotEmptyError(path)
        self.cpu.remove()
        # Stamps the parent's mtime and marks it dirty, as in _make.
        _child, block_index = self._dir_remove(parent, name)
        if is_dir:
            parent.nlink -= 1
        self._release_inode(inode)
        self._after_remove(parent, inode, block_index)
        self._drop_inode(inode.inum)
        self._stats.removes += 1
        self._maybe_writeback()

    def create(self, path: str) -> FileHandle:
        inum = self._make(path, _REGULAR).inum
        self._stats.creates += 1
        self._maybe_writeback()
        return FileHandle(self, inum, path, self._generations.get(inum, 0))

    def open(self, path: str) -> FileHandle:
        self._check_mounted()
        self.cpu.syscall()
        inode = self._namei(path)
        if inode.ftype is _DIRECTORY:
            raise IsADirectoryError_(path)
        self._stats.opens += 1
        inum = inode.inum
        return FileHandle(self, inum, path, self._generations.get(inum, 0))

    def unlink(self, path: str) -> None:
        self._remove(path, _REGULAR)

    def mkdir(self, path: str) -> None:
        self._make(path, _DIRECTORY)
        self._stats.mkdirs += 1
        self._maybe_writeback()

    def rmdir(self, path: str) -> None:
        self._remove(path, _DIRECTORY)

    def rename(self, old_path: str, new_path: str) -> None:
        self._check_mounted()
        self._check_writable()
        self.cpu.syscall()
        old = split_path(old_path)
        old_parent, old_name = self._resolve_parent(old)
        child = self._dir_lookup(old_parent, old_name)
        if child is None:
            raise FileNotFoundError_(old_path)
        moving = self._get_inode(child)
        new = split_path(new_path)
        new_parent, new_name = self._resolve_parent(new)
        encoded = validate_name(new_name)
        existing = self._dir_lookup(new_parent, new_name)
        if existing == child:
            return  # both paths name the same entry: POSIX says do nothing
        if new[: len(old)] == old:
            # The new path runs through the entry being moved: it would
            # leave the tree inside itself, and its subtree would leak.
            raise InvalidArgumentError(
                f"cannot move {old_path!r} inside itself: {new_path!r}"
            )
        if existing is not None:
            target = self._get_inode(existing)
            if target.is_dir:
                raise FileExistsError_(f"rename target is a directory: {new_path}")
            if moving.is_dir:
                raise NotADirectoryError_(new_path)
            self.unlink(new_path)
            # unlink re-resolved parents; refresh our references.
            new_parent, new_name = self._resolve_parent(new)
        self.cpu.create()
        self._dir_remove(old_parent, old_name)
        self._dir_add(new_parent, new_name, encoded, moving.inum)
        if moving.is_dir and old_parent.inum != new_parent.inum:
            old_parent.nlink -= 1
            new_parent.nlink += 1
        now = self.clock.now()
        old_parent.mtime = now
        new_parent.mtime = now
        self._mark_inode_dirty(old_parent)
        self._mark_inode_dirty(new_parent)
        self._maybe_writeback()

    def listdir(self, path: str) -> List[str]:
        self._check_mounted()
        self.cpu.syscall()
        inode = self._namei(path)
        if inode.ftype is not _DIRECTORY:
            raise NotADirectoryError_(path)
        return sorted(self._dir(inode).names)

    def stat(self, path: str) -> StatResult:
        self._check_mounted()
        self.cpu.syscall()
        inode = self._namei(path)
        return StatResult(
            inum=inode.inum,
            ftype=inode.ftype,
            size=inode.size,
            nlink=inode.nlink,
            mtime=inode.mtime,
            atime=self._get_atime(inode),
        )

    # ------------------------------------------------------------------
    # Public file I/O
    # ------------------------------------------------------------------

    def _handle_inode(self, handle: FileHandle) -> Inode:
        """The prologue of every call on an open file: the file system is
        mounted, and the file the handle opened still exists.  Its inode
        number may name a newer file by now; the generation tells."""
        if self._unmounted:
            raise StaleHandleError("file system is unmounted")
        inum = handle.inum
        inode = self._inodes.get(inum) or self._get_inode(inum)
        if (
            inode.ftype is _FREE
            or self._generations.get(inum, 0) != handle.generation
        ):
            raise StaleHandleError(f"file {handle.path} was deleted")
        return inode

    def pread(
        self, handle: FileHandle, offset: int, length: Optional[int]
    ) -> bytes:
        inode = self._handle_inode(handle)
        if length is None:
            length = max(0, inode.size - offset)
        cpu = self.cpu
        cpu.syscall()
        data = self._read_range(inode, offset, length)
        nbytes = len(data)
        bs = self.block_size
        cpu.block_touch((nbytes + bs - 1) // bs or 1)
        cpu.copy(nbytes)
        self._update_atime(inode)
        stats = self._stats
        stats.read_calls += 1
        stats.bytes_read += nbytes
        return data

    def pwrite(self, handle: FileHandle, offset: int, data: bytes) -> int:
        if self._obs_enabled:
            with self.telemetry.span("fs.write", bytes=len(data)):
                return self._pwrite(handle, offset, data)
        return self._pwrite(handle, offset, data)

    def _pwrite(self, handle: FileHandle, offset: int, data: bytes) -> int:
        inode = self._handle_inode(handle)
        self._check_writable()
        cpu = self.cpu
        cpu.syscall()
        nbytes = len(data)
        bs = self.block_size
        cpu.block_touch((nbytes + bs - 1) // bs or 1)
        cpu.copy(nbytes)
        written = self._write_range(inode, offset, data)
        stats = self._stats
        stats.write_calls += 1
        stats.bytes_written += written
        self._maybe_writeback()
        return written

    def ftruncate(self, handle: FileHandle, size: int) -> None:
        inode = self._handle_inode(handle)
        self._check_writable()
        self.cpu.syscall()
        self._truncate(inode, size)
        self._maybe_writeback()

    def handle_size(self, handle: FileHandle) -> int:
        return self._handle_inode(handle).size

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def _maybe_writeback(self) -> None:
        if self._in_writeback:
            return
        reason = self.monitor.check()
        if reason is not None:
            self._stats.note_writeback(reason.value)
            self._in_writeback = True
            try:
                with self.telemetry.span("cache.flush", reason=reason.value):
                    self._writeback(reason)
            finally:
                self._in_writeback = False

    def sync(self) -> None:
        self._check_mounted()
        self.cpu.syscall()
        self.monitor.note_explicit(WritebackReason.SYNC)
        self._stats.note_writeback(WritebackReason.SYNC.value)
        self._stats.syncs += 1
        self._in_writeback = True
        try:
            with self.telemetry.span(
                "cache.flush", reason=WritebackReason.SYNC.value
            ):
                self._writeback(WritebackReason.SYNC)
        finally:
            self._in_writeback = False
        self.disk.drain()

    def flush_caches(self) -> None:
        self.sync()
        self.cache.drop_clean()
        self._inodes = {
            inum: inode
            for inum, inode in self._inodes.items()
            if inum in self._dirty_inodes or inum == ROOT_INUM
        }
        self._dirs.clear()
        self.readahead.clear()

    def unmount(self) -> None:
        if self._unmounted:
            return
        self.sync()
        self._unmounted = True

    def crash(self) -> None:
        """Simulate an OS crash: in-flight disk writes and memory are lost."""
        self.disk.crash()
        self._unmounted = True
        # A dead file system is one big reference cycle; give its cache
        # back now so that peak memory is not a matter of collector timing.
        self.cache.clear()
        self.readahead.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stats(self) -> FsStats:
        return self._stats

