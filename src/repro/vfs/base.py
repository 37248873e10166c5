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
import struct
from typing import Dict, List, Optional, Set, Tuple

from repro.cache.block_cache import BlockCache
from repro.cache.readahead import ReadaheadPolicy
from repro.cache.writeback import WritebackConfig, WritebackMonitor, WritebackReason
from repro.common.directory import (
    ENTRY_HEADER_SIZE,
    DirectoryBlock,
    validate_name,
)
from repro.common.inode import (
    BlockKey,
    BlockKind,
    BlockMap,
    FileType,
    Inode,
    NIL,
    pointers_per_block,
)
from repro.disk.sim_disk import SimDisk
from repro.errors import (
    CorruptionError,
    DirectoryNotEmptyError,
    FileExistsError_,
    FileNotFoundError_,
    InvalidArgumentError,
    IsADirectoryError_,
    NotADirectoryError_,
    StaleHandleError,
)
from repro.obs import Telemetry
from repro.sim.cpu import CpuModel
from repro.units import KIB
from repro.vfs.interface import FileHandle, FsStats, StatResult, StorageManager
from repro.vfs.path import dirname_basename, split_path

ROOT_INUM = 1
"""Inode number of the root directory in both file systems."""

MAX_READ_CLUSTER = 64 * KIB
"""Largest single disk read issued when filling the cache."""


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
        writeback_config: Optional[WritebackConfig] = None,
        telemetry: Optional[Telemetry] = None,
        readahead_blocks: int = 0,
    ) -> None:
        self.disk = disk
        self.clock = cpu.clock
        self.cpu = cpu
        # Adopt the disk's telemetry when none is given so one object
        # covers the whole simulated machine by default.
        self.telemetry = telemetry or disk.telemetry
        self.telemetry.bind_clock(self.clock)
        self._obs_enabled = self.telemetry.enabled
        self._m_fs_bytes_written = self.telemetry.counter("fs.bytes_written")
        self._m_fs_bytes_read = self.telemetry.counter("fs.bytes_read")
        # The write-amplification ledger's numerator lives in the
        # segment writer (wamp.log_bytes); this is its denominator.
        self._m_wamp_user = self.telemetry.counter("wamp.user_bytes")
        self.cache = BlockCache(
            cache_bytes, self.block_size, telemetry=self.telemetry
        )
        self.readahead = ReadaheadPolicy(
            readahead_blocks, telemetry=self.telemetry
        )
        self.monitor = WritebackMonitor(
            self.cache,
            self.clock,
            writeback_config or WritebackConfig(),
            telemetry=self.telemetry,
        )
        self._stats = FsStats()
        self._inodes: Dict[int, Inode] = {}
        self._dirty_inodes: Set[int] = set()
        # Directory cache by inum, kept coherent by the _dir_* methods,
        # which are the only writers of directory data.
        self._dirs: Dict[int, _Directory] = {}
        self._unmounted = False
        self._in_writeback = False
        self.block_map = BlockMap(
            self.block_size, self._load_pointers, self._dirty_pointer_block
        )
        self.block_map.set_cache_probe(self.cache.contains)

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

    def _install_inode(self, inode: Inode, dirty: bool = True) -> None:
        self._inodes[inode.inum] = inode
        if dirty:
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

    def _load_pointers(self, key: BlockKey, addr: int) -> List[int]:
        block = self.cache.get(key)
        if block is None:
            if addr == NIL:
                payload: List[int] = [NIL] * pointers_per_block(self.block_size)
            else:
                raw = self._read_block_from_disk(addr, label=f"ptr:{key.inum}")
                payload = list(
                    struct.unpack(f"<{pointers_per_block(self.block_size)}Q", raw)
                )
            block = self.cache.insert(key, payload, dirty=False, now=self.clock.now())
        if not isinstance(block.payload, list):
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

    def _data_key(self, inum: int, lbn: int) -> BlockKey:
        return BlockKey(inum, BlockKind.DATA, lbn)

    def _fetch_data_blocks(
        self,
        inode: Inode,
        first: int,
        last: int,
        prefetch_after: Optional[int] = None,
    ) -> None:
        """Ensure data blocks [first, last] are cached (clustered reads).

        Blocks past ``prefetch_after`` are being read ahead of a
        sequential stream rather than on demand: they are reported to
        the readahead policy (so its hit accounting works) and their
        disk-contiguous runs may grow to the full readahead window
        rather than the ordinary demand-read cluster limit.
        """
        missing: List[Tuple[int, int]] = []
        for lbn in range(first, last + 1):
            if not self.cache.contains(self._data_key(inode.inum, lbn)):
                addr = self.block_map.get(inode, lbn)
                if addr != NIL:
                    missing.append((lbn, addr))
        # Coalesce disk-contiguous runs into single requests, as the real
        # systems' read clustering does; this is why LFS's 4 KB blocks do
        # not halve its sequential read bandwidth relative to FFS's 8 KB.
        max_blocks = max(1, MAX_READ_CLUSTER // self.block_size)
        if prefetch_after is not None:
            max_blocks = max(max_blocks, self.readahead.window_blocks)
        index = 0
        while index < len(missing):
            run = [missing[index]]
            while (
                index + len(run) < len(missing)
                and len(run) < max_blocks
                and missing[index + len(run)][1] == run[-1][1] + 1
                and missing[index + len(run)][0] == run[0][0] + len(run)
            ):
                run.append(missing[index + len(run)])
            start_addr = run[0][1]
            raw = self.disk.read(
                start_addr * self.sectors_per_block,
                self.sectors_per_block * len(run),
                label=f"data:{inode.inum}",
                vectored=len(run) > 1,
            )
            for position, (lbn, _addr) in enumerate(run):
                chunk = raw[
                    position * self.block_size : (position + 1) * self.block_size
                ]
                self.cache.insert(
                    self._data_key(inode.inum, lbn),
                    bytearray(chunk),
                    dirty=False,
                    now=self.clock.now(),
                )
                if prefetch_after is not None and lbn > prefetch_after:
                    self.readahead.note_prefetched(inode.inum, lbn)
            index += len(run)

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
        window = self.readahead.advise(inode.inum, first, last)
        if window:
            fetch_last = min(last + window, (inode.size - 1) // bs)
            self._fetch_data_blocks(
                inode, first, fetch_last, prefetch_after=last
            )
        else:
            self._fetch_data_blocks(inode, first, last)
        parts: List[bytes] = []
        for lbn in range(first, last + 1):
            block = self.cache.get(self._data_key(inode.inum, lbn))
            if block is None:
                addr = self.block_map.get(inode, lbn)
                if addr == NIL:
                    chunk = b"\x00" * bs  # hole
                else:
                    # The clustered fetch skipped this block because it
                    # was cached, but inserting its fetched neighbours
                    # evicted it before assembly (cache smaller than
                    # the read window).  Evicted means clean, so the
                    # on-disk copy is current: read it directly rather
                    # than re-inserting a block the cache just dropped.
                    chunk = self._read_block_from_disk(
                        addr, label=f"data:{inode.inum}"
                    )
            else:
                chunk = block.as_bytes(bs)
            lo = offset - lbn * bs if lbn == first else 0
            hi = end - lbn * bs if lbn == last else bs
            parts.append(chunk[max(0, lo) : hi])
        return b"".join(parts)

    def _write_range(self, inode: Inode, offset: int, data: bytes) -> int:
        if offset < 0:
            raise InvalidArgumentError(f"negative write offset: {offset}")
        if not data:
            return 0
        bs = self.block_size
        end = offset + len(data)
        first, last = offset // bs, (end - 1) // bs
        src = 0
        for lbn in range(first, last + 1):
            lo = offset - lbn * bs if lbn == first else 0
            hi = end - lbn * bs if lbn == last else bs
            lo = max(0, lo)
            key = self._data_key(inode.inum, lbn)
            block = self.cache.get(key)
            if block is None:
                if hi - lo == bs:
                    payload = bytearray(bs)
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
                                addr, label=f"rmw:{inode.inum}"
                            )
                        )
                    else:
                        payload = bytearray(bs)
                block = self.cache.insert(
                    key, payload, dirty=True, now=self.clock.now()
                )
            else:
                if not isinstance(block.payload, bytearray):
                    raise CorruptionError(f"data block {key} has wrong payload")
                self.cache.mark_dirty(key, self.clock.now())
            assert isinstance(block.payload, bytearray)
            block.payload[lo:hi] = data[src : src + (hi - lo)]
            src += hi - lo
            self._note_data_block_dirtied(inode, lbn)
        if end > inode.size:
            inode.size = end
        inode.mtime = self.clock.now()
        self._mark_inode_dirty(inode)
        return len(data)

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
        old_keys = set(self.block_map.indirect_block_keys(inode))
        keep_blocks = (new_size + bs - 1) // bs
        for lbn in range(keep_blocks, inode.nblocks(bs)):
            addr = self.block_map.get(inode, lbn)
            if addr != NIL:
                self.block_map.set(inode, lbn, NIL)
                self._release_block_addr(addr)
            self.cache.discard(self._data_key(inode.inum, lbn))
        inode.size = new_size
        new_keys = set(self.block_map.indirect_block_keys(inode))
        # Free pointer blocks the shrunken file no longer needs; leaves
        # before the double-indirect root so parent slots stay readable.
        doomed = sorted(
            old_keys - new_keys,
            key=lambda key: (key.kind is BlockKind.DINDIRECT, key.index),
        )
        for key in doomed:
            self._clear_pointer_block(inode, key)
        if new_size % bs:
            # Zero the dropped tail of the final partial block so a later
            # extension reads zeros, not stale bytes.
            key = self._data_key(inode.inum, new_size // bs)
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
        self.readahead.forget(inode.inum)

    def _release_inode(self, inode: Inode) -> None:
        """Free a file's blocks and its inode number."""
        self._free_file_storage(inode)
        inode.ftype = FileType.FREE
        inode.nlink = 0
        self._on_inode_freed(inode)

    # ------------------------------------------------------------------
    # Directories
    # ------------------------------------------------------------------

    def _write_dir_block(
        self, inode: Inode, index: int, block: DirectoryBlock
    ) -> None:
        # The whole block goes through the file cache, as any data
        # write does, so cache stamps, dirty accounting and what the
        # segment writer or FFS later sends to disk do not depend on how
        # the block was edited.
        self._write_range(inode, index * self.block_size, block.encode())

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
        # First fit, reading each block's fill directly.
        max_used = self.block_size - ENTRY_HEADER_SIZE - len(encoded)
        index = next(
            (i for i, block in enumerate(blocks) if block.used <= max_used),
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
            if inode.is_dir:
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
        components = split_path(path)
        self.cpu.path_lookup(max(1, len(components)))
        inode = self._get_inode(ROOT_INUM)
        for component in components:
            if not inode.is_dir:
                raise NotADirectoryError_(
                    f"{component!r} looked up inside a non-directory in {path!r}"
                )
            child = self._dir_lookup(inode, component)
            if child is None:
                raise FileNotFoundError_(path)
            inode = self._get_inode(child)
        return inode

    def _resolve_parent(self, path: str) -> Tuple[Inode, str]:
        parent_path, name = dirname_basename(path)
        parent = self._namei(parent_path)
        if not parent.is_dir:
            raise NotADirectoryError_(parent_path)
        return parent, name

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

    def create(self, path: str) -> FileHandle:
        self._check_mounted()
        self._check_writable()
        self.cpu.syscall()
        parent, name = self._resolve_parent(path)
        encoded = validate_name(name)
        if self._dir_lookup(parent, name) is not None:
            raise FileExistsError_(path)
        self.cpu.create()
        inum = self._alloc_inum(FileType.REGULAR, parent.inum)
        inode = Inode(
            inum=inum,
            ftype=FileType.REGULAR,
            nlink=1,
            mtime=self.clock.now(),
            ctime=self.clock.now(),
        )
        self._install_inode(inode)
        block_index = self._link_new(parent, name, encoded, inode)
        parent.mtime = self.clock.now()
        self._mark_inode_dirty(parent)
        self._after_create(parent, inode, block_index)
        self._stats.creates += 1
        self._maybe_writeback()
        return FileHandle(self, inum, path)

    def open(self, path: str) -> FileHandle:
        self._check_mounted()
        self.cpu.syscall()
        inode = self._namei(path)
        if inode.is_dir:
            raise IsADirectoryError_(path)
        self._stats.opens += 1
        return FileHandle(self, inode.inum, path)

    def unlink(self, path: str) -> None:
        self._check_mounted()
        self._check_writable()
        self.cpu.syscall()
        parent, name = self._resolve_parent(path)
        child = self._dir_lookup(parent, name)
        if child is None:
            raise FileNotFoundError_(path)
        inode = self._get_inode(child)
        if inode.is_dir:
            raise IsADirectoryError_(path)
        self.cpu.remove()
        _child, block_index = self._dir_remove(parent, name)
        parent.mtime = self.clock.now()
        self._mark_inode_dirty(parent)
        self._release_inode(inode)
        self._after_remove(parent, inode, block_index)
        self._drop_inode(inode.inum)
        self._stats.removes += 1
        self._maybe_writeback()

    def mkdir(self, path: str) -> None:
        self._check_mounted()
        self._check_writable()
        self.cpu.syscall()
        parent, name = self._resolve_parent(path)
        encoded = validate_name(name)
        if self._dir_lookup(parent, name) is not None:
            raise FileExistsError_(path)
        self.cpu.create()
        inum = self._alloc_inum(FileType.DIRECTORY, parent.inum)
        inode = Inode(
            inum=inum,
            ftype=FileType.DIRECTORY,
            nlink=2,
            mtime=self.clock.now(),
            ctime=self.clock.now(),
        )
        self._install_inode(inode)
        block_index = self._link_new(parent, name, encoded, inode)
        parent.nlink += 1
        parent.mtime = self.clock.now()
        self._mark_inode_dirty(parent)
        self._after_create(parent, inode, block_index)
        self._stats.mkdirs += 1
        self._maybe_writeback()

    def rmdir(self, path: str) -> None:
        self._check_mounted()
        self._check_writable()
        self.cpu.syscall()
        parent, name = self._resolve_parent(path)
        child = self._dir_lookup(parent, name)
        if child is None:
            raise FileNotFoundError_(path)
        inode = self._get_inode(child)
        if not inode.is_dir:
            raise NotADirectoryError_(path)
        if self._dir(inode).names:
            raise DirectoryNotEmptyError(path)
        self.cpu.remove()
        _child, block_index = self._dir_remove(parent, name)
        parent.nlink -= 1
        parent.mtime = self.clock.now()
        self._mark_inode_dirty(parent)
        self._release_inode(inode)
        self._after_remove(parent, inode, block_index)
        self._drop_inode(inode.inum)
        self._stats.removes += 1
        self._maybe_writeback()

    def rename(self, old_path: str, new_path: str) -> None:
        self._check_mounted()
        self._check_writable()
        self.cpu.syscall()
        old_parent, old_name = self._resolve_parent(old_path)
        child = self._dir_lookup(old_parent, old_name)
        if child is None:
            raise FileNotFoundError_(old_path)
        moving = self._get_inode(child)
        new_parent, new_name = self._resolve_parent(new_path)
        encoded = validate_name(new_name)
        existing = self._dir_lookup(new_parent, new_name)
        if existing == child:
            return  # both paths name the same entry: POSIX says do nothing
        if existing is not None:
            target = self._get_inode(existing)
            if target.is_dir:
                raise FileExistsError_(f"rename target is a directory: {new_path}")
            if moving.is_dir:
                raise NotADirectoryError_(new_path)
            self.unlink(new_path)
            # unlink re-resolved parents; refresh our references.
            new_parent, new_name = self._resolve_parent(new_path)
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
        if not inode.is_dir:
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
        self._check_mounted()
        inode = self._get_inode(handle.inum)
        if not inode.is_allocated:
            raise StaleHandleError(f"file {handle.path} was deleted")
        return inode

    def pread(
        self, handle: FileHandle, offset: int, length: Optional[int]
    ) -> bytes:
        inode = self._handle_inode(handle)
        if length is None:
            length = max(0, inode.size - offset)
        self.cpu.syscall()
        data = self._read_range(inode, offset, length)
        nblocks = max(1, (len(data) + self.block_size - 1) // self.block_size)
        self.cpu.block_touch(nblocks)
        self.cpu.copy(len(data))
        self._update_atime(inode)
        self._stats.read_calls += 1
        self._stats.bytes_read += len(data)
        if self._obs_enabled:
            self._m_fs_bytes_read.inc(len(data))
        return data

    def pwrite(self, handle: FileHandle, offset: int, data: bytes) -> int:
        if self._obs_enabled:
            with self.telemetry.span("fs.write", bytes=len(data)):
                written = self._pwrite(handle, offset, data)
            self._m_fs_bytes_written.inc(written)
            self._m_wamp_user.inc(written)
            return written
        return self._pwrite(handle, offset, data)

    def _pwrite(self, handle: FileHandle, offset: int, data: bytes) -> int:
        inode = self._handle_inode(handle)
        self._check_writable()
        self.cpu.syscall()
        nblocks = max(1, (len(data) + self.block_size - 1) // self.block_size)
        self.cpu.block_touch(nblocks)
        self.cpu.copy(len(data))
        written = self._write_range(inode, offset, data)
        self._stats.write_calls += 1
        self._stats.bytes_written += written
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
        self.cache.drop_clean(metadata_too=True)
        self._inodes = {
            inum: inode
            for inum, inode in self._inodes.items()
            if inum in self._dirty_inodes or inum == ROOT_INUM
        }
        self._dirs.clear()

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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stats(self) -> FsStats:
        return self._stats

