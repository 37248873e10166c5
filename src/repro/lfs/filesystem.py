"""The log-structured storage manager.

:class:`LogStructuredFS` combines the shared VFS machinery with the LFS
pieces: every write-back gathers the dirty state of the whole file
system — data and directory blocks, indirect blocks, inodes, inode-map
blocks, and (at checkpoints) segment-usage blocks — into one plan that
the segment writer pushes to the log in large sequential asynchronous
transfers (§4.1).  Creates and deletes touch only memory; the only
synchronous write in the system is the periodic checkpoint region.
"""

from __future__ import annotations

import struct
from dataclasses import astuple, dataclass, replace
from functools import partial
from typing import Any, Dict, List, Optional, Set

from repro.cache.writeback import WritebackReason
from repro.common.inode import (
    BlockKey,
    BlockKind,
    FileType,
    Inode,
    INODE_SIZE,
    N_DIRECT,
    NIL,
)
from repro.common.serialization import U32, checksum
from repro.disk.sim_disk import SimDisk
from repro.errors import (
    CorruptionError,
    NoSpaceError,
    ReadOnlyFSError,
    StaleHandleError,
)
from repro.lfs.checkpoint import CheckpointData, CheckpointManager
from repro.lfs.cleaner import CleanerPolicy, SegmentCleaner
from repro.lfs.config import LFS_MAGIC, LfsConfig, LfsLayout
from repro.lfs.inode_map import InodeMap
from repro.lfs.recovery import RollForwardReport, roll_forward
from repro.lfs.segments import PlannedBlock, SegmentManager
from repro.lfs.segment_usage import SegmentState, SegmentUsage
from repro.lfs.summary import SummaryEntry
from repro.obs import Telemetry
from repro.sim.cpu import CpuModel
from repro.units import MIB
from repro.vfs.base import BaseFileSystem, ROOT_INUM


_SUPERBLOCK = struct.Struct("<IIIIIQ")
"""magic, CRC of the fields after it, then :class:`SuperBlock`'s fields."""
_SUPERBLOCK_BODY = slice(8, _SUPERBLOCK.size)


@dataclass(frozen=True)
class SuperBlock:
    """Static file system parameters at block 0."""

    block_size: int
    segment_size: int
    max_inodes: int
    total_blocks: int

    def pack(self) -> bytes:
        data = bytearray(self.block_size)
        _SUPERBLOCK.pack_into(data, 0, LFS_MAGIC, 0, *astuple(self))
        U32.pack_into(data, 4, checksum(data[_SUPERBLOCK_BODY]))
        return bytes(data)

    @classmethod
    def unpack(cls, data: bytes) -> "SuperBlock":
        if len(data) < _SUPERBLOCK.size:
            raise CorruptionError(f"truncated superblock: {len(data)} bytes")
        magic, crc, *fields = _SUPERBLOCK.unpack_from(data)
        if magic != LFS_MAGIC:
            raise CorruptionError(f"not an LFS superblock (magic 0x{magic:08x})")
        if checksum(data[_SUPERBLOCK_BODY]) != crc:
            raise CorruptionError("superblock checksum mismatch")
        return cls(*fields)


class LogStructuredFS(BaseFileSystem):
    """The paper's LFS storage manager."""

    def __init__(
        self,
        disk: SimDisk,
        cpu: CpuModel,
        config: LfsConfig,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._config = config
        self.layout = LfsLayout.for_device(config, disk.device.total_bytes)
        super().__init__(
            disk,
            cpu,
            config.cache_bytes,
            config.writeback,
            telemetry=telemetry,
            readahead_blocks=config.readahead_blocks,
        )
        self.imap = InodeMap(config.max_inodes, config.block_size)
        self.usage = SegmentUsage(
            self.layout.num_segments, config.segment_size, config.block_size
        )
        # The reserve must cover the worst single write-back the cleaner
        # can be asked to perform: the user dirty backlog that triggered
        # cleaning (the cache's dirty threshold), plus one batch of
        # relocated victims, plus metadata.  An undersized reserve can
        # deadlock the cleaner's own flush on a busy, nearly full disk.
        dirty_limit_segments = -(
            -int(config.cache_bytes * config.writeback.dirty_high_fraction)
            // config.segment_size
        )
        reserve = max(
            config.cleaner_reserve_segments,
            dirty_limit_segments + 4 + 2,
        )
        reserve = min(reserve, max(2, self.layout.num_segments // 3))
        self.segments = SegmentManager(
            self.layout,
            self.usage,
            disk,
            self.clock,
            reserve,
            telemetry=self.telemetry,
        )
        self.checkpoints = CheckpointManager(
            self.layout, disk, self.clock, telemetry=self.telemetry
        )
        self.cleaner = SegmentCleaner(
            self,
            policy=CleanerPolicy(config.cleaner_policy),
            telemetry=self.telemetry,
        )
        self.last_recovery: Optional[RollForwardReport] = None
        self._flushing = False
        # Degraded read-only state machine: media-damage strikes
        # (quarantined segments, unreadable recovery sectors) accumulate
        # until the quarantine budget is exhausted, then the fs stops
        # accepting writes while continuing to serve reads.
        self._degraded = False
        self._media_strikes = 0
        self._g_degraded = self.telemetry.gauge("fs.degraded")
        disk.retry = config.retry

    # ------------------------------------------------------------------
    # Construction: mkfs and mount
    # ------------------------------------------------------------------

    @classmethod
    def mkfs(
        cls,
        disk: SimDisk,
        cpu: CpuModel,
        config: Optional[LfsConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> "LogStructuredFS":
        """Format the device and return a mounted, empty file system."""
        config = config or LfsConfig()
        fs = cls(disk, cpu, config, telemetry=telemetry)
        superblock = SuperBlock(
            block_size=config.block_size,
            segment_size=config.segment_size,
            max_inodes=config.max_inodes,
            total_blocks=fs.layout.total_blocks,
        )
        disk.write(0, superblock.pack(), sync=True, label="superblock")
        fs.segments.start_fresh()
        fs.imap.force_allocate(ROOT_INUM, fs.clock.now())
        root = Inode(
            inum=ROOT_INUM,
            ftype=FileType.DIRECTORY,
            nlink=2,
            mtime=fs.clock.now(),
            ctime=fs.clock.now(),
        )
        fs._install_inode(root)
        fs._new_dir(root)
        fs.flush_log(checkpoint=True)
        return fs

    @classmethod
    def mount(
        cls,
        disk: SimDisk,
        cpu: CpuModel,
        config: Optional[LfsConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> "LogStructuredFS":
        """Attach an existing LFS, recovering from a crash if necessary.

        ``config`` may override policy knobs (cache size, cleaner policy,
        roll-forward); the on-disk geometry always comes from the
        superblock.
        """
        raw = disk.read(0, 8, label="superblock")
        superblock = SuperBlock.unpack(raw)
        merged = replace(
            config or LfsConfig(),
            block_size=superblock.block_size,
            segment_size=superblock.segment_size,
            max_inodes=superblock.max_inodes,
        )
        fs = cls(disk, cpu, merged, telemetry=telemetry)
        checkpoint, _region = fs.checkpoints.load_latest()
        # Inode-map blocks load on demand (§4.2.1); only the small
        # segment-usage array is read eagerly, with coalesced requests.
        fs.imap.attach(checkpoint.imap_addrs, fs._read_meta_block)
        preloaded = fs._read_meta_blocks(checkpoint.usage_addrs)
        fs.usage.load_all(checkpoint.usage_addrs, preloaded.__getitem__)
        fs.segments.restore(checkpoint.position)
        fs.usage.force_state(
            checkpoint.position.active_segment, SegmentState.ACTIVE
        )
        fs.usage.force_state(
            checkpoint.position.next_segment, SegmentState.ACTIVE
        )
        if merged.roll_forward:
            fs.last_recovery = roll_forward(fs, checkpoint)
            if fs.last_recovery.media_errors:
                fs.note_media_damage(
                    fs.last_recovery.media_errors, reason="recovery"
                )
            if fs.last_recovery.partials_applied:
                # Make the recovered state durable immediately (a no-op
                # if recovery damage just degraded the volume: the
                # recovered state stays readable in memory, and writing
                # to failing media would risk making things worse).
                fs.flush_log(checkpoint=True)
        else:
            fs.last_recovery = RollForwardReport()
        return fs

    def _read_meta_block(self, addr: int) -> bytes:
        return self._read_block_from_disk(addr, label="mount metadata")

    def _read_meta_blocks(self, addrs: List[int]) -> Dict[int, bytes]:
        """Read many metadata blocks, coalescing disk-contiguous runs."""
        bs = self.block_size
        spb = self.sectors_per_block
        wanted = sorted({addr for addr in addrs if addr != NIL})
        result: Dict[int, bytes] = {}
        index = 0
        while index < len(wanted):
            run_start = wanted[index]
            run_len = 1
            while (
                index + run_len < len(wanted)
                and wanted[index + run_len] == run_start + run_len
                and run_len < 64
            ):
                run_len += 1
            raw = self.disk.read(
                run_start * spb, run_len * spb, label="mount metadata"
            )
            for offset in range(run_len):
                result[run_start + offset] = raw[
                    offset * bs : (offset + 1) * bs
                ]
            index += run_len
        return result

    # ------------------------------------------------------------------
    # Required placement hooks
    # ------------------------------------------------------------------

    @property
    def config(self) -> LfsConfig:
        return self._config

    @property
    def block_size(self) -> int:
        return self._config.block_size

    @property
    def sectors_per_block(self) -> int:
        return self._config.sectors_per_block

    def _read_inode_block(self, addr: int) -> bytes:
        """Read (and cache) a packed inode block, keyed by disk address.

        Inode blocks hold many inodes; without this cache, opening the
        files of one directory would re-read the same block once per
        inode.  The key is the address, which is unique until the
        segment writer reuses it — the writer discards the stale entry
        when that happens.
        """
        key = BlockKey(0, BlockKind.INODE, addr)
        block = self.cache.get(key)
        if block is None:
            raw = bytearray(
                self._read_block_from_disk(addr, label=f"inode block {addr}")
            )
            block = self.cache.insert(key, raw, dirty=False, now=self.clock.now())
        return block.as_bytes(self.block_size)

    def _load_inode_from_disk(self, inum: int) -> Inode:
        entry = self.imap.get(inum)
        if not entry.allocated:
            raise StaleHandleError(f"inode {inum} is not allocated")
        if entry.inode_addr == NIL:
            raise CorruptionError(
                f"inode {inum} allocated but never written and not cached"
            )
        raw = self._read_inode_block(entry.inode_addr)
        inode = Inode.unpack(
            raw[entry.slot * INODE_SIZE : (entry.slot + 1) * INODE_SIZE]
        )
        if inode.inum != inum:
            raise CorruptionError(
                f"inode block at {entry.inode_addr} slot {entry.slot} "
                f"holds inode {inode.inum}, wanted {inum}"
            )
        return inode

    def _alloc_inum(self, ftype: FileType, parent_inum: int) -> int:
        return self.imap.allocate(self.clock.now())

    def _on_inode_freed(self, inode: Inode) -> None:
        old_addr = self.imap.free(inode.inum)
        if old_addr != NIL:
            self.usage.note_dead(
                self.layout.segment_of_block(old_addr), INODE_SIZE
            )

    def _release_block_addr(self, addr: int) -> None:
        self.usage.note_dead(
            self.layout.segment_of_block(addr), self.block_size
        )

    def _note_data_block_dirtied(self, inode: Inode, lbn: int) -> None:
        pass  # addresses are assigned when the segment is written

    def _after_create(self, parent: Inode, inode: Inode, dir_block_index: int) -> None:
        pass  # no synchronous writes: this is the point of LFS

    def _after_remove(self, parent: Inode, inode: Inode, dir_block_index: int) -> None:
        pass

    def _update_atime(self, inode: Inode) -> None:
        # Footnote 2: atime lives in the inode map so reads do not move
        # inodes.
        self.imap.set_atime(inode.inum, self.clock.now())

    def _get_atime(self, inode: Inode) -> float:
        return self.imap.get(inode.inum).atime

    def _on_truncate_to_zero(self, inode: Inode) -> None:
        self.imap.bump_version(inode.inum)

    # ------------------------------------------------------------------
    # Write-back: building the segment plan
    # ------------------------------------------------------------------

    def _writeback(self, reason: WritebackReason) -> None:
        checkpoint_due = (
            self.checkpoints.last_checkpoint_time is None
            or self.clock.now() - self.checkpoints.last_checkpoint_time
            >= self._config.checkpoint_interval
        )
        self.flush_log(checkpoint=checkpoint_due)

    def flush_log(self, checkpoint: bool = False, cleaner: bool = False) -> None:
        """Write all dirty state to the log (§4.3.5's segment write).

        With ``checkpoint`` the flush ends by writing a checkpoint
        region; with ``cleaner`` the write may dip into the reserved
        clean segments (it is the cleaning pass's own write-back).

        A degraded (read-only) file system never flushes: the log must
        not grow onto failing media, so dirty state stays in memory and
        the call is a no-op.
        """
        if self._degraded:
            return
        if self._flushing and not cleaner:
            return
        self._flushing = True
        try:
            if not cleaner:
                self._ensure_clean_segments()
            plan = self._build_plan(checkpoint)
            if plan:
                self.segments.cleaner_mode = cleaner
                try:
                    self.segments.write_plan(plan)
                except NoSpaceError:
                    if cleaner:
                        raise
                    self.segments.cleaner_mode = False
                    self.cleaner.clean()
                    remainder = self._build_plan(checkpoint)
                    if remainder:
                        self.segments.write_plan(remainder)
                finally:
                    self.segments.cleaner_mode = False
                self._dirty_inodes.clear()
            if checkpoint:
                self._write_checkpoint()
        finally:
            self._flushing = False

    def _ensure_clean_segments(self) -> None:
        config = self._config
        needed = (
            self.cache.dirty_bytes // config.segment_size
            + self.segments.reserve_segments
            + 2
        )
        if self.usage.clean_count() < max(config.clean_low_water, needed):
            self.cleaner.clean(max(config.clean_high_water, needed))

    def _build_plan(self, checkpoint: bool) -> List[PlannedBlock]:
        """Assemble the dirty state into log order.

        Order matters: data blocks first, then single-indirect blocks,
        then double-indirect roots, then inode blocks, then inode-map
        blocks, then (at checkpoints) segment-usage blocks — each layer's
        address assignment feeds the next layer's contents.
        """
        plan: List[PlannedBlock] = []
        bs = self.block_size
        seg_of = self.layout.segment_of_block
        usage = self.usage
        cache = self.cache
        clock = self.clock

        def moved(old: int, new: int, nbytes: int = bs) -> None:
            """``nbytes`` at ``old`` die; they live at ``new`` from now on."""
            if old != NIL:
                usage.note_dead(seg_of(old), nbytes)
            usage.note_write(seg_of(new), nbytes, clock.now())

        # A dirty data block past the direct pointers drags its leaf into
        # the plan, and a leaf past the first drags the root.
        data_blocks: Dict[BlockKey, Any] = {}
        leaf_keys: Set[BlockKey] = set()
        root_keys: Set[BlockKey] = set()
        for block in cache.dirty_blocks():
            key = block.key
            if key.kind is BlockKind.DATA:
                data_blocks[key] = block
                if key.index >= N_DIRECT:
                    ordinal = self.block_map.single_indirect_ordinal(key.index)
                    leaf_keys.add(
                        BlockKey(key.inum, BlockKind.INDIRECT, ordinal)
                    )
            elif key.kind is BlockKind.INDIRECT:
                leaf_keys.add(key)
            elif key.kind is BlockKind.DINDIRECT:
                root_keys.add(key)
        for key in leaf_keys:
            if key.index >= 1:
                root_keys.add(BlockKey(key.inum, BlockKind.DINDIRECT, 0))

        def plan_file_block(key: BlockKey, block=None) -> None:
            """A dirty cache block of a file, data or pointer.

            A data block is held by object: its own ``finalize`` marks
            it clean, and a later one in the same partial segment
            (loading a pointer block) may evict it before it is
            serialized.  A pointer block may not exist until a data
            finalizer creates it, so it is looked up when written.
            """
            inode = self._get_inode(key.inum)
            version = self.imap.get(key.inum).version

            def finalize(addr: int) -> None:
                if key.kind is BlockKind.DATA:
                    old = self.block_map.set(inode, key.index, addr)
                else:
                    old = self._set_pointer_block_addr(inode, key, addr)
                moved(old, addr)
                cache.mark_clean(key)
                self._mark_inode_dirty(inode)

            def write_into(out: memoryview) -> None:
                current = block or cache.peek(key)
                if current is None:
                    raise CorruptionError(f"planned pointer block {key} vanished")
                current.write_into(out, bs)

            plan.append(
                PlannedBlock(
                    SummaryEntry(
                        kind=key.kind,
                        inum=key.inum,
                        index=key.index,
                        version=version,
                    ),
                    finalize,
                    write_into,
                )
            )

        for keys in (data_blocks, leaf_keys, root_keys):
            for key in sorted(keys, key=lambda key: (key.inum, key.index)):
                plan_file_block(key, data_blocks.get(key))

        # Inodes, packed several to a block.
        dirty_inums = self.dirty_inode_numbers()
        inodes_per_block = bs // INODE_SIZE
        imap_indexes: Set[int] = set(self.imap.dirty_block_indexes())
        for group_start in range(0, len(dirty_inums), inodes_per_block):
            group = tuple(
                dirty_inums[group_start : group_start + inodes_per_block]
            )

            def finalize(addr: int, group=group) -> None:
                # The address may have belonged to an older inode block
                # whose segment was cleaned; drop any stale cached copy.
                cache.discard(BlockKey(0, BlockKind.INODE, addr))
                for slot, inum in enumerate(group):
                    old = self.imap.set_location(inum, addr, slot)
                    moved(old, addr, INODE_SIZE)
                    if old != NIL:
                        cache.discard(BlockKey(0, BlockKind.INODE, old))

            def write_into(out: memoryview, group=group) -> None:
                offset = 0
                for inum in group:
                    offset += self._inodes[inum].pack_into(out, offset)
                out[offset:] = bytes(len(out) - offset)  # alloc-ok: tail pad

            plan.append(
                PlannedBlock(
                    SummaryEntry(
                        kind=BlockKind.INODE,
                        inum=group[0],
                        index=0,
                        inums=group,
                    ),
                    finalize,
                    write_into,
                )
            )
            imap_indexes.update(self.imap.block_of(inum) for inum in group)

        def plan_table_blocks(kind: BlockKind, table, indexes) -> None:
            """Blocks of the inode map or of the segment usage array."""
            for index in indexes:

                def finalize(addr: int, index=index) -> None:
                    moved(table.block_addrs[index], addr)
                    table.block_addrs[index] = addr
                    table.mark_block_clean(index)

                plan.append(
                    PlannedBlock(
                        SummaryEntry(kind=kind, inum=0, index=index),
                        finalize,
                        partial(table.pack_block_into, index),
                    )
                )

        plan_table_blocks(BlockKind.IMAP, self.imap, sorted(imap_indexes))
        if checkpoint:
            plan_table_blocks(
                BlockKind.SEGUSAGE, usage, usage.all_block_indexes()
            )
        return plan

    def _write_checkpoint(self) -> None:
        """Commit point: everything logged so far becomes recoverable."""
        self.disk.drain()
        self.cpu.checkpoint()
        data = CheckpointData(
            timestamp=self.clock.now(),
            position=replace(self.segments.position),
            imap_addrs=list(self.imap.block_addrs),
            usage_addrs=list(self.usage.block_addrs),
        )
        self.checkpoints.write(data)

    # ------------------------------------------------------------------
    # Public LFS-specific operations
    # ------------------------------------------------------------------

    def fsync(self, handle) -> None:
        """§4.3.5's sync-request trigger: the caller blocks until the
        pending partial segment (which contains this file's dirty
        blocks, among everything else) is on disk."""
        self.fsync_many([handle])

    def fsync_many(self, handles) -> None:
        """Group commit: one partial-segment flush covers every handle.

        Because a segment write already carries *all* dirty state, N
        concurrent ``fsync`` requests need exactly one flush — this is
        the hook the service layer's :class:`~repro.service.committer.
        GroupCommitter` uses to amortize the paper's small-write problem
        across clients.  Each caller still pays its own syscall cost;
        the flush and the drain are paid once.
        """
        if not handles:
            return
        for handle in handles:
            self._handle_inode(handle)  # validates handle and mount state
            self.cpu.syscall()
        # A degraded fs cannot make anything durable; acking an fsync
        # here would promise persistence the volume can no longer give.
        self._check_writable()
        self.monitor.note_explicit(WritebackReason.SYNC)
        self.flush_log()
        self.disk.drain()

    def checkpoint(self) -> None:
        """Explicitly flush and checkpoint now."""
        self._check_mounted()
        self.flush_log(checkpoint=True)

    def clean_now(self, target_clean: Optional[int] = None) -> int:
        """User-initiated cleaning (§4.3.4's user-level process hook)."""
        self._check_mounted()
        if self._degraded:
            return 0
        return self.cleaner.clean(target_clean)

    def unmount(self) -> None:
        if self._unmounted:
            return
        if not self._degraded:
            self.flush_log(checkpoint=True)
            self.disk.drain()
        self._unmounted = True

    # ------------------------------------------------------------------
    # Degraded read-only mode
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether the volume has dropped to read-only after media loss."""
        return self._degraded

    @property
    def media_strikes(self) -> int:
        """Accumulated media-damage strikes (vs. ``quarantine_budget``)."""
        return self._media_strikes

    def note_media_damage(self, strikes: int = 1, reason: str = "") -> None:
        """Record unrecoverable media damage; degrade past the budget.

        Called by the cleaner when it quarantines a victim segment and
        by mount when roll-forward survived unreadable sectors.  Once
        ``media_strikes`` exceeds ``config.quarantine_budget`` the file
        system transitions (exactly once) to degraded read-only mode:
        every mutating VFS entry point raises
        :class:`~repro.errors.ReadOnlyFSError`, flushes become no-ops,
        and reads of surviving data continue to be served.
        """
        if strikes <= 0:
            return
        self._media_strikes += strikes
        if (
            not self._degraded
            and self._media_strikes > self._config.quarantine_budget
        ):
            self._enter_degraded(reason)

    def _enter_degraded(self, reason: str) -> None:
        self._degraded = True
        self._g_degraded.set(1)
        with self.telemetry.span(
            "fs.degrade", strikes=self._media_strikes, reason=reason
        ):
            pass  # event span: marks the transition instant in traces

    def _check_writable(self) -> None:
        if self._degraded:
            raise ReadOnlyFSError(
                f"volume is degraded read-only: {self._media_strikes} "
                f"media-damage strikes exceed quarantine budget "
                f"{self._config.quarantine_budget}"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def statvfs(self):
        """Capacity report.  "Used" is live log data; clean segments and
        the dead fraction of dirty segments are reclaimable, hence free."""
        from repro.vfs.interface import VfsInfo

        total = self.layout.data_capacity_bytes
        used = self.usage.total_live_bytes() + self.cache.dirty_bytes
        used = min(used, total)
        return VfsInfo(
            total_bytes=total,
            used_bytes=used,
            free_bytes=total - used,
            total_files=self._config.max_inodes - 1,
            used_files=self.imap.allocated_count(),
        )

    def write_cost(self) -> float:
        """Total log bytes written per byte of user data written."""
        user = max(1, self._stats.bytes_written)
        return self.segments.log_bytes_written / user

    def wamp_report(self) -> Dict[str, Any]:
        """The write-amplification ledger (the ``wamp.*`` family).

        Reads the always-on counters, so it works with telemetry
        disabled: user bytes in, log bytes shipped, the cleaner's
        copy-out traffic broken out, and the amplification ratio
        (log bytes per user byte — the paper's write cost, §5.1).
        """
        user = self._stats.bytes_written
        log = self.segments.log_bytes_written
        cleaner = self.segments.cleaner_bytes_written
        return {
            "user_bytes": user,
            "log_bytes": log,
            "cleaner_bytes": cleaner,
            "cleaner_fraction": (cleaner / log) if log else 0.0,
            "write_amplification": (log / user) if user else 0.0,
        }

    def live_data_bytes(self) -> int:
        return self.usage.total_live_bytes()

    def segment_utilization_histogram(self, buckets: int = 10) -> List[int]:
        """Count of dirty segments per utilization decile (for analysis)."""
        histogram = [0] * buckets
        for seg in self.usage.dirty_segments():
            u = self.usage.utilization(seg)
            histogram[min(buckets - 1, int(u * buckets))] += 1
        return histogram


def make_lfs(
    total_bytes: int = 300 * MIB,
    config: Optional[LfsConfig] = None,
    speed_factor: float = 1.0,
    geometry=None,
    trace=None,
    telemetry: Optional[Telemetry] = None,
) -> LogStructuredFS:
    """Convenience constructor: simulated WREN IV disk + fresh LFS.

    Returns a mounted file system; its simulation handles are reachable
    as ``fs.disk``, ``fs.clock`` and ``fs.cpu``.
    """
    from repro.rig import new_rig

    return new_rig(
        "lfs",
        total_bytes,
        speed_factor,
        lfs_config=config,
        trace=trace,
        geometry=geometry,
        telemetry=telemetry,
    ).fs
