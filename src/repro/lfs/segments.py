"""Segment allocation and the segment writer (§4.1, §4.3).

The log is a chain of fixed-size segments.  The writer packs planned
runs of blocks into *partial segments* — a summary followed by content
blocks — and pushes each partial segment to disk as **one large
sequential, asynchronous transfer**, which is the entire performance
story of the paper's Figure 2.  Partial segments arise when a flush does
not fill the current segment (§4.3.5 notes this is the system running
below capacity, not a problem).

Segment selection pre-picks the *next* segment when the current one is
opened so that every summary can record where the log continues; that
forward link is what crash recovery follows when rolling forward.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Callable, List, Optional, Tuple

from repro.disk.sim_disk import SimDisk
from repro.errors import CleanerError, NoSpaceError
from repro.lfs.config import LfsLayout
from repro.lfs.segment_usage import SegmentUsage
from repro.lfs.summary import (
    ENTRY_BASE_SIZE,
    HEADER_SIZE,
    SegmentSummary,
    SummaryEntry,
)
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.sim.clock import SimClock

MAX_POOLED_BUFFERS = 4
"""Free buffers a :class:`SegmentBufferPool` keeps; it drops the rest."""


@dataclass
class BufferPoolStats:
    """Buffers a :class:`SegmentBufferPool` allocated and handed back out."""

    allocations: int = 0
    reuses: int = 0


class SegmentBufferPool:
    """Reusable segment-sized ``bytearray`` buffers.

    The segment writer assembles every partial segment in one of these
    (and the cleaner stages the extents it reads from a victim in them,
    each at its offset in the segment), so the steady state allocates no
    transfer-sized buffers at all — the same one or two arrays cycle
    forever.  Buffers come back dirty; callers always overwrite the
    blocks they use, so no zeroing happens on release.
    """

    def __init__(
        self, buffer_bytes: int, telemetry: Optional[Telemetry] = None
    ) -> None:
        self.buffer_bytes = buffer_bytes
        self._free: List[bytearray] = []
        self.stats = stats = BufferPoolStats()
        obs = telemetry or NULL_TELEMETRY
        obs.counter("alloc.segment_pool_reuse", lambda: stats.reuses)

    def acquire(self) -> bytearray:
        """A segment-sized buffer with arbitrary (stale) contents."""
        if self._free:
            self.stats.reuses += 1
            return self._free.pop()
        self.stats.allocations += 1
        return bytearray(self.buffer_bytes)

    def release(self, buffer: bytearray) -> None:
        """Return a buffer to the pool (excess buffers are dropped)."""
        if (
            len(buffer) == self.buffer_bytes
            and len(self._free) < MAX_POOLED_BUFFERS
        ):
            self._free.append(buffer)

    def clear(self) -> None:
        """Drop every free buffer (the owning file system crashed)."""
        self._free.clear()


@dataclass
class PlannedRun:
    """Blocks headed for consecutive log addresses.

    ``entries`` describes the blocks, one summary entry each.  The writer
    may split a run at a partial-segment boundary, so both callbacks take
    the piece ``start, count`` (entries ``start`` to ``start + count - 1``).
    ``finalize(start, count, first_addr)`` is invoked with the piece's
    first disk address before any block of the same partial segment is
    serialized; it updates the referencing structures (pointer slots,
    inode map, ...) and the segment usage accounting.
    ``write_into(out, start, count)`` is called afterwards with a
    ``count``-block slice of the segment writer's pooled buffer, so
    blocks whose serialized form depends on later-placed blocks'
    addresses (inodes, inode-map blocks) are always written with the
    final values.  A metadata block is a run of one.
    """

    entries: List[SummaryEntry]
    finalize: Callable[[int, int, int], None]
    write_into: Callable[[memoryview, int, int], None]


Piece = Tuple[PlannedRun, int, int]
"""``(run, start, count)``: the part of a run one partial segment holds."""


@dataclass
class LogPosition:
    """Where the log tail is (persisted in the checkpoint region)."""

    active_segment: int
    active_offset: int  # blocks already used within the active segment
    next_segment: int
    sequence: int  # sequence number of the next partial segment


@dataclass
class SegmentStats:
    """What a :class:`SegmentManager` wrote to the log."""

    partial_segments_written: int = 0
    log_bytes_written: int = 0
    cleaner_bytes_written: int = 0
    """The share of ``log_bytes_written`` the cleaner's copies took."""


class SegmentManager:
    """Owns the log tail: segment selection and partial-segment writes."""

    def __init__(
        self,
        layout: LfsLayout,
        usage: SegmentUsage,
        disk: SimDisk,
        clock: SimClock,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.layout = layout
        self.usage = usage
        self.disk = disk
        self.clock = clock
        self.reserve_segments = layout.reserve_segments
        self.cleaner_mode = False
        self._pos: Optional[LogPosition] = None
        self.stats = stats = SegmentStats()
        self.pool = SegmentBufferPool(
            layout.config.segment_size, telemetry=telemetry
        )
        # Write-amplification ledger: every byte shipped to the log,
        # with the cleaner's copy-out traffic broken out separately.
        obs = telemetry or NULL_TELEMETRY
        obs.counter("wamp.log_bytes", lambda: stats.log_bytes_written)
        obs.counter("wamp.cleaner_bytes", lambda: stats.cleaner_bytes_written)

    # ------------------------------------------------------------------
    # Log-tail state
    # ------------------------------------------------------------------

    @property
    def position(self) -> LogPosition:
        if self._pos is None:
            raise CleanerError("segment manager has no open log")
        return self._pos

    def start_fresh(self) -> None:
        """Open a brand-new log (mkfs): claim the first two clean segments."""
        active = self._pop_clean()
        nxt = self._pop_clean()
        self._pos = LogPosition(
            active_segment=active, active_offset=0, next_segment=nxt, sequence=1
        )

    def restore(self, position: LogPosition) -> None:
        """Adopt (a copy of) a log position read from a checkpoint."""
        self._pos = replace(position)

    def _pop_clean(self) -> int:
        # O(1) clean-count check plus an amortized-O(1) min-heap pop;
        # the old full clean_segments() scan made every segment advance
        # cost O(num_segments).
        nclean = self.usage.clean_count()
        if not self.cleaner_mode and nclean <= self.reserve_segments:
            raise NoSpaceError(
                f"only {nclean} clean segments left "
                f"(reserve is {self.reserve_segments}); cleaning required"
            )
        seg = self.usage.min_clean()
        if seg is None:
            raise NoSpaceError("no clean segments at all: file system full")
        self.usage.mark_active(seg)
        return seg

    def _advance_segment(self) -> None:
        pos = self.position
        # Claim the successor before touching the position: _pop_clean
        # raises NoSpaceError, and flush_log cleans and retries from
        # whatever position that leaves behind.
        successor = self._pop_clean()
        self.usage.mark_dirty(pos.active_segment)
        pos.active_segment = pos.next_segment
        pos.active_offset = 0
        pos.next_segment = successor

    def remaining_blocks(self) -> int:
        return self.layout.config.blocks_per_segment - self.position.active_offset

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def write_plan(self, plan: List[PlannedRun]) -> int:
        """Write every planned run to the log; returns bytes written.

        The plan is split into partial segments as dictated by the space
        remaining in the active segment, a run at a partial-segment
        boundary included.  Each partial segment goes to the disk as a
        single asynchronous request.
        """
        total_bytes = 0
        index, start = 0, 0
        while index < len(plan):
            if self.remaining_blocks() < 2:
                self._advance_segment()
            pieces, nsummary = self._take_chunk(plan, index, start)
            if not pieces:
                # Not even one block fits next to its summary here.
                self._advance_segment()
                continue
            total_bytes += self._write_partial(pieces, nsummary)
            run, piece_start, count = pieces[-1]
            start = piece_start + count
            index += len(pieces) - 1
            if start == len(run.entries):
                index, start = index + 1, 0
        return total_bytes

    def _take_chunk(
        self, plan: List[PlannedRun], index: int, start: int
    ) -> "tuple[List[Piece], int]":
        """Largest plan prefix from entry ``start`` of run ``index`` that
        fits the active segment, as pieces of runs.

        An entry takes ``ENTRY_BASE_SIZE`` bytes plus four per inode
        number, and the summary the blocks that header and entries need
        (``SegmentSummary.blocks_needed``), reckoned here inline.
        """
        bs = self.layout.config.block_size
        # Summary blocks for ``size`` bytes of entries: (size + head) // bs.
        head = HEADER_SIZE + bs - 1
        remaining = self.remaining_blocks()
        pieces: List[Piece] = []
        nblocks = 0
        entries_size = 0
        nsummary = 1
        for run in islice(plan, index, None):
            count = 0
            for entry in islice(run.entries, start, None):
                size = entries_size + ENTRY_BASE_SIZE
                if entry.inums:
                    size += 4 * len(entry.inums)
                if (size + head) // bs + nblocks + 1 > remaining:
                    break
                count += 1
                nblocks += 1
                entries_size = size
            if count:
                pieces.append((run, start, count))
                nsummary = (entries_size + head) // bs
            if start + count < len(run.entries):
                break
            start = 0
        return pieces, nsummary

    def _write_partial(self, pieces: List[Piece], nsummary: int) -> int:
        bs = self.layout.config.block_size
        pos = self.position
        now = self.clock.now()
        first_block = (
            self.layout.segment_first_block(pos.active_segment)
            + pos.active_offset
        )
        # Phase 1: hand out addresses (updates pointers, imap, usage).
        addr = first_block + nsummary
        entries: List[SummaryEntry] = []
        for run, start, count in pieces:
            run.finalize(start, count, addr)
            entries += run.entries[start : start + count]
            addr += count
        # Phase 2: serialize with final contents.
        summary = SegmentSummary(
            seq=pos.sequence,
            timestamp=now,
            next_segment_block=self.layout.segment_first_block(
                pos.next_segment
            ),
            entries=entries,
        )
        # Assemble the whole partial segment in one pooled buffer: the
        # summary plus every content block lands via slice assignment /
        # pack_into, then a single asynchronous device write ships it.
        # The device copies the buffer into its image synchronously, so
        # the buffer goes straight back to the pool.
        total = (nsummary + len(entries)) * bs
        buffer = self.pool.acquire()
        view = memoryview(buffer)
        try:
            packed = summary.pack_into(buffer, 0, bs)
            if packed != nsummary * bs:
                raise AssertionError("partial segment size mismatch")
            offset = nsummary * bs
            for run, start, count in pieces:
                end = offset + count * bs
                run.write_into(view[offset:end], start, count)
                offset = end
            label = (
                f"segment:{pos.active_segment}"
                f"+{pos.active_offset} seq={pos.sequence}"
                + (" (cleaner)" if self.cleaner_mode else "")
            )
            self.disk.write(
                first_block * self.layout.config.sectors_per_block,
                view[:total],
                sync=False,
                label=label,
            )
        finally:
            view.release()
            self.pool.release(buffer)
        pos.active_offset += nsummary + len(entries)
        pos.sequence += 1
        stats = self.stats
        stats.partial_segments_written += 1
        stats.log_bytes_written += total
        if self.cleaner_mode:
            stats.cleaner_bytes_written += total
        if self.remaining_blocks() < 2:
            self._advance_segment()
        return total
