"""Segment allocation and the segment writer (§4.1, §4.3).

The log is a chain of fixed-size segments.  The writer packs planned
blocks into *partial segments* — a summary followed by content blocks —
and pushes each partial segment to disk as **one large sequential,
asynchronous transfer**, which is the entire performance story of the
paper's Figure 2.  Partial segments arise when a flush does not fill the
current segment (§4.3.5 notes this is the system running below capacity,
not a problem).

Segment selection pre-picks the *next* segment when the current one is
opened so that every summary can record where the log continues; that
forward link is what crash recovery follows when rolling forward.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional

from repro.disk.sim_disk import SimDisk
from repro.errors import CleanerError, NoSpaceError
from repro.lfs.config import LfsLayout
from repro.lfs.segment_usage import SegmentUsage
from repro.lfs.summary import SegmentSummary, SummaryEntry
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.sim.clock import SimClock


class SegmentBufferPool:
    """Reusable segment-sized ``bytearray`` buffers.

    The segment writer assembles every partial segment in one of these
    (and the cleaner stages whole-segment reads in them), so the steady
    state allocates no transfer-sized buffers at all — the same one or
    two arrays cycle forever.  Buffers come back dirty; callers always
    overwrite the prefix they use, so no zeroing happens on release.
    """

    def __init__(
        self,
        buffer_bytes: int,
        max_buffers: int = 4,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.buffer_bytes = buffer_bytes
        self.max_buffers = max_buffers
        self._free: List[bytearray] = []
        self.allocations = 0
        self.reuses = 0
        obs = telemetry or NULL_TELEMETRY
        self._obs_enabled = obs.enabled
        self._m_reuse = obs.counter("alloc.segment_pool_reuse")

    def acquire(self) -> bytearray:
        """A segment-sized buffer with arbitrary (stale) contents."""
        if self._free:
            self.reuses += 1
            if self._obs_enabled:
                self._m_reuse.inc()
            return self._free.pop()
        self.allocations += 1
        return bytearray(self.buffer_bytes)

    def release(self, buffer: bytearray) -> None:
        """Return a buffer to the pool (excess buffers are dropped)."""
        if (
            len(buffer) == self.buffer_bytes
            and len(self._free) < self.max_buffers
        ):
            self._free.append(buffer)


@dataclass
class PlannedBlock:
    """One block headed for the log.

    ``finalize`` is invoked with the assigned disk address before any
    block of the same partial segment is serialized; it updates the
    referencing structure (pointer slot, inode map, ...) and the segment
    usage accounting.  ``write_into`` is called afterwards with a
    block-sized slice of the segment writer's pooled buffer, so blocks
    whose serialized form depends on later-placed blocks' addresses
    (inodes, inode-map blocks) are always written with the final values.
    """

    entry: SummaryEntry
    finalize: Callable[[int], None]
    write_into: Callable[[memoryview], None]


@dataclass
class LogPosition:
    """Where the log tail is (persisted in the checkpoint region)."""

    active_segment: int
    active_offset: int  # blocks already used within the active segment
    next_segment: int
    sequence: int  # sequence number of the next partial segment


class SegmentManager:
    """Owns the log tail: segment selection and partial-segment writes."""

    def __init__(
        self,
        layout: LfsLayout,
        usage: SegmentUsage,
        disk: SimDisk,
        clock: SimClock,
        reserve_segments: int,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.layout = layout
        self.usage = usage
        self.disk = disk
        self.clock = clock
        self.reserve_segments = reserve_segments
        self.cleaner_mode = False
        self._pos: Optional[LogPosition] = None
        self.segments_written = 0
        self.partial_segments_written = 0
        self.log_bytes_written = 0
        self.cleaner_bytes_written = 0
        self.pool = SegmentBufferPool(
            layout.config.segment_size, telemetry=telemetry
        )
        # Write-amplification ledger: every byte shipped to the log,
        # with the cleaner's copy-out traffic broken out separately.
        obs = telemetry or NULL_TELEMETRY
        self._m_wamp_log = obs.counter("wamp.log_bytes")
        self._m_wamp_cleaner = obs.counter("wamp.cleaner_bytes")

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
        self.segments_written += 1

    def remaining_blocks(self) -> int:
        return self.layout.config.blocks_per_segment - self.position.active_offset

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def write_plan(self, plan: List[PlannedBlock]) -> int:
        """Write every planned block to the log; returns bytes written.

        The plan is split into partial segments as dictated by the space
        remaining in the active segment.  Each partial segment goes to
        the disk as a single asynchronous request.
        """
        total_bytes = 0
        index = 0
        while index < len(plan):
            if self.remaining_blocks() < 2:
                self._advance_segment()
            chunk, nsummary = self._take_chunk(plan, index)
            if not chunk:
                # Not even one block fits next to its summary here.
                self._advance_segment()
                continue
            total_bytes += self._write_partial(chunk, nsummary)
            index += len(chunk)
        return total_bytes

    def _take_chunk(
        self, plan: List[PlannedBlock], start: int
    ) -> "tuple[List[PlannedBlock], int]":
        """Largest plan prefix from ``start`` that fits the active segment."""
        bs = self.layout.config.block_size
        remaining = self.remaining_blocks()
        chunk: List[PlannedBlock] = []
        entries_size = 0
        nsummary = 1
        for planned in plan[start:]:
            new_size = entries_size + planned.entry.packed_size()
            new_nsummary = SegmentSummary.blocks_needed(new_size, bs)
            if new_nsummary + len(chunk) + 1 > remaining:
                break
            chunk.append(planned)
            entries_size = new_size
            nsummary = new_nsummary
        return chunk, nsummary

    def _write_partial(self, chunk: List[PlannedBlock], nsummary: int) -> int:
        bs = self.layout.config.block_size
        pos = self.position
        now = self.clock.now()
        first_block = (
            self.layout.segment_first_block(pos.active_segment)
            + pos.active_offset
        )
        content_start = first_block + nsummary
        # Phase 1: hand out addresses (updates pointers, imap, usage).
        for offset, planned in enumerate(chunk):
            planned.finalize(content_start + offset)
        # Phase 2: serialize with final contents.
        summary = SegmentSummary(
            seq=pos.sequence,
            timestamp=now,
            next_segment_block=self.layout.segment_first_block(
                pos.next_segment
            ),
            entries=[planned.entry for planned in chunk],
        )
        # Assemble the whole partial segment in one pooled buffer: the
        # summary plus every content block lands via slice assignment /
        # pack_into, then a single asynchronous device write ships it.
        # The device copies the buffer into its image synchronously, so
        # the buffer goes straight back to the pool.
        total = (nsummary + len(chunk)) * bs
        buffer = self.pool.acquire()
        view = memoryview(buffer)
        try:
            packed = summary.pack_into(buffer, 0, bs)
            if packed != nsummary * bs:
                raise AssertionError("partial segment size mismatch")
            offset = nsummary * bs
            for planned in chunk:
                planned.write_into(view[offset : offset + bs])
                offset += bs
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
        pos.active_offset += nsummary + len(chunk)
        pos.sequence += 1
        self.partial_segments_written += 1
        self.log_bytes_written += total
        self._m_wamp_log.inc(total)
        if self.cleaner_mode:
            self.cleaner_bytes_written += total
            self._m_wamp_cleaner.inc(total)
        if self.remaining_blocks() < 2:
            self._advance_segment()
        return total
