"""The segment usage array (§4.3.4).

One small record per segment: an *estimate* of its live bytes, the time
of its most recent modification (the age input to the cost-benefit
cleaning policy), and its state.  The array is updated when files are
overwritten or deleted and when segments are written or cleaned.  As the
paper notes, it is only a hint used to choose cleaning victims, so crash
recovery merely needs something plausible, not something exact.

The array is persisted like the inode map: packed into blocks written to
the log, with the checkpoint region recording block addresses.

Hot-path discipline: the log tail and the cleaner consult this array on
every segment advance and every cleaning-loop iteration, so the queries
they use must not scan all ``num_segments`` entries.  The array keeps
three derived indexes, maintained by every mutation:

* per-state ``set``s (clean / dirty / active), making ``clean_count()``
  and state membership O(1);
* a lazy min-heap over the clean set, making ``min_clean()`` — the
  "lowest-numbered clean segment" query behind the segment writer's
  ``_pop_clean`` — amortized O(log n) instead of an O(n) scan;
* a running ``total_live_bytes`` counter.

``heap_pushes`` / ``heap_pops`` / ``min_clean_calls`` count the index
maintenance work so tests can assert the amortized-O(1)
invariant (every heap entry is pushed once and popped at most once).
"""

from __future__ import annotations

import enum
import heapq
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.common.inode import NIL
from repro.errors import CorruptionError

USAGE_ENTRY_SIZE = 24

# Fixed 24-byte on-disk layout: u64 live_bytes, f64 last_write, u8 state,
# 7 pad bytes.  Precompiled Structs keep the cleaner/checkpoint paths off
# the per-field Packer/Unpacker machinery.
_INFO_PACK = struct.Struct("<QdB7x")
_INFO_UNPACK = struct.Struct("<QdB")


class SegmentState(enum.IntEnum):
    CLEAN = 0
    DIRTY = 1
    ACTIVE = 2  # current or pre-selected write target
    QUARANTINED = 3  # unreadable media: never select, never reuse


@dataclass
class SegmentInfo:
    live_bytes: int = 0
    last_write: float = 0.0
    state: SegmentState = SegmentState.CLEAN

    def pack(self) -> bytes:
        return _INFO_PACK.pack(self.live_bytes, self.last_write, int(self.state))

    @classmethod
    def unpack(cls, data: bytes) -> "SegmentInfo":
        try:
            live, last_write, raw_state = _INFO_UNPACK.unpack_from(data)
        except struct.error as exc:
            raise CorruptionError(f"truncated segment info: {exc}") from exc
        try:
            state = SegmentState(raw_state)
        except ValueError as exc:
            raise CorruptionError(f"bad segment state {raw_state}") from exc
        return cls(live_bytes=live, last_write=last_write, state=state)


class SegmentUsage:
    """In-memory usage array with per-block dirty tracking."""

    def __init__(
        self, num_segments: int, segment_size: int, block_size: int
    ) -> None:
        self.num_segments = num_segments
        self.segment_size = segment_size
        self.block_size = block_size
        self.entries_per_block = block_size // USAGE_ENTRY_SIZE
        self.num_blocks = (
            num_segments + self.entries_per_block - 1
        ) // self.entries_per_block
        self._info: List[SegmentInfo] = [
            SegmentInfo() for _ in range(num_segments)
        ]
        self._dirty_blocks: Set[int] = set()
        self.block_addrs: List[int] = [NIL] * self.num_blocks
        self.underflow_clamps = 0
        """Times a dead-byte note would have driven live bytes negative.

        The estimate is allowed to be approximate but a large count here
        means double-accounting somewhere; tests assert it stays zero."""
        # Derived indexes (see module docstring).  A fresh array is all
        # clean, and range() is already a valid min-heap.
        self._state_sets: Dict[SegmentState, Set[int]] = {
            state: set() for state in SegmentState
        }
        self._state_sets[SegmentState.CLEAN] = set(range(num_segments))
        self._clean_heap: List[int] = list(range(num_segments))
        self._total_live = 0
        self.heap_pushes = num_segments
        self.heap_pops = 0
        self.min_clean_calls = 0

    def _check(self, seg: int) -> None:
        if not 0 <= seg < self.num_segments:
            raise CorruptionError(f"segment {seg} out of range")

    def info(self, seg: int) -> SegmentInfo:
        self._check(seg)
        return self._info[seg]

    def _touch(self, seg: int) -> None:
        self._dirty_blocks.add(seg // self.entries_per_block)

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------

    def _set_state(self, seg: int, info: SegmentInfo, state: SegmentState) -> None:
        if info.state is state:
            return
        self._state_sets[info.state].discard(seg)
        self._state_sets[state].add(seg)
        info.state = state
        if state is SegmentState.CLEAN:
            heapq.heappush(self._clean_heap, seg)
            self.heap_pushes += 1

    def _set_live(self, info: SegmentInfo, value: int) -> None:
        self._total_live += value - info.live_bytes
        info.live_bytes = value

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def note_write(self, seg: int, nbytes: int, now: float) -> None:
        """Live bytes were appended to ``seg``."""
        info = self.info(seg)
        self._set_live(info, info.live_bytes + nbytes)
        if info.live_bytes > self.segment_size:
            raise CorruptionError(
                f"segment {seg} accounts {info.live_bytes} live bytes, "
                f"capacity is {self.segment_size}"
            )
        info.last_write = now
        self._touch(seg)

    def note_write_hint(self, seg: int, nbytes: int, now: float) -> None:
        """Clamped variant of :meth:`note_write` for crash recovery.

        Roll-forward may re-account bytes a replayed usage block already
        includes; the usage array is a hint (§4.3.4), so clamping beats
        failing.
        """
        info = self.info(seg)
        self._set_live(info, min(self.segment_size, info.live_bytes + nbytes))
        info.last_write = now
        self._touch(seg)

    def clamp_live(self, seg: int, max_bytes: int) -> None:
        """Clamp a segment's live account to ``max_bytes`` (recovery).

        Roll-forward can double-count the log tail: the replayed usage
        blocks already include the partials' bytes, and the per-partial
        re-estimate adds them again.  A segment's true live bytes can
        never exceed its physically-written prefix, so clamping there
        restores the ``live <= capacity`` invariant the writer's strict
        :meth:`note_write` depends on when it appends into the
        recovered tail segment.
        """
        info = self.info(seg)
        if info.live_bytes > max_bytes:
            self._set_live(info, max_bytes)
            self._touch(seg)

    def force_state(self, seg: int, state: SegmentState) -> None:
        """Set a segment's state without transition checks (recovery)."""
        info = self.info(seg)
        self._set_state(seg, info, state)
        self._touch(seg)

    def note_dead(self, seg: int, nbytes: int) -> None:
        """Previously live bytes in ``seg`` were overwritten or deleted."""
        info = self.info(seg)
        if nbytes > info.live_bytes:
            self.underflow_clamps += 1
            self._set_live(info, 0)
        else:
            self._set_live(info, info.live_bytes - nbytes)
        self._touch(seg)

    def utilization(self, seg: int) -> float:
        return self.info(seg).live_bytes / self.segment_size

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------

    def mark_active(self, seg: int) -> None:
        info = self.info(seg)
        if info.state is not SegmentState.CLEAN:
            raise CorruptionError(
                f"segment {seg} made active while {info.state.name}"
            )
        self._set_state(seg, info, SegmentState.ACTIVE)
        self._touch(seg)

    def mark_dirty(self, seg: int) -> None:
        info = self.info(seg)
        self._set_state(seg, info, SegmentState.DIRTY)
        self._touch(seg)

    def mark_clean(self, seg: int, now: float) -> None:
        info = self.info(seg)
        self._set_state(seg, info, SegmentState.CLEAN)
        self._set_live(info, 0)
        info.last_write = now
        self._touch(seg)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def clean_segments(self) -> List[int]:
        return sorted(self._state_sets[SegmentState.CLEAN])

    def clean_count(self) -> int:
        return len(self._state_sets[SegmentState.CLEAN])

    def dirty_segments(self) -> List[int]:
        return sorted(self._state_sets[SegmentState.DIRTY])

    def quarantine(self, seg: int) -> None:
        """Remove ``seg`` from circulation: its media is unreadable.

        A quarantined segment is neither a cleaning victim nor a write
        target; whatever live bytes it still accounts are stranded until
        a future write to its sectors remaps them and an operator (or a
        rebuilding cleaner pass) returns it to service via
        :meth:`force_state`.
        """
        self.force_state(seg, SegmentState.QUARANTINED)

    def quarantined_segments(self) -> List[int]:
        return sorted(self._state_sets[SegmentState.QUARANTINED])

    def total_live_bytes(self) -> int:
        return self._total_live

    def min_clean(self) -> Optional[int]:
        """Lowest-numbered clean segment, or ``None`` — amortized O(1).

        Stale heap entries (segments that left the clean state since they
        were pushed, or duplicates from repeated clean episodes) are
        discarded lazily; each entry is pushed once and popped at most
        once, so the work is bounded by the number of state transitions.
        """
        self.min_clean_calls += 1
        heap = self._clean_heap
        clean = self._state_sets[SegmentState.CLEAN]
        while heap:
            seg = heap[0]
            if seg in clean:
                return seg
            heapq.heappop(heap)
            self.heap_pops += 1
        return None

    def verify_indexes(self) -> None:
        """Assert the derived indexes agree with a full scan (tests)."""
        by_state: Dict[SegmentState, Set[int]] = {
            state: set() for state in SegmentState
        }
        total = 0
        for seg, info in enumerate(self._info):
            by_state[info.state].add(seg)
            total += info.live_bytes
        if by_state != self._state_sets:
            raise CorruptionError("segment state indexes diverged from scan")
        if total != self._total_live:
            raise CorruptionError(
                f"live-byte counter {self._total_live} != scanned {total}"
            )
        clean = self._state_sets[SegmentState.CLEAN]
        if clean and not any(seg in clean for seg in self._clean_heap):
            raise CorruptionError("clean heap lost every clean segment")

    # ------------------------------------------------------------------
    # Block (de)serialization
    # ------------------------------------------------------------------

    def dirty_block_indexes(self) -> List[int]:
        return sorted(self._dirty_blocks)

    def all_block_indexes(self) -> List[int]:
        return list(range(self.num_blocks))

    def mark_block_clean(self, index: int) -> None:
        self._dirty_blocks.discard(index)

    def pack_block(self, index: int) -> bytes:
        out = bytearray(self.block_size)
        self.pack_block_into(index, out)
        return bytes(out)

    def pack_block_into(self, index: int, out) -> None:
        """Serialize block ``index`` into ``out`` (block_size bytes).

        Zero-copy twin of :meth:`pack_block` for the segment writer's
        pooled buffer; the tail is explicitly zeroed because the buffer
        is reused.
        """
        if not 0 <= index < self.num_blocks:
            raise CorruptionError(f"usage block index {index} out of range")
        first = index * self.entries_per_block
        last = min(first + self.entries_per_block, self.num_segments)
        pack_into = _INFO_PACK.pack_into
        info = self._info
        for position, seg in enumerate(range(first, last)):
            entry = info[seg]
            pack_into(
                out,
                position * USAGE_ENTRY_SIZE,
                entry.live_bytes,
                entry.last_write,
                int(entry.state),
            )
        used = (last - first) * USAGE_ENTRY_SIZE
        if used < len(out):
            out[used:] = bytes(len(out) - used)  # alloc-ok: tail pad

    def load_block(self, index: int, data: bytes) -> None:
        if not 0 <= index < self.num_blocks:
            raise CorruptionError(f"usage block index {index} out of range")
        first = index * self.entries_per_block
        last = min(first + self.entries_per_block, self.num_segments)
        count = last - first
        if len(data) < count * USAGE_ENTRY_SIZE:
            raise CorruptionError(
                f"usage block {index} holds {len(data)} bytes, "
                f"need {count * USAGE_ENTRY_SIZE}"
            )
        view = memoryview(data)[: count * USAGE_ENTRY_SIZE]
        for seg, (live, last_write, raw_state) in zip(
            range(first, last), _INFO_PACK.iter_unpack(view)
        ):
            try:
                state = SegmentState(raw_state)
            except ValueError as exc:
                raise CorruptionError(f"bad segment state {raw_state}") from exc
            info = self._info[seg]
            self._set_live(info, live)
            self._set_state(seg, info, state)
            info.last_write = last_write
        self._dirty_blocks.discard(index)

    def load_all(
        self, addrs: List[int], read_block: Callable[[int], bytes]
    ) -> None:
        if len(addrs) != self.num_blocks:
            raise CorruptionError(
                f"checkpoint lists {len(addrs)} usage blocks, layout has "
                f"{self.num_blocks}"
            )
        self.block_addrs = list(addrs)
        for index, addr in enumerate(addrs):
            if addr != NIL:
                self.load_block(index, read_block(addr))
        self._dirty_blocks.clear()
