"""The segment cleaner (§4.3.2–§4.3.4).

Cleaning turns fragmented segments back into clean ones: decide which
blocks of the victims are still live, read those into the file cache
dirty, and let the ordinary segment writer copy them to the log tail
("LFS implements cleaning by reading the live blocks of a segment into
the file cache and then using the cache write-back code to combine and
copy the blocks into a new segment").  The cleaner reads a victim's
summaries and then only the blocks it copies, in extents merged across
any gap the disk reads through faster than it could reposition; dead
blocks are never read.

Liveness (§4.3.3) is decided exactly as the paper describes:

1. the summary entry's version number is compared with the file's
   current version in the inode map — a mismatch means the file was
   deleted or truncated, so the block is dead;
2. otherwise the inode (and any indirect blocks) are consulted: the
   block is live iff the file's pointer for that logical block still
   names this disk address.

Victim selection (§4.3.4) defaults to cost-benefit, the refinement
Rosenblum's follow-up work develops, priced by what this cleaner moves:
a victim of utilization u costs its summary block (``s``, one block of
the segment) plus u read and u written, so it scores
``(1 - u) * age / (2u + s)``, and a victim with no live bytes, freed
without a read, costs nothing and goes first.  The paper's policy
(greedy: most free space first) and random stay for the ablation
benchmarks.

The cleaner reads nothing that is already in memory: a live data block
with a cached copy is taken from the cache, and an inode block whose
live inodes are all in memory is not read.  The blocks it does read
into the cache are dropped again once the pass has written them, so
cold relocated data never displaces the clients' working set.

Every cleaning pass ends with a checkpoint: cleaned segments are only
reusable once the relocated metadata that references them is itself
durable.

A victim whose summary or live block cannot be read
(:class:`~repro.errors.MediaError`, see :mod:`repro.faults`) is
*quarantined* rather than aborting the pass: it leaves the dirty set
permanently, so the cleaner never re-selects it and the writer never
reuses it, and cleaning continues with the remaining victims.  An
unreadable dead block is never read: its segment is cleaned, and the
log's next write over it heals the sector.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.common.inode import (
    BlockKey,
    BlockKind,
    Inode,
    INODE_SIZE,
    block_key,
)
from repro.errors import CorruptionError, MediaError
from repro.lfs.config import (
    CLEAN_HIGH_WATER,
    MAX_LIVE_FRACTION_TO_CLEAN,
    CleanerPolicy,
)
from repro.lfs.segment_usage import SegmentState
from repro.lfs.summary import SegmentSummary, SummaryEntry
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.sim.crashpoints import crashpoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lfs.filesystem import LogStructuredFS

_DATA = BlockKind.DATA
_INODE = BlockKind.INODE


def _greedy(cleaner: "SegmentCleaner", segs: List[int], count: int) -> List[int]:
    info = cleaner.fs.usage.info
    return heapq.nsmallest(count, segs, key=lambda seg: (info(seg).live_bytes, seg))


def _cost_benefit(cleaner: "SegmentCleaner", segs: List[int], count: int) -> List[int]:
    fs = cleaner.fs
    usage, now = fs.usage, fs.clock.now()
    # What cleaning a victim moves, in segments: its summary (one block)
    # read, then its live fraction u read and u written.
    summary = 1.0 / fs.config.blocks_per_segment

    def key(seg: int):
        info = usage.info(seg)
        if not info.live_bytes:
            # Freed without a read: it costs nothing, so it goes first,
            # in segment order as greedy takes it.
            return (-math.inf, seg)
        u = usage.utilization(seg)
        age = max(0.0, now - info.last_write)
        return (-((1.0 - u) * age / (2.0 * u + summary)), seg)

    return heapq.nsmallest(count, segs, key=key)


def _random(cleaner: "SegmentCleaner", segs: List[int], count: int) -> List[int]:
    cleaner._rng.shuffle(segs)  # ascending in, so the draw is reproducible
    return segs[:count]


# Both keys are total orders (ties fall to the segment number), so the
# choice never depends on the order of the candidates.
_CHOOSE = {
    CleanerPolicy.GREEDY: _greedy,
    CleanerPolicy.COST_BENEFIT: _cost_benefit,
    CleanerPolicy.RANDOM: _random,
}


@dataclass
class CleanerStats:
    passes: int = 0
    segments_cleaned: int = 0
    live_blocks_copied: int = 0
    dead_blocks_dropped: int = 0
    bytes_read: int = 0
    live_bytes_copied: int = 0
    empty_segments_skipped: int = 0
    emergency_passes: int = 0
    busy_seconds: float = 0.0
    # Portion of busy_seconds spent stalled on synchronous disk I/O
    # (sampled from SimDisk.sync_stall_seconds around each pass); the
    # attribution analyzer subtracts it so cleaner CPU time and disk
    # time land in different latency components.
    disk_stall_seconds: float = 0.0
    segments_quarantined: int = 0


class SegmentCleaner:
    """Reads fragmented segments and relocates their live blocks."""

    def __init__(
        self,
        fs: "LogStructuredFS",
        policy: CleanerPolicy,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.fs = fs
        self.policy = policy
        self.victims_per_pass = 4
        self.stats = stats = CleanerStats()
        self._rng = random.Random(0x5EC5)
        # The DATA blocks this pass reads into the cache; dropped once
        # the pass's flush has written them (see _clean_pass).
        self._inserted: List[BlockKey] = []
        self.telemetry = telemetry or NULL_TELEMETRY
        obs = self.telemetry
        obs.counter("cleaner.passes", lambda: stats.passes)
        obs.counter("cleaner.segments_cleaned", lambda: stats.segments_cleaned)
        obs.counter("cleaner.bytes_read", lambda: stats.bytes_read)
        obs.counter("cleaner.live_bytes_copied", lambda: stats.live_bytes_copied)
        obs.counter(
            "cleaner.live_blocks_copied", lambda: stats.live_blocks_copied
        )
        obs.counter(
            "cleaner.dead_blocks_dropped", lambda: stats.dead_blocks_dropped
        )
        obs.counter(
            "cleaner.segments_quarantined", lambda: stats.segments_quarantined
        )
        self._g_reserve = obs.gauge("cleaner.clean_reserve")
        self._m_victims = {
            p: obs.counter("cleaner.victims", policy=p.value)
            for p in CleanerPolicy
        }

    # ------------------------------------------------------------------
    # Clean-segment reserve (backpressure input)
    # ------------------------------------------------------------------

    def clean_reserve(self) -> int:
        """Clean segments available beyond the writer's hard reserve.

        This is the number the service layer's admission controller
        watches: when it approaches zero, the next flush is at risk of
        having to clean synchronously (or, past the hard reserve, of
        raising ``NoSpaceError``), so writers should be throttled while
        the cleaner catches up.  May be negative transiently while the
        cleaner itself is consuming reserve segments.
        """
        reserve = self.fs.usage.clean_count() - self.fs.segments.reserve_segments
        self._g_reserve.set(reserve)
        return reserve

    # ------------------------------------------------------------------
    # Victim selection (§4.3.4)
    # ------------------------------------------------------------------

    def select_victims(
        self,
        count: int,
        written_before: float = math.inf,
        max_utilization: float | None = None,
    ) -> List[int]:
        if max_utilization is None:
            max_utilization = MAX_LIVE_FRACTION_TO_CLEAN
        candidates = self.fs.usage.cleanable(max_utilization, written_before)
        return _CHOOSE[self.policy](self, candidates, count)

    # ------------------------------------------------------------------
    # The cleaning loop
    # ------------------------------------------------------------------

    def clean(
        self,
        target_clean: int | None = None,
        pays_for: int | None = None,
    ) -> int:
        """Clean until ``target_clean`` segments are clean (or stuck).

        Returns the number of segments cleaned.  Per §4.3.4, segments
        are cleaned "until all segments are either clean or contain at
        least a file-system-settable fraction of live blocks".

        ``pays_for`` names the span id of a throttled request that is
        stalled waiting on this pass; the pass's span links back to it
        so exported traces tie reclamation work to the foreground write
        that paid for it.
        """
        if self.fs.degraded:
            return 0  # read-only volumes neither clean nor flush
        if target_clean is None:
            target_clean = CLEAN_HIGH_WATER
        with self.telemetry.span("cleaner.clean", target=target_clean) as span:
            if pays_for is not None:
                span.add_link(pays_for, "pays_for")
            cleaned = self._run_clean(target_clean)
            span.set_attr("cleaned", cleaned)
        return cleaned

    def _run_clean(self, target: int) -> int:
        start = self.fs.clock.now()
        stall_before = self.fs.disk.sync_stall_seconds
        try:
            return self._clean_passes(target, start)
        finally:
            # A pass that raises (NoSpaceError, an injected crash) has
            # still spent its time and moved the reserve.
            self.stats.busy_seconds += self.fs.clock.now() - start
            self.stats.disk_stall_seconds += (
                self.fs.disk.sync_stall_seconds - stall_before
            )
            self.clean_reserve()  # refresh the cleaner.clean_reserve gauge

    def _clean_passes(self, target: int, start: float) -> int:
        cleaned = 0
        usage = self.fs.usage
        stagnant_passes = 0
        while usage.clean_count() < target:
            clean_before = usage.clean_count()
            # Only segments that existed when this invocation began are
            # victims: cleaning output (fresh, nearly full segments plus
            # the checkpoint metadata that rides along) must not be
            # re-cleaned in the same breath, or a nearly full disk makes
            # the cleaner chase its own tail.
            victims = self.select_victims(self.victims_per_pass, written_before=start)
            if not victims and (
                usage.clean_count() <= self.fs.segments.reserve_segments + 2
            ):
                # Emergency: space is trapped in segments fuller than
                # the policy threshold.  §4.3.4 notes cleaning full
                # segments "will not harm the system" — it is merely
                # expensive, and far better than wedging.
                victims = self.select_victims(
                    self.victims_per_pass, start, max_utilization=0.999
                )
                self.stats.emergency_passes += 1 if victims else 0
            if not victims:
                break
            self.stats.passes += 1
            self._m_victims[self.policy].inc(len(victims))
            cleaned += self._clean_pass(victims, clean_before)
            if self.fs.degraded:
                break
            # Safety valve: a pass that costs as many segments as it
            # frees means the disk is effectively full at this
            # threshold; stop rather than spin.
            if usage.clean_count() <= clean_before:
                stagnant_passes += 1
                if stagnant_passes >= 2:
                    break
            else:
                stagnant_passes = 0
        return cleaned

    def _clean_pass(self, victims: List[int], clean_before: int) -> int:
        """Clean ``victims`` with one write-back and checkpoint.

        The pass is one ``cleaner.pass`` span: the victims the policy
        chose, each one's utilization and age, the live bytes the pass
        moved and the clean count before and after it.
        """
        usage = self.fs.usage
        now = self.fs.clock.now()
        copied_before = self.stats.live_bytes_copied
        cleaned = 0
        self._inserted = []
        with self.telemetry.span(
            "cleaner.pass",
            victims=victims,
            u=[usage.utilization(seg) for seg in victims],
            age=[now - usage.info(seg).last_write for seg in victims],
            clean_before=clean_before,
        ) as span:
            occupied = []
            for seg in victims:
                # §5.3: "Segments with no live blocks have no cost."  The
                # in-session usage estimate is exact and recovery only ever
                # over-estimates liveness, so zero genuinely means empty —
                # reclaim such segments immediately, *before* the flush,
                # so the flush itself has room to run even when the clean
                # pool has bottomed out.
                if usage.info(seg).live_bytes == 0:
                    self.stats.empty_segments_skipped += 1
                    usage.mark_clean(seg, self.fs.clock.now())
                    cleaned += 1
                    self.stats.segments_cleaned += 1
                    continue
                try:
                    self._relocate_live_blocks(seg)
                except MediaError:
                    # The victim's media is gone.  Quarantine it — it
                    # leaves the dirty set, so it is never selected
                    # again and never becomes a write target — and keep
                    # cleaning the remaining victims.  Any live blocks
                    # already re-dirtied into the cache before the error
                    # are relocated by the flush below; the rest are
                    # stranded and will surface as read errors, which is
                    # detection, not silent loss.
                    usage.quarantine(seg)
                    self.stats.segments_quarantined += 1
                    self.fs.note_media_damage(reason="cleaner")
                    continue
                occupied.append(seg)
            if self.fs.degraded:
                # The quarantine above exhausted the budget.  The
                # relocation flush below is now forbidden (the fs is
                # read-only), so end the pass without marking the
                # occupied victims clean: their live blocks sit dirty in
                # the cache and the on-disk copies remain referenced —
                # unreclaimed but safe.
                return cleaned
            if occupied:
                # The write-back both copies the live data and
                # checkpoints, so nothing durable references the victims
                # any more.
                self.fs.flush_log(checkpoint=True, cleaner=True)
                # What the cleaner read in is cold: leave the cache to
                # the clients' working set.
                cache = self.fs.cache
                for key in self._inserted:
                    block = cache.peek(key)
                    if block is not None and not block.dirty:
                        cache.discard(key)
                now = self.fs.clock.now()
                for seg in occupied:
                    usage.mark_clean(seg, now)
                    cleaned += 1
                    self.stats.segments_cleaned += 1
            span.set_attr(
                "live_bytes_moved", self.stats.live_bytes_copied - copied_before
            )
            span.set_attr("clean_after", usage.clean_count())
        return cleaned

    # ------------------------------------------------------------------
    # Per-segment relocation
    # ------------------------------------------------------------------

    def _relocate_live_blocks(self, seg: int) -> None:
        crashpoint("cleaner.relocate", seg)
        fs = self.fs
        if fs.usage.info(seg).state is not SegmentState.DIRTY:
            raise CorruptionError(f"cleaning non-dirty segment {seg}")
        with self.telemetry.span(
            "cleaner.relocate_segment", segment=seg
        ) as span:
            # Stage what is read in a pooled segment buffer, each extent
            # at its offset in the segment: the device hands back
            # zero-copy views of live storage, and relocation must keep
            # reading them across cache traffic, so one memcpy per
            # extent into the segment writer's reusable buffer (no
            # per-victim allocation) decouples us from later writes.
            # Blocks that are not read keep the buffer's stale bytes and
            # are never looked at.
            pool = fs.segments.pool
            buffer = pool.acquire()
            try:
                self._scan_segment(seg, memoryview(buffer), span)
            finally:
                pool.release(buffer)

    def _scan_segment(self, seg: int, staging: memoryview, span) -> None:
        """Walk a victim's partial segments in log order, reading only
        their summaries and the blocks relocation copies.

        Reads go through ``stage``: the blocks asked for are merged into
        extents by :meth:`~repro.disk.geometry.DiskGeometry.read_extents`
        (a gap is read through when it transfers no slower than a near
        access), and each extent lands in ``staging`` at its offset in
        the segment.  The first summary block is read alone; each
        partial segment then reads the next one with its own blocks.
        """
        fs = self.fs
        bs = fs.config.block_size
        bps = fs.config.blocks_per_segment
        spb = fs.config.sectors_per_block
        first_block = fs.layout.segment_first_block(seg)
        disk = fs.disk
        read_extents = disk.geometry.read_extents
        label = f"cleaner segment {seg}"
        reads = nread = 0

        def stage(blocks) -> None:
            """Read the blocks at ascending offsets ``blocks``."""
            nonlocal reads, nread
            for start, end in read_extents(blocks, bs):
                image = disk.read(
                    (first_block + start) * spb,
                    (end - start) * spb,
                    label=label,
                    vectored=end - start > 1,
                )
                staging[start * bs : start * bs + len(image)] = image
                reads += 1
                nread += len(image)

        relocate_partial = self._relocate_partial
        live = dead = 0
        offset = 0
        # A MediaError quarantines the victim (see _clean_pass); what was
        # read and relocated before it is still accounted.
        try:
            stage((0,))
            while offset < bps:
                try:
                    nsummary = SegmentSummary.peek_summary_blocks(
                        staging[offset * bs : (offset + 1) * bs], bs
                    )
                    if nsummary > 1 and offset + 1 < bps:
                        stage(range(offset + 1, min(offset + nsummary, bps)))
                    entries = SegmentSummary.unpack(
                        staging[offset * bs : (offset + nsummary) * bs], bs
                    ).entries
                except CorruptionError:
                    break  # end of the written log within this segment
                offset += nsummary
                moved = relocate_partial(
                    entries, first_block, offset, staging, stage
                )
                live += moved
                dead += len(entries) - moved
                offset += len(entries)
        finally:
            self.stats.bytes_read += nread
            self.stats.live_blocks_copied += live
            self.stats.live_bytes_copied += live * bs
            self.stats.dead_blocks_dropped += dead
            span.set_attr("live_blocks", live)
            span.set_attr("dead_blocks", dead)
            span.set_attr("reads", reads)
            span.set_attr("bytes_read", nread)

    def _relocate_partial(
        self,
        entries: List[SummaryEntry],
        first_block: int,
        first: int,
        staging: memoryview,
        stage,
    ) -> int:
        """Relocate one partial segment of the victim that starts at
        ``first_block``; returns how many of its blocks were live.

        ``entries`` describe the blocks from offset ``first`` on.
        Consecutive DATA entries of one file version under one pointer
        container form a run.  Liveness of every run and entry is decided
        before any of their blocks is read: a run by :meth:`_live_data`,
        an inode block by :meth:`_live_slots`.  Then the live DATA
        blocks with no cached copy (:meth:`_uncached`), the inode blocks
        with a live inode not in memory and the next summary block are
        staged, and the entries are relocated in log order.  Pointer,
        imap and usage blocks reload through the cache or need no
        payload, so their bytes are never read.  No file changes
        between the two steps: the reads only advance the clock, and
        advancing the clock runs no event.
        """
        fs = self.fs
        bs = fs.config.block_size
        nentries = len(entries)
        fs.cpu.cleaner_blocks(nentries)
        head = first_block + first  # the address of entries[0]
        container = fs.block_map.container
        live_data, copy_data = self._live_data, self._copy_data
        live_slots, copy_inodes = self._live_slots, self._copy_inodes
        uncached, inodes = self._uncached, fs._inodes
        plan = []  # (kind, position, stop, what is live)
        needed = []  # offsets of the blocks whose bytes are copied
        position = 0
        while position < nentries:
            kind, inum, index, version, _inums = entries[position]
            stop = position + 1
            found = None
            if kind is _DATA:
                _ordinal, low, high = container(index)
                while stop < nentries:
                    next_kind, next_inum, next_index, next_version, _ = (
                        entries[stop]
                    )
                    if (
                        next_kind is not _DATA
                        or next_inum != inum
                        or next_version != version
                        or not low <= next_index <= high
                    ):
                        break
                    stop += 1
                run = entries[position:stop]
                found = live_data(run, head + position)
                if found is not None:
                    needed += [
                        first + position + at for at in uncached(run, found[1])
                    ]
            elif kind is _INODE:
                found = live_slots(entries[position], head + position)
                if any(inum not in inodes for _slot, inum in found):
                    needed.append(first + position)
            plan.append((kind, position, stop, found))
            position = stop
        if first + nentries < fs.config.blocks_per_segment:
            needed.append(first + nentries)  # the next summary
        if needed:
            stage(needed)
        live = 0
        for kind, position, stop, found in plan:
            addr = head + position
            image = staging[(first + position) * bs : (first + stop) * bs]
            if kind is _DATA:
                if found is not None:
                    copy_data(entries[position:stop], found, image)
                    live += len(found[1])
            elif kind is _INODE:
                if found:
                    copy_inodes(found, addr, image)
                    live += 1
            elif kind in (BlockKind.INDIRECT, BlockKind.DINDIRECT):
                live += self._relocate_pointer(entries[position], addr)
            elif kind is BlockKind.IMAP:
                live += self._relocate_imap(entries[position], addr)
            elif kind is BlockKind.SEGUSAGE:
                live += self._relocate_usage(entries[position], addr)
            else:
                raise ValueError(f"no relocation for {kind!r} block at {addr}")
        return live

    def _file_is_current(self, entry: SummaryEntry) -> bool:
        """Step 1 of §4.3.3: the summary-entry version check."""
        imap_entry = self.fs.imap.get(entry.inum)
        return imap_entry.allocated and imap_entry.version == entry.version

    def _live_data(
        self, run: List[SummaryEntry], addr: int
    ) -> Optional[Tuple[Inode, List[int]]]:
        """The inode of a data run and the positions of its live blocks,
        or None when none is live; nothing is read from the run itself.

        ``run`` is DATA entries of one file version under one pointer
        container, logged from ``addr`` on.  The run takes one version
        check, one inode fetch and one walk of the container.  Block by
        block, each entry would have walked the container again, so the
        lookups of those walks are accounted through ``rehit``.
        """
        fs = self.fs
        head = run[0]
        if not self._file_is_current(head):
            return None
        inode = fs._get_inode(head.inum)
        pointers, base, keys = fs.block_map.get_container(inode, head.index)
        if keys:
            fs.cache.rehit(keys, len(run) - 1)
        if pointers is None:
            return None
        live = [
            position
            for position, entry in enumerate(run)
            # step 2: the file still points here
            if pointers[entry.index - base] == addr + position
        ]
        return (inode, live) if live else None

    def _uncached(self, run: List[SummaryEntry], live: List[int]) -> List[int]:
        """The positions in ``live`` whose blocks have no cached copy,
        and so must be read.

        A cached copy is current and is what relocation moves.  A clean
        one is dirtied now, which also keeps the partial's own inserts
        from evicting it before the copy step; a dirty one is left to the
        write-back.  The keys of the blocks to read are noted for the
        pass to drop once it has written them.
        """
        cache = self.fs.cache
        now = self.fs.clock.now()
        inum = run[0].inum
        missing = []
        for position in live:
            key = block_key((inum, _DATA, run[position].index))
            cached = cache.peek(key)
            if cached is None:
                missing.append(position)
                self._inserted.append(key)
            elif not cached.dirty:
                cache.mark_dirty(key, now)
        return missing

    def _copy_data(
        self,
        run: List[SummaryEntry],
        found: Tuple[Inode, List[int]],
        image,
    ) -> None:
        """Re-dirty the live blocks :meth:`_live_data` found.

        ``image`` spans the run's blocks; only those with no cached copy
        were read (:meth:`_uncached`), and they are inserted dirty.  The
        others are dirty in the cache already.
        """
        fs = self.fs
        inode, live = found
        inum = inode.inum
        bs = fs.config.block_size
        cache = fs.cache
        charge = fs.cpu.cleaner_blocks
        now = fs.clock.now
        for position in live:
            charge(1)
            key = block_key((inum, _DATA, run[position].index))
            if cache.peek(key) is None:
                cache.insert(
                    key,
                    bytearray(image[position * bs : (position + 1) * bs]),
                    dirty=True,
                    now=now(),
                )
        fs._mark_inode_dirty(inode)

    def _live_slots(
        self, entry: SummaryEntry, addr: int
    ) -> List[Tuple[int, int]]:
        """The ``(slot, inum)`` pairs of an inode block whose inode map
        entry still names ``addr``."""
        get = self.fs.imap.get
        live = []
        for slot, inum in enumerate(entry.inums):
            imap_entry = get(inum)
            if imap_entry.allocated and imap_entry.inode_addr == addr:
                live.append((slot, inum))
        return live

    def _copy_inodes(
        self, slots: List[Tuple[int, int]], addr: int, payload
    ) -> None:
        """Re-dirty the live inodes of the inode block at ``addr``,
        unpacking from ``payload`` those not already in memory (the
        block is read only if there is one)."""
        fs = self.fs
        for slot, inum in slots:
            fs.cpu.cleaner_blocks(1)
            if inum not in fs._inodes:
                inode = Inode.unpack(
                    payload[slot * INODE_SIZE : (slot + 1) * INODE_SIZE]
                )
                if inode.inum != inum:
                    raise CorruptionError(
                        f"inode block at {addr} slot {slot} holds inode "
                        f"{inode.inum}, expected {inum}"
                    )
                fs._inodes[inum] = inode
            fs._mark_inode_dirty(fs._inodes[inum])

    def _relocate_pointer(self, entry: SummaryEntry, addr: int) -> bool:
        fs = self.fs
        if not self._file_is_current(entry):
            return False
        inode = fs._get_inode(entry.inum)
        key = BlockKey(entry.inum, entry.kind, entry.index)
        if fs._pointer_block_addr(inode, key) != addr:
            return False
        fs.cpu.cleaner_blocks(1)
        # Materialize through the normal path: the cached copy is always
        # current, and an uncached one is read from ``addr``.
        fs._load_pointers(key, addr)
        fs.cache.mark_dirty(key, fs.clock.now())
        fs._mark_inode_dirty(inode)
        return True

    def _relocate_imap(self, entry: SummaryEntry, addr: int) -> bool:
        fs = self.fs
        index = entry.index
        if (
            index >= fs.imap.num_blocks
            or fs.imap.block_addrs[index] != addr
        ):
            return False
        fs.imap.mark_block_dirty(index)
        return True

    def _relocate_usage(self, entry: SummaryEntry, addr: int) -> bool:
        fs = self.fs
        index = entry.index
        if (
            index >= fs.usage.num_blocks
            or fs.usage.block_addrs[index] != addr
        ):
            return False
        # Usage blocks are rewritten by the checkpoint that ends this
        # cleaning pass; nothing to re-dirty, the block just moves.
        return True
