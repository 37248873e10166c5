"""The segment cleaner (§4.3.2–§4.3.4).

Cleaning turns fragmented segments back into clean ones: read the
victims into memory, decide which blocks are still live, re-dirty the
live blocks in the file cache, and let the ordinary segment writer copy
them to the log tail ("LFS implements cleaning by reading the live
blocks of a segment into the file cache and then using the cache
write-back code to combine and copy the blocks into a new segment").

Liveness (§4.3.3) is decided exactly as the paper describes:

1. the summary entry's version number is compared with the file's
   current version in the inode map — a mismatch means the file was
   deleted or truncated, so the block is dead;
2. otherwise the inode (and any indirect blocks) are consulted: the
   block is live iff the file's pointer for that logical block still
   names this disk address.

Victim selection (§4.3.4) supports the paper's policy (greedy: most free
space first) plus two for the ablation benchmarks: cost-benefit
(the refinement Rosenblum's follow-up work develops, scoring segments by
``(1 - u) * age / (1 + u)``) and random.

Every cleaning pass ends with a checkpoint: cleaned segments are only
reusable once the relocated metadata that references them is itself
durable.

A victim whose media cannot be read (:class:`~repro.errors.MediaError`,
see :mod:`repro.faults`) is *quarantined* rather than aborting the
pass: it leaves the dirty set permanently, so the cleaner never
re-selects it and the writer never reuses it, and cleaning continues
with the remaining victims.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lfs.filesystem import LogStructuredFS

_DATA = BlockKind.DATA


def _greedy(cleaner: "SegmentCleaner", segs: List[int], count: int) -> List[int]:
    info = cleaner.fs.usage.info
    return heapq.nsmallest(count, segs, key=lambda seg: (info(seg).live_bytes, seg))


def _cost_benefit(cleaner: "SegmentCleaner", segs: List[int], count: int) -> List[int]:
    usage, now = cleaner.fs.usage, cleaner.fs.clock.now()

    def key(seg: int):
        u = usage.utilization(seg)
        age = max(0.0, now - usage.info(seg).last_write)
        return (-((1.0 - u) * age / (1.0 + u)), seg)

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

    # By name: looked up per call, so a method replaced on the class or
    # the instance (the e2e tracer, a crash plan) is the one that runs.
    _RELOCATORS = {
        BlockKind.DATA: "_relocate_data",
        BlockKind.INDIRECT: "_relocate_pointer",
        BlockKind.DINDIRECT: "_relocate_pointer",
        BlockKind.INODE: "_relocate_inodes",
        BlockKind.IMAP: "_relocate_imap",
        BlockKind.SEGUSAGE: "_relocate_usage",
    }

    def __init__(
        self,
        fs: "LogStructuredFS",
        policy: CleanerPolicy = CleanerPolicy.GREEDY,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.fs = fs
        self.policy = policy
        self.victims_per_pass = 4
        self.stats = CleanerStats()
        self._rng = random.Random(0x5EC5)
        self.telemetry = telemetry or NULL_TELEMETRY
        obs = self.telemetry
        self._m_passes = obs.counter("cleaner.passes")
        self._m_segments = obs.counter("cleaner.segments_cleaned")
        self._m_bytes_read = obs.counter("cleaner.bytes_read")
        self._m_live_copied = obs.counter("cleaner.live_bytes_copied")
        self._m_live_blocks = obs.counter("cleaner.live_blocks_copied")
        self._m_dead_blocks = obs.counter("cleaner.dead_blocks_dropped")
        self._m_quarantined = obs.counter("cleaner.segments_quarantined")
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
        self._m_segments.inc(cleaned)
        return cleaned

    def _run_clean(self, target: int) -> int:
        cleaned = 0
        usage = self.fs.usage
        start = self.fs.clock.now()
        stall_before = self.fs.disk.sync_stall_seconds
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
            self._m_passes.inc()
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
        self.stats.busy_seconds += self.fs.clock.now() - start
        self.stats.disk_stall_seconds += (
            self.fs.disk.sync_stall_seconds - stall_before
        )
        self.clean_reserve()  # refresh the cleaner.clean_reserve gauge
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
                    self._m_quarantined.inc()
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
        fs = self.fs
        layout = fs.layout
        bps = fs.config.blocks_per_segment
        if fs.usage.info(seg).state is not SegmentState.DIRTY:
            raise CorruptionError(f"cleaning non-dirty segment {seg}")
        first_block = layout.segment_first_block(seg)
        with self.telemetry.span(
            "cleaner.relocate_segment", segment=seg
        ) as span:
            # Stage the whole-segment read in a pooled buffer: the
            # device hands back a zero-copy view of live storage, and
            # relocation must keep parsing it across cache traffic, so
            # one memcpy into the segment writer's reusable buffer (no
            # per-victim allocation) decouples us from later writes.
            pool = fs.segments.pool
            buffer = pool.acquire()
            try:
                image = fs.disk.read(
                    first_block * fs.config.sectors_per_block,
                    bps * fs.config.sectors_per_block,
                    label=f"cleaner segment {seg}",
                    vectored=True,
                )
                nbytes = len(image)
                staging = memoryview(buffer)
                staging[:nbytes] = image
                raw = staging[:nbytes].toreadonly()
                self._scan_segment(seg, first_block, raw, span)
            finally:
                pool.release(buffer)

    def _scan_segment(self, seg: int, first_block: int, raw, span) -> None:
        """Walk a staged segment image, relocating its live entries.

        Each summary is decoded once.  Consecutive DATA entries of one
        file version under one pointer container form a run, which
        :meth:`_relocate_data` checks and relocates as a whole; every
        other entry is relocated on its own.
        """
        fs = self.fs
        bs = fs.config.block_size
        bps = fs.config.blocks_per_segment
        self.stats.bytes_read += len(raw)
        self._m_bytes_read.inc(len(raw))
        charge = fs.cpu.cleaner_blocks
        container = fs.block_map.container
        # Bound by name once per scan: a method replaced on the class or
        # the instance (the e2e tracer, a crash plan) is the one that runs.
        relocators = {
            kind: getattr(self, name) for kind, name in self._RELOCATORS.items()
        }
        relocate_data = relocators[_DATA]
        live = dead = 0
        offset = 0
        while offset < bps:
            try:
                nsummary = SegmentSummary.peek_summary_blocks(
                    raw[offset * bs : (offset + 1) * bs], bs
                )
                entries = SegmentSummary.unpack(raw[offset * bs :], bs).entries
            except CorruptionError:
                break  # end of the written log within this segment
            nentries = len(entries)
            charge(nentries)
            first = offset + nsummary  # the block of entries[0]
            position = 0
            while position < nentries:
                kind, inum, index, version, _inums = entries[position]
                stop = position + 1
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
                    moved = relocate_data(
                        entries[position:stop],
                        first_block + first + position,
                        raw[(first + position) * bs : (first + stop) * bs],
                    )
                else:
                    moved = relocators[kind](
                        entries[position],
                        first_block + first + position,
                        raw[(first + position) * bs : (first + stop) * bs],
                    )
                live += moved
                dead += stop - position - moved
                position = stop
            offset = first + nentries
        self.stats.live_blocks_copied += live
        self.stats.live_bytes_copied += live * bs
        self.stats.dead_blocks_dropped += dead
        self._m_live_blocks.inc(live)
        self._m_live_copied.inc(live * bs)
        self._m_dead_blocks.inc(dead)
        span.set_attr("live_blocks", live)
        span.set_attr("dead_blocks", dead)

    def _file_is_current(self, entry: SummaryEntry) -> bool:
        """Step 1 of §4.3.3: the summary-entry version check."""
        imap_entry = self.fs.imap.get(entry.inum)
        return imap_entry.allocated and imap_entry.version == entry.version

    def _relocate_data(
        self, run: List[SummaryEntry], addr: int, image
    ) -> int:
        """Re-dirty the live blocks of a data run in cache; returns how
        many were live.

        ``run`` is DATA entries of one file version under one pointer
        container, logged from ``addr`` on; ``image`` holds their blocks.
        The run takes one version check, one inode fetch and one walk of
        the container.  Block by block, each entry would have walked the
        container again, so the lookups of those walks are accounted
        through ``rehit``, and in their order: a walk's lookups come just
        before the insert of its live block.
        """
        fs = self.fs
        head = run[0]
        if not self._file_is_current(head):
            return 0
        inum = head.inum
        inode = fs._get_inode(inum)
        pointers, base, keys = fs.block_map.get_container(inode, head.index)
        cache = fs.cache
        last = len(run) - 1
        walked = 0  # the walk the pointer blocks' stamps come from
        live = 0
        if pointers is not None:
            bs = fs.config.block_size
            charge = fs.cpu.cleaner_blocks
            now = fs.clock.now
            peek, rehit = cache.peek, cache.rehit
            for position, entry in enumerate(run):
                index = entry.index
                if pointers[index - base] != addr + position:
                    continue  # step 2: the file no longer points here
                live += 1
                charge(1)
                key = block_key((inum, _DATA, index))
                cached = peek(key)
                if cached is None:
                    if keys and position > walked:
                        rehit(keys, position - walked)
                        walked = position
                    cache.insert(
                        key,
                        bytearray(image[position * bs : (position + 1) * bs]),
                        dirty=True,
                        now=now(),
                    )
                elif not cached.dirty:
                    cache.mark_dirty(key, now())
            if live:
                fs._mark_inode_dirty(inode)
        if keys and last > walked:
            cache.rehit(keys, last - walked)
        return live

    def _relocate_pointer(
        self, entry: SummaryEntry, addr: int, payload: bytes
    ) -> bool:
        fs = self.fs
        if not self._file_is_current(entry):
            return False
        inode = fs._get_inode(entry.inum)
        key = BlockKey(entry.inum, entry.kind, entry.index)
        if fs._pointer_block_addr(inode, key) != addr:
            return False
        fs.cpu.cleaner_blocks(1)
        # Materialize through the normal path (reuses the disk image we
        # just read only if uncached; the cached copy is always current).
        fs._load_pointers(key, addr)
        fs.cache.mark_dirty(key, fs.clock.now())
        fs._mark_inode_dirty(inode)
        return True

    def _relocate_inodes(
        self, entry: SummaryEntry, addr: int, payload: bytes
    ) -> bool:
        fs = self.fs
        any_live = False
        for slot, inum in enumerate(entry.inums):
            imap_entry = fs.imap.get(inum)
            if not imap_entry.allocated or imap_entry.inode_addr != addr:
                continue
            any_live = True
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
        return any_live

    def _relocate_imap(
        self, entry: SummaryEntry, addr: int, payload: bytes
    ) -> bool:
        fs = self.fs
        index = entry.index
        if (
            index >= fs.imap.num_blocks
            or fs.imap.block_addrs[index] != addr
        ):
            return False
        fs.imap.mark_block_dirty(index)
        return True

    def _relocate_usage(
        self, entry: SummaryEntry, addr: int, payload: bytes
    ) -> bool:
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
