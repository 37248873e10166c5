"""Crash recovery: checkpoint mount and log roll-forward (§4.4).

Mounting from a checkpoint alone is the paper's "simpler algorithm with
zero recovery time": adopt the checkpointed inode map, usage array and
log position, losing anything written after the checkpoint.

Roll-forward is the mechanism the paper says LFS will "ultimately" use,
implemented here: starting at the checkpointed log tail, scan forward
through partial segments, validating each summary (magic, CRC, and an
exactly-continuing sequence number) and replaying the inode-map and
segment-usage blocks it contains.  Because every flush appends the inode
map blocks covering every inode it moved, replaying the logged imap
blocks in order reconstructs the complete inode-location and allocation
state as of the last flush that reached the disk; file data, inode and
indirect blocks need no replay at all — the recovered inode map already
points at them.

So roll-forward reads the summaries and the IMAP and SEGUSAGE blocks
they list, nothing else.  A flush logs those last (data, pointers,
inodes, imap, usage), so a partial's replayed blocks are normally one
extent at its end; they are read in the extents
:meth:`~repro.disk.geometry.DiskGeometry.read_extents` merges them into,
the rule the cleaner reads by, which reads a gap through only when that
is no slower than a near access.

Navigation mirrors the writer: the next partial segment normally starts
where the previous one ended; when the writer skipped to a fresh segment
(not enough room left), the previous summary's next-segment link says
where to look instead.

Roll-forward is the part of the system that reads bytes nothing
vouches for — the log tail past the checkpoint is exactly where torn
writes and crash-coincident corruption land (see :mod:`repro.faults`).
Every failure it can observe is therefore typed and non-fatal: a
summary that fails its magic/CRC/sequence guards (``ChecksumMismatch``,
``TornWriteError``) ends the scan at the last good partial; an
unreadable sector (``MediaError``) under a summary or an extent it reads
stops the scan and is counted; a replayed metadata block whose payload
does not decode is skipped and counted.  An unreadable data, inode or
pointer block outside those extents is not seen here: it surfaces as a
``MediaError`` when it is read (``verify_lfs`` reads and reports the
inode, pointer and directory blocks).  Recovery never raises past the
mount — the worst case is losing un-checkpointed tail writes, which is
the paper's baseline guarantee anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.common.inode import BlockKind
from repro.errors import CorruptionError, InvalidArgumentError, MediaError
from repro.lfs.checkpoint import CheckpointData
from repro.lfs.segments import LogPosition
from repro.lfs.segment_usage import SegmentState
from repro.lfs.summary import SegmentSummary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lfs.filesystem import LogStructuredFS

_IMAP = BlockKind.IMAP
_SEGUSAGE = BlockKind.SEGUSAGE


@dataclass
class RollForwardReport:
    """What a roll-forward pass found and applied."""

    partials_applied: int = 0
    blocks_recovered: int = 0
    """Entries the applied partials cover, less the corrupt ones
    skipped: the blocks the recovered state takes back, of which only
    the IMAP and SEGUSAGE blocks were read."""
    imap_blocks_applied: int = 0
    usage_blocks_applied: int = 0
    segments_visited: List[int] = field(default_factory=list)
    stop_reason: str = "checkpoint-only"
    recovery_seconds: float = 0.0
    media_errors: int = 0
    """Unreadable-sector errors that ended or limited the scan."""
    corrupt_entries_skipped: int = 0
    """Replayed metadata blocks whose payload failed to decode."""

    @property
    def degraded(self) -> bool:
        """Did recovery detect (and survive) log-tail damage?"""
        return bool(self.media_errors or self.corrupt_entries_skipped)


def roll_forward(
    fs: "LogStructuredFS", checkpoint: CheckpointData
) -> RollForwardReport:
    """Replay log writes that happened after ``checkpoint``.

    Mutates the file system's inode map, usage array and log position;
    the caller is responsible for writing a fresh checkpoint afterwards.
    """
    stats = fs.disk.stats
    with fs.telemetry.span("recovery.roll_forward") as span:
        reads, nread = stats.reads, stats.bytes_read
        report = _roll_forward(fs, checkpoint)
        span.set_attr("partials_applied", report.partials_applied)
        span.set_attr("blocks_recovered", report.blocks_recovered)
        span.set_attr("stop_reason", report.stop_reason)
        # Roll-forward issues no other I/O: the disk's own counts are
        # what it read (summaries and replayed metadata).
        span.set_attr("reads", stats.reads - reads)
        span.set_attr("bytes_read", stats.bytes_read - nread)
    obs = fs.telemetry
    obs.counter("recovery.partials_applied").inc(report.partials_applied)
    obs.counter("recovery.blocks_recovered").inc(report.blocks_recovered)
    obs.counter("recovery.media_errors").inc(report.media_errors)
    obs.counter("recovery.corrupt_entries_skipped").inc(
        report.corrupt_entries_skipped
    )
    return report


def _roll_forward(
    fs: "LogStructuredFS", checkpoint: CheckpointData
) -> RollForwardReport:
    report = RollForwardReport()
    start_time = fs.clock.now()
    layout = fs.layout
    bps = fs.config.blocks_per_segment

    seg = checkpoint.position.active_segment
    offset = checkpoint.position.active_offset
    fallback_seg: Optional[int] = checkpoint.position.next_segment
    expected_seq = checkpoint.position.sequence
    report.segments_visited.append(seg)

    while True:
        parsed = _try_parse(
            fs, seg, offset, expected_seq, checkpoint.timestamp, report
        )
        if parsed is None and fallback_seg is not None and offset != 0:
            # The writer may have skipped to a fresh segment mid-flush.
            candidate = _try_parse(
                fs, fallback_seg, 0, expected_seq, checkpoint.timestamp, report
            )
            if candidate is not None:
                seg, offset = fallback_seg, 0
                report.segments_visited.append(seg)
                parsed = candidate
        if parsed is None:
            report.stop_reason = (
                "log-end" if report.partials_applied else "no-writes-after-checkpoint"
            )
            if report.media_errors:
                report.stop_reason = "media-error"
            break
        summary, nsummary = parsed
        try:
            _apply_partial(fs, seg, offset, nsummary, summary, report)
        except MediaError:
            # The summary was readable but its content blocks are not.
            # Nothing past this point can be replayed consistently: stop
            # here, keeping everything already applied.
            report.media_errors += 1
            report.stop_reason = "media-error"
            break
        report.partials_applied += 1
        expected_seq = summary.seq + 1
        offset += nsummary + summary.nblocks
        if summary.next_segment_block != 0:
            try:
                fallback_seg = layout.segment_of_block(
                    summary.next_segment_block
                )
            except InvalidArgumentError:
                # A CRC-valid summary should never carry a bad link, but
                # a bit flip that misses the checksummed range can; end
                # the chain rather than chase a wild pointer.
                fallback_seg = None
        if bps - offset < 2:
            if fallback_seg is None:
                report.stop_reason = "segment-chain-end"
                break
            fs.usage.force_state(seg, SegmentState.DIRTY)
            seg, offset = fallback_seg, 0
            report.segments_visited.append(seg)

    # Leave the log positioned exactly after the last applied partial.
    # Every segment the scan visited was consumed by the post-checkpoint
    # log chain: it either holds applied partials (which live metadata
    # references) or was at least claimed by the writer.  The replayed
    # usage state can lag that by one flush (a segment's state change is
    # logged one flush after the advance that caused it), so force them
    # dirty — a stale CLEAN state here would let the writer or cleaner
    # reuse a segment whose blocks the recovered file system still
    # points at.
    for visited_seg in report.segments_visited:
        if visited_seg != seg:
            fs.usage.force_state(visited_seg, SegmentState.DIRTY)
    next_seg: Optional[int] = fallback_seg
    if next_seg == seg:
        # The chain ended with the tail segment as its own successor:
        # the writer advanced into its pre-selected segment and the
        # flush that would have recorded a new choice never became
        # durable.  A segment must never be its own successor — the
        # writer would wrap onto the data it just wrote.
        next_seg = None
    if next_seg is None:
        # The checkpointed pre-selection is no safer: the applied chain
        # may have consumed it (the checkpoint's ``next`` is usually the
        # first segment the chain visits).  Claim a replayed-clean
        # segment the scan never touched; only a full disk leaves
        # nothing better than the checkpointed choice.
        visited = set(report.segments_visited)
        visited.add(seg)
        for candidate in fs.usage.clean_segments():
            if candidate not in visited:
                next_seg = candidate
                break
        if next_seg is None:
            next_seg = checkpoint.position.next_segment
    fs.segments.restore(
        LogPosition(
            active_segment=seg,
            active_offset=offset,
            next_segment=next_seg,
            sequence=expected_seq,
        )
    )
    fs.usage.force_state(seg, SegmentState.ACTIVE)
    fs.usage.force_state(next_seg, SegmentState.ACTIVE)
    # The recovered usage accounts can be stale for the log tail in two
    # ways, and the writer's strict accounting (live <= capacity) will
    # trip on either when it appends after recovery:
    #
    # * the replayed usage blocks may already include the partials this
    #   scan re-estimated (they were logged *in* those partials), so the
    #   active segment's account can be double-counted — but live bytes
    #   never exceed the written prefix, so clamp there;
    # * the summary chain proves ``next_seg`` was freshly claimed from
    #   the clean list before the crash (its cleaning flush carries an
    #   earlier sequence number, so it was replayed), but the usage
    #   block recording the *zeroed* account lands one flush later and
    #   may be lost — the pre-clean account survives as a stale hint.
    #   Nothing has been written into the segment, so its account is 0.
    fs.usage.clamp_live(seg, offset * fs.config.block_size)
    if next_seg != seg:
        fs.usage.clamp_live(next_seg, 0)
    report.recovery_seconds = fs.clock.now() - start_time
    return report


def _try_parse(
    fs: "LogStructuredFS",
    seg: int,
    offset: int,
    expected_seq: int,
    min_timestamp: float,
    report: RollForwardReport,
) -> Optional[Tuple[SegmentSummary, int]]:
    """Parse and validate the partial segment at (seg, offset).

    Returns ``None`` (treat as end of log) for every data-dependent
    failure: bad magic, checksum mismatch, torn summary, sequence break,
    or an unreadable sector under the summary itself.
    """
    bs = fs.config.block_size
    bps = fs.config.blocks_per_segment
    if bps - offset < 2:
        return None
    first_block = fs.layout.segment_first_block(seg) + offset
    spb = fs.config.sectors_per_block
    try:
        head = fs.disk.read(first_block * spb, spb, label="roll-forward probe")
    except MediaError:
        report.media_errors += 1
        return None
    try:
        nsummary = SegmentSummary.peek_summary_blocks(head, bs)
    except CorruptionError:
        return None
    if offset + nsummary > bps:
        return None
    if nsummary > 1:
        try:
            rest = fs.disk.read(
                (first_block + 1) * spb,
                (nsummary - 1) * spb,
                label="roll-forward summary",
            )
        except MediaError:
            report.media_errors += 1
            return None
        # join() accepts the memoryviews the zero-copy read path returns;
        # ``+`` would not.
        head = b"".join((head, rest))
    try:
        summary = SegmentSummary.unpack(head, bs)
    except CorruptionError:
        return None
    if summary.seq != expected_seq:
        return None  # stale summary from the segment's previous life
    if summary.timestamp < min_timestamp:
        return None
    if offset + nsummary + summary.nblocks > bps:
        return None
    return summary, nsummary


def _apply_partial(
    fs: "LogStructuredFS",
    seg: int,
    offset: int,
    nsummary: int,
    summary: SegmentSummary,
    report: RollForwardReport,
) -> None:
    """Replay the IMAP and SEGUSAGE blocks of the partial at (seg, offset).

    Only those blocks are read, in the extents the disk geometry merges
    them into (normally one: a flush logs them last).  Every extent is
    read before anything is applied, so an unreadable one leaves the
    partial unapplied.
    """
    bs = fs.config.block_size
    spb = fs.config.sectors_per_block
    first_content = fs.layout.segment_first_block(seg) + offset + nsummary
    entries = summary.entries
    wanted = [
        position
        for position, entry in enumerate(entries)
        if entry.kind is _IMAP or entry.kind is _SEGUSAGE
    ]
    payloads = {}
    if wanted:
        disk = fs.disk
        label = f"roll-forward seq {summary.seq}"
        for start, end in disk.geometry.read_extents(wanted, bs):
            image = disk.read(
                (first_content + start) * spb,
                (end - start) * spb,
                label=label,
                vectored=end - start > 1,
            )
            for position in range(start, end):
                payloads[position] = image[
                    (position - start) * bs : (position - start + 1) * bs
                ]
    skipped = 0
    for position in wanted:
        entry = entries[position]
        addr = first_content + position
        payload = payloads[position]
        try:
            if entry.kind is _IMAP:
                if entry.index < fs.imap.num_blocks:
                    fs.imap.load_block(entry.index, payload)
                    fs.imap.block_addrs[entry.index] = addr
                    fs.imap.mark_block_dirty(entry.index)
                    report.imap_blocks_applied += 1
            elif entry.index < fs.usage.num_blocks:
                fs.usage.load_block(entry.index, payload)
                fs.usage.block_addrs[entry.index] = addr
                report.usage_blocks_applied += 1
        except CorruptionError:
            # Silent corruption inside the payload (the summary CRC does
            # not cover content blocks).  The checkpointed copy of this
            # metadata block stays in effect; keep replaying the rest.
            report.corrupt_entries_skipped += 1
            skipped += 1
    # DATA / INDIRECT / DINDIRECT / INODE blocks need no replay: the
    # imap blocks logged in the same flush point at them already.
    report.blocks_recovered += len(entries) - skipped
    # Re-estimate liveness for the recovered region (hint only, §4.3.4).
    fs.usage.note_write_hint(seg, summary.nblocks * bs, fs.clock.now())
