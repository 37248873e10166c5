"""Segment summary blocks (§4.3.1).

Every partial segment written to the log starts with a summary that
identifies, for each block that follows, the owning file and the block's
position within it — the information the cleaner needs to decide
liveness (§4.3.3) and recovery needs to roll the log forward (§4.4).
The header also carries a monotonically increasing log sequence number,
a timestamp, and the address of the *next* segment in the log (chosen
when the current segment was opened), which is how the segmented log is
"linked together" for roll-forward.

A stale summary left over from a segment's previous life is rejected by
three independent guards: the magic number, the CRC over the summary,
and the sequence number, which must exactly continue the log being
scanned.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import partial
from typing import List, NamedTuple, Tuple, Union

from repro.common.inode import BlockKind, NIL
from repro.common.serialization import U32, checksum_chain
from repro.errors import ChecksumMismatch, CorruptionError, TornWriteError
from repro.lfs.config import SUMMARY_MAGIC

HEADER_SIZE = 4 + 8 + 8 + 8 + 4 + 2 + 4  # through the checksum field
ENTRY_BASE_SIZE = 1 + 4 + 8 + 4 + 2
"""Bytes of an entry without its inode numbers (4 bytes each)."""

# Precompiled layouts (summaries are packed on every flush and unpacked
# on every cleaning pass and roll-forward, so this is a hot path).  The
# CRC field sits between the header prefix and the entry bytes; it
# covers prefix + entries, exactly as serialized.
_HEADER_PREFIX = struct.Struct("<IQdQIH")  # magic seq ts next nentries nsummary
_ENTRY_HEAD = struct.Struct("<BIQIH")  # kind inum index version ninums
_CRC_OFFSET = _HEADER_PREFIX.size
assert _CRC_OFFSET + U32.size == HEADER_SIZE
assert _ENTRY_HEAD.size == ENTRY_BASE_SIZE

# Decoding maps the kind byte through this table: calling ``BlockKind``
# per entry costs more than the rest of the entry's decode.
_KINDS = {kind.value: kind for kind in BlockKind}


class SummaryEntry(NamedTuple):
    """Describes one content block of a partial segment.

    An immutable tuple rather than a frozen dataclass: the writer makes
    one per block it logs, and the dataclass's ``__init__`` cost three
    times as much.
    """

    kind: BlockKind
    inum: int
    index: int
    version: int = 0
    inums: Tuple[int, ...] = ()
    """For INODE blocks: the inode numbers packed into the block."""

    def packed_size(self) -> int:
        return ENTRY_BASE_SIZE + 4 * len(self.inums)


summary_entry = partial(tuple.__new__, SummaryEntry)
"""``summary_entry((kind, inum, index, version, inums))`` builds a
:class:`SummaryEntry` in C, all five fields given, without the class's
Python-level ``__new__`` (as :func:`~repro.common.inode.block_key`)."""


@dataclass
class SegmentSummary:
    """Header + entries for one partial segment."""

    seq: int
    timestamp: float
    next_segment_block: int = NIL
    entries: List[SummaryEntry] = field(default_factory=list)

    @property
    def nblocks(self) -> int:
        """Content blocks that follow the summary."""
        return len(self.entries)

    @staticmethod
    def blocks_needed(entries_size: int, block_size: int) -> int:
        total = HEADER_SIZE + entries_size
        return (total + block_size - 1) // block_size

    def summary_blocks(self, block_size: int) -> int:
        return self.blocks_needed(
            sum(entry.packed_size() for entry in self.entries), block_size
        )

    def pack(self, block_size: int) -> bytes:
        nsummary = self.summary_blocks(block_size)
        out = bytearray(nsummary * block_size)
        self.pack_into(out, 0, block_size)
        return bytes(out)

    def pack_into(
        self,
        buffer: Union[bytearray, memoryview],
        offset: int,
        block_size: int,
    ) -> int:
        """Serialize directly into ``buffer`` at ``offset``.

        The segment writer hands this a window of its pooled segment
        buffer, so the whole summary — header, CRC, entries, padding —
        is produced with ``pack_into`` calls and never exists as an
        intermediate ``bytes`` object.  The entries are sized as they
        are packed, and the header, which records the size, goes in
        last.  Returns the padded size (``nsummary * block_size``).
        """
        entries = self.entries
        pack_head = _ENTRY_HEAD.pack_into
        end = offset + HEADER_SIZE
        for kind, inum, index, version, inums in entries:
            pack_head(buffer, end, kind, inum, index, version, len(inums))
            end += ENTRY_BASE_SIZE
            if inums:
                struct.pack_into(f"<{len(inums)}I", buffer, end, *inums)
                end += 4 * len(inums)
        nsummary = (end - offset + block_size - 1) // block_size
        padded_size = nsummary * block_size
        if offset + padded_size > len(buffer):
            raise ValueError(
                f"summary of {padded_size} bytes overflows the buffer at "
                f"offset {offset}"
            )
        _HEADER_PREFIX.pack_into(
            buffer,
            offset,
            SUMMARY_MAGIC,
            self.seq,
            self.timestamp,
            self.next_segment_block,
            len(entries),
            nsummary,
        )
        # The CRC covers prefix + entries, exactly as serialized; chain
        # over the two spans around the CRC slot without copying them.
        view = memoryview(buffer)
        crc = checksum_chain(
            (
                view[offset : offset + _CRC_OFFSET],
                view[offset + HEADER_SIZE : end],
            )
        )
        U32.pack_into(buffer, offset + _CRC_OFFSET, crc)
        view[end : offset + padded_size] = bytes(offset + padded_size - end)
        view.release()
        return padded_size

    @classmethod
    def unpack(cls, data: bytes, block_size: int) -> "SegmentSummary":
        """Parse and validate a summary starting at ``data[0]``.

        ``data`` must include at least the first block; if the summary
        spans several blocks the caller must supply them all (the header
        says how many — use :meth:`peek_summary_blocks` first).
        """
        if len(data) < HEADER_SIZE:
            raise CorruptionError(
                f"truncated summary header: {len(data)} bytes"
            )
        (
            magic,
            seq,
            timestamp,
            next_segment_block,
            nentries,
            nsummary,
        ) = _HEADER_PREFIX.unpack_from(data)
        if magic != SUMMARY_MAGIC:
            raise CorruptionError(f"bad summary magic 0x{magic:08x}")
        (crc,) = U32.unpack_from(data, _CRC_OFFSET)
        if nsummary * block_size > len(data):
            # A valid first block claiming more blocks than survived is
            # the signature of a tear at the end of the log.
            raise TornWriteError(
                f"summary claims {nsummary} blocks, only "
                f"{len(data) // block_size} supplied"
            )
        entries: List[SummaryEntry] = []
        append = entries.append
        unpack_head = _ENTRY_HEAD.unpack_from
        kinds = _KINDS
        offset = HEADER_SIZE
        try:
            for _ in range(nentries):
                raw_kind, inum, index, version, count = unpack_head(
                    data, offset
                )
                kind = kinds.get(raw_kind)
                if kind is None:
                    raise CorruptionError(f"bad summary block kind {raw_kind}")
                offset += ENTRY_BASE_SIZE
                if count:
                    inums = struct.unpack_from(f"<{count}I", data, offset)
                    offset += 4 * count
                else:
                    inums = ()
                append(summary_entry((kind, inum, index, version, inums)))
        except struct.error as exc:
            raise CorruptionError(f"truncated summary entry: {exc}") from exc
        # Every field decodes bijectively, so checksumming the raw bytes
        # we just parsed is equivalent to re-packing them (and much
        # cheaper — the cleaner unpacks a summary per partial segment).
        # Chained crc32 avoids concatenating the two spans, which also
        # keeps this working when ``data`` is a zero-copy memoryview.
        computed = checksum_chain(
            (data[:_CRC_OFFSET], data[HEADER_SIZE:offset])
        )
        if computed != crc:
            raise ChecksumMismatch(f"summary checksum mismatch at seq {seq}")
        return cls(
            seq=seq,
            timestamp=timestamp,
            next_segment_block=next_segment_block,
            entries=entries,
        )

    @staticmethod
    def peek_summary_blocks(first_block: bytes, block_size: int) -> int:
        """How many blocks this summary spans, validating magic only."""
        try:
            magic, _, _, _, _, nsummary = _HEADER_PREFIX.unpack_from(first_block)
        except struct.error as exc:
            raise CorruptionError(f"truncated summary header: {exc}") from exc
        if magic != SUMMARY_MAGIC:
            raise CorruptionError(f"bad summary magic 0x{magic:08x}")
        if nsummary == 0:
            raise CorruptionError("summary claims zero blocks")
        return nsummary
