"""Checkpoint regions (§4.4.1).

A checkpoint captures the dynamic file system state — the log tail
position and the current addresses of every inode-map and segment-usage
block — at an instant when everything those addresses point at is safely
on disk.  Two fixed regions alternate so that a crash *during* a
checkpoint write leaves the previous checkpoint intact; the timestamp
picks the most recent valid region at mount time.

The checkpoint write is the only synchronous write LFS ever performs,
and it happens once per checkpoint interval (30 s), not per operation —
the contrast with the FFS baseline's per-create synchronous writes is
the point of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.serialization import (
    BatchPacker,
    Unpacker,
    segment_checksum,
    unpack_u64_array,
)
from repro.disk.sim_disk import SimDisk
from repro.errors import (
    CheckpointError,
    ChecksumMismatch,
    CorruptionError,
    MediaError,
)
from repro.lfs.config import CHECKPOINT_MAGIC, CHECKPOINT_REGION_BLOCKS, LfsLayout
from repro.lfs.segments import LogPosition
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.sim.clock import SimClock


@dataclass
class CheckpointData:
    """Everything a checkpoint region stores."""

    timestamp: float
    position: LogPosition
    imap_addrs: List[int] = field(default_factory=list)
    usage_addrs: List[int] = field(default_factory=list)

    def pack(self, region_bytes: int) -> bytes:
        body_size = 8 + 8 + 4 * 5 + 8 * (len(self.imap_addrs) + len(self.usage_addrs))
        if body_size + 8 > region_bytes:
            raise CorruptionError(
                f"checkpoint needs {body_size + 8} bytes, region "
                f"holds {region_bytes}"
            )
        # Serialize the whole region in one preallocated buffer: header,
        # body fields, both address arrays as single-call u64 packs, and
        # the zero padding.  The CRC covers the padded body (everything
        # after the 8-byte header) and is backfilled once the body is in
        # place, checksummed as one contiguous span — the bytearray is
        # born zeroed, so zero_to only advances the cursor.
        out = bytearray(region_bytes)
        packer = BatchPacker(out)
        packer.u32(CHECKPOINT_MAGIC)
        crc_slot = packer.skip(4)
        (
            packer.f64(self.timestamp)
            .u64(self.position.sequence)
            .u32(self.position.active_segment)
            .u32(self.position.active_offset)
            .u32(self.position.next_segment)
            .u32(len(self.imap_addrs))
            .u32(len(self.usage_addrs))
            .u64_array(self.imap_addrs)
            .u64_array(self.usage_addrs)
            .zero_to(region_bytes)
        )
        packer.patch_u32(crc_slot, segment_checksum(packer.view(8, region_bytes)))
        return bytes(out)

    @classmethod
    def unpack(cls, data: bytes) -> "CheckpointData":
        unpacker = Unpacker(data)
        magic = unpacker.u32()
        if magic != CHECKPOINT_MAGIC:
            raise CorruptionError(f"bad checkpoint magic 0x{magic:08x}")
        crc = unpacker.u32()
        if segment_checksum(data[unpacker.offset :]) != crc:
            raise ChecksumMismatch("checkpoint checksum mismatch")
        timestamp = unpacker.f64()
        sequence = unpacker.u64()
        active_segment = unpacker.u32()
        active_offset = unpacker.u32()
        next_segment = unpacker.u32()
        n_imap = unpacker.u32()
        n_usage = unpacker.u32()
        imap_addrs = list(unpack_u64_array(unpacker.raw(8 * n_imap)))
        usage_addrs = list(unpack_u64_array(unpacker.raw(8 * n_usage)))
        return cls(
            timestamp=timestamp,
            position=LogPosition(
                active_segment=active_segment,
                active_offset=active_offset,
                next_segment=next_segment,
                sequence=sequence,
            ),
            imap_addrs=imap_addrs,
            usage_addrs=usage_addrs,
        )


@dataclass
class CheckpointStats:
    """Checkpoint regions a :class:`CheckpointManager` wrote."""

    writes: int = 0


class CheckpointManager:
    """Alternating writes to the two fixed checkpoint regions."""

    def __init__(
        self,
        layout: LfsLayout,
        disk: SimDisk,
        clock: SimClock,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.layout = layout
        self.disk = disk
        self.clock = clock
        self._next_region = 0
        self.stats = stats = CheckpointStats()
        self.last_checkpoint_time: Optional[float] = None
        self.telemetry = telemetry or NULL_TELEMETRY
        self.telemetry.counter("checkpoint.writes", lambda: stats.writes)
        self._m_rejects = self.telemetry.counter("checkpoint.region_rejects")
        self.last_load_rejects = 0
        """Regions rejected by the most recent load_latest() call.

        Non-zero after a successful load means the mount survived on the
        alternate (older) region — a detected-and-corrected fault."""

    @property
    def region_bytes(self) -> int:
        return CHECKPOINT_REGION_BLOCKS * self.layout.config.block_size

    def _region_sector(self, region: int) -> int:
        addr = self.layout.checkpoint_addrs[region]
        return addr * self.layout.config.sectors_per_block

    def write(self, data: CheckpointData) -> None:
        """Synchronously write a checkpoint to the next region."""
        packed = data.pack(self.region_bytes)
        with self.telemetry.span(
            "checkpoint.write", region=self._next_region, bytes=len(packed)
        ):
            self.disk.write(
                self._region_sector(self._next_region),
                packed,
                sync=True,
                label=f"checkpoint region {self._next_region}",
            )
        self._next_region = 1 - self._next_region
        self.stats.writes += 1
        self.last_checkpoint_time = data.timestamp

    def load_latest(self) -> Tuple[CheckpointData, int]:
        """Read both regions; return (newest valid checkpoint, its region).

        A region that cannot be read (``MediaError``) or fails any
        validation while unpacking (bad magic, checksum mismatch,
        truncation) is rejected individually; the mount proceeds on the
        other region, falling back to the older checkpoint.  Only when
        both regions are unusable does the mount fail, with a typed
        :class:`CheckpointError`.
        """
        candidates: List[Tuple[CheckpointData, int]] = []
        rejects: List[str] = []
        sectors = CHECKPOINT_REGION_BLOCKS * self.layout.config.sectors_per_block
        for region in (0, 1):
            try:
                raw = self.disk.read(
                    self._region_sector(region),
                    sectors,
                    label=f"checkpoint region {region}",
                )
                candidates.append((CheckpointData.unpack(raw), region))
            except (CorruptionError, MediaError) as exc:
                rejects.append(f"region {region}: {exc}")
                continue
        self.last_load_rejects = len(rejects)
        self._m_rejects.inc(len(rejects))
        if not candidates:
            raise CheckpointError(
                "no valid checkpoint region found (" + "; ".join(rejects) + ")"
            )
        best, region = max(candidates, key=lambda pair: pair[0].timestamp)
        self._next_region = 1 - region
        self.last_checkpoint_time = best.timestamp
        return best, region
