"""Disk geometry and service-time parameters.

The model has three positioning tiers, chosen because they are the
coarsest model that still reproduces every disk-level effect the paper
relies on:

* **sequential** — the request starts exactly where the previous one
  ended.  The head pays only a small *request gap* (the sectors that fly
  by while the next request is issued), modeled as a quarter revolution.
  This is what makes per-block sequential I/O (BSD FFS writing 8 KB at a
  time) measurably slower than segment-sized I/O (LFS writing 1 MB at a
  time), which is the quantitative heart of the paper.
* **near** — the request lands within ``near_distance`` sectors of the
  head (same cylinder group, in FFS terms): a track-to-track seek plus
  half a revolution of rotational latency.
* **far** — anything else: the average seek plus half a revolution.

Transfer time is bytes divided by the sustained bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.units import KIB, MIB, MILLISECOND, SECTOR_SIZE


@dataclass(frozen=True)
class DiskGeometry:
    """Static parameters of a simulated disk."""

    name: str
    total_bytes: int
    sector_size: int = SECTOR_SIZE
    bandwidth: float = 1.3 * MIB
    """Sustained transfer bandwidth in bytes/second."""
    avg_seek: float = 17.5 * MILLISECOND
    """Average seek time for far accesses."""
    track_seek: float = 3.0 * MILLISECOND
    """Seek time for near accesses (within ``near_distance``)."""
    rotation: float = 16.7 * MILLISECOND
    """Time of one full platter revolution (3,600 RPM)."""
    near_distance: int = (2 * MIB) // SECTOR_SIZE
    """Distance in sectors below which an access counts as near."""

    def __post_init__(self) -> None:
        if self.total_bytes <= 0 or self.total_bytes % self.sector_size:
            raise ValueError(
                f"total_bytes must be a positive multiple of the sector "
                f"size: {self.total_bytes}"
            )
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive: {self.bandwidth}")
        for field in ("avg_seek", "track_seek", "rotation"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} cannot be negative")

    @property
    def num_sectors(self) -> int:
        return self.total_bytes // self.sector_size

    @property
    def request_gap(self) -> float:
        """Positioning cost of a back-to-back sequential request."""
        return self.rotation / 4.0

    def transfer_time(self, nbytes: int) -> float:
        """Seconds to transfer ``nbytes`` at sustained bandwidth."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        return nbytes / self.bandwidth

    def read_extents(
        self, blocks: Iterable[int], block_size: int
    ) -> List[Tuple[int, int]]:
        """Merge the ascending block numbers ``blocks`` into the
        ``[start, end)`` extents that read them fastest.

        A gap between two wanted blocks is read through when
        transferring it is no slower than the near access (a track seek
        and half a revolution) that skipping it would cost; a longer gap
        ends the extent.  ``blocks`` must not be empty.
        """
        reposition = self.track_seek + self.rotation / 2.0
        extents = []
        blocks = iter(blocks)
        start = next(blocks)
        end = start + 1
        for block in blocks:
            if self.transfer_time((block - end) * block_size) > reposition:
                extents.append((start, end))
                start = block
            end = block + 1
        extents.append((start, end))
        return extents


def wren_iv(total_bytes: int = 300 * MIB) -> DiskGeometry:
    """The paper's WREN IV disk, default-sized to its ~300 MB file system."""
    return DiskGeometry(name="WREN IV", total_bytes=total_bytes)


WREN_IV = wren_iv()

FAST_1990S_DISK = DiskGeometry(
    name="fast-1990s",
    total_bytes=1024 * MIB,
    bandwidth=4 * MIB,
    avg_seek=12.0 * MILLISECOND,
    track_seek=2.0 * MILLISECOND,
    rotation=11.1 * MILLISECOND,  # 5,400 RPM
)

NULL_TIMING = DiskGeometry(
    name="null-timing",
    total_bytes=64 * MIB,
    bandwidth=1e15,
    avg_seek=0.0,
    track_seek=0.0,
    rotation=0.0,
    near_distance=128 * KIB // SECTOR_SIZE,
)
"""Zero-cost geometry for correctness tests that do not care about time."""
