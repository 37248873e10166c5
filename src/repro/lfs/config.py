"""LFS configuration and on-disk layout arithmetic.

The defaults are the paper's evaluation parameters (§5): a four-kilobyte
block size and a one-megabyte segment size on a ~300 MB file system.
Parameters the paper fixes and no caller changes (the checkpoint
interval, the cleaning thresholds, the quarantine budget) are the
module constants below; :class:`LfsConfig` holds the on-disk format and
the knobs a caller sets.

Disk layout (in file-system blocks)::

    block 0                superblock
    blocks 1 .. 1+CR       checkpoint region 0
    blocks 1+CR .. 1+2CR   checkpoint region 1
    seg_start ...          segments (seg_start is segment-aligned)

Everything after ``seg_start`` belongs to the segmented log.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.cache.writeback import DIRTY_HIGH_FRACTION
from repro.errors import InvalidArgumentError
from repro.units import KIB, MIB, SECTOR_SIZE

LFS_MAGIC = 0x4C46_5331  # "LFS1"
CHECKPOINT_MAGIC = 0x4C46_5343  # "LFSC"
SUMMARY_MAGIC = 0x4C46_5353  # "LFSS"

CHECKPOINT_REGION_BLOCKS = 8
"""Blocks reserved for each of the two checkpoint regions."""

CHECKPOINT_INTERVAL = 30.0
"""Seconds between automatic checkpoints (§4.4.1 uses 30 s)."""

CLEAN_LOW_WATER = 8
"""Start cleaning when clean segments drop below this (§4.3.4)."""

CLEAN_HIGH_WATER = 16
"""Clean until at least this many segments are clean."""

MAX_LIVE_FRACTION_TO_CLEAN = 0.95
"""Segments fuller than this are never chosen for cleaning."""

QUARANTINE_BUDGET = 4
"""Media-damage strikes tolerated before degrading to read-only.

Each segment the cleaner quarantines and each unreadable sector
roll-forward survives counts one strike; exceeding the budget
transitions the file system to ``DEGRADED_READONLY`` (writes raise
:class:`~repro.errors.ReadOnlyFSError`, reads still served) instead
of letting a failing volume absorb damage silently forever.
"""


class CleanerPolicy(str, enum.Enum):
    GREEDY = "greedy"
    COST_BENEFIT = "cost-benefit"
    RANDOM = "random"


@dataclass(frozen=True)
class LfsConfig:
    """On-disk format and caller-set knobs of an LFS instance."""

    block_size: int = 4 * KIB
    segment_size: int = 1 * MIB
    cache_bytes: int = 15 * MIB
    """File cache size; §5 reports ~15 MB was used as a file cache."""

    max_inodes: int = 32768

    cleaner_policy: str = "cost-benefit"
    """Victim selection: 'cost-benefit' (the default: live fraction
    freed times age, over what cleaning the victim reads and writes),
    or 'greedy' (§4.3.4's least-utilized first) or 'random', which the
    cleaning-policy ablation compares against it."""

    roll_forward: bool = True
    """Recover log writes after the last checkpoint at mount time.

    ``False`` reproduces the paper's "current implementation" (§4.4):
    recovery is instantaneous but everything after the last checkpoint
    is lost.
    """

    readahead_blocks: int = 0
    """Sequential-readahead window in blocks (0 disables readahead).

    Prefetch reads are real simulated I/O and advance the simulated
    clock, so experiments that pin device images byte-for-byte must
    leave this at 0; benchmarks opt in explicitly.
    """

    def __post_init__(self) -> None:
        if self.block_size % SECTOR_SIZE:
            raise InvalidArgumentError(
                f"block size {self.block_size} not a multiple of "
                f"{SECTOR_SIZE}-byte sectors"
            )
        if self.segment_size % self.block_size:
            raise InvalidArgumentError(
                f"segment size {self.segment_size} not a multiple of "
                f"block size {self.block_size}"
            )
        if self.segment_size // self.block_size < 4:
            raise InvalidArgumentError("segments must hold at least 4 blocks")
        if self.max_inodes < 16:
            raise InvalidArgumentError("max_inodes too small to be useful")
        if self.cleaner_policy not in [p.value for p in CleanerPolicy]:
            raise InvalidArgumentError(
                f"unknown cleaner policy: {self.cleaner_policy!r}"
            )
        if self.readahead_blocks < 0:
            raise InvalidArgumentError(
                f"readahead_blocks must be >= 0: {self.readahead_blocks}"
            )

    # Geometry is read on every block-to-segment conversion; derive it
    # once per (frozen) instance.
    @cached_property
    def blocks_per_segment(self) -> int:
        return self.segment_size // self.block_size

    @property
    def sectors_per_block(self) -> int:
        return self.block_size // SECTOR_SIZE


@dataclass(frozen=True)
class LfsLayout:
    """Where everything lives on the device, in file-system blocks."""

    config: LfsConfig
    total_blocks: int

    def __post_init__(self) -> None:
        if self.num_segments < 4:
            raise InvalidArgumentError(
                f"device too small: only {self.num_segments} segments"
            )

    @classmethod
    def for_device(cls, config: LfsConfig, device_bytes: int) -> "LfsLayout":
        return cls(config=config, total_blocks=device_bytes // config.block_size)

    @property
    def checkpoint_addrs(self) -> tuple:
        return (1, 1 + CHECKPOINT_REGION_BLOCKS)

    @cached_property
    def seg_start_block(self) -> int:
        first_free = 1 + 2 * CHECKPOINT_REGION_BLOCKS
        bps = self.config.blocks_per_segment
        return ((first_free + bps - 1) // bps) * bps

    @cached_property
    def num_segments(self) -> int:
        return (self.total_blocks - self.seg_start_block) // (
            self.config.blocks_per_segment
        )

    @cached_property
    def reserve_segments(self) -> int:
        """Clean segments only the cleaner's own writes may consume.

        The reserve must cover the worst single write-back the cleaner
        can be asked to perform: the user dirty backlog that triggered
        cleaning (the cache's dirty threshold), plus one batch of
        relocated victims, plus metadata.  An undersized reserve can
        deadlock the cleaner's own flush on a busy, nearly full disk.
        """
        config = self.config
        dirty_limit_segments = -(
            -int(config.cache_bytes * DIRTY_HIGH_FRACTION)
            // config.segment_size
        )
        return min(dirty_limit_segments + 4 + 2, max(2, self.num_segments // 3))

    @property
    def serviceable_segments(self) -> int:
        """Segments left beyond the reserve and the clean low water."""
        return self.num_segments - self.reserve_segments - CLEAN_LOW_WATER

    def segment_first_block(self, seg: int) -> int:
        self._check_segment(seg)
        return self.seg_start_block + seg * self.config.blocks_per_segment

    def segment_of_block(self, addr: int) -> int:
        if addr < self.seg_start_block:
            raise InvalidArgumentError(
                f"block {addr} lies before the segmented log"
            )
        seg = (addr - self.seg_start_block) // self.config.blocks_per_segment
        if seg >= self.num_segments:  # every freed or logged block asks
            self._check_segment(seg)
        return seg

    def _check_segment(self, seg: int) -> None:
        if not 0 <= seg < self.num_segments:
            raise InvalidArgumentError(
                f"segment {seg} out of range [0, {self.num_segments})"
            )

    @property
    def data_capacity_bytes(self) -> int:
        """Bytes the log can hold (all segments, excluding boot blocks)."""
        return self.num_segments * self.config.segment_size
