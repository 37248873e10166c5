"""FFS configuration and cylinder-group layout arithmetic.

The defaults follow the paper's SunOS setup: an eight-kilobyte block
size on a ~300 MB file system.  The disk is divided into cylinder
groups; each group holds its own header (with inode and data-block
bitmaps), a fixed inode table, and data blocks::

    block 0                    superblock
    group c (c = 0..ncg-1):
        base  = 1 + c * cg_blocks
        base + 0                    cg header (bitmaps)
        base + 1 .. 1+itb           inode table
        base + 1+itb .. cg_blocks   data blocks
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.inode import INODE_SIZE
from repro.errors import InvalidArgumentError
from repro.units import KIB, MIB, SECTOR_SIZE

FFS_MAGIC = 0x46_46_53_31  # "FFS1"


@dataclass(frozen=True)
class FfsConfig:
    """On-disk format and caller-set knobs of an FFS instance."""

    block_size: int = 8 * KIB
    cg_bytes: int = 16 * MIB
    """Cylinder-group size."""

    inodes_per_cg: int = 1024

    maxbpg: int = 512
    """Max data blocks one file may allocate in a group before being
    forced to the next group (FFS's large-file spreading policy)."""

    cache_bytes: int = 15 * MIB

    synchronous_metadata: bool = True
    """§3.1's behaviour: create/delete force the inode and directory
    blocks to disk before returning.  Setting this False is an ablation
    (not a real SunOS mode): metadata joins the delayed write-back,
    isolating how much of LFS's small-file win is mere asynchrony and
    how much is the log's sequential layout.  The price is FFS's crash
    guarantee — fsck may find far more damage."""

    def __post_init__(self) -> None:
        if self.block_size % SECTOR_SIZE:
            raise InvalidArgumentError(
                f"block size {self.block_size} not a multiple of "
                f"{SECTOR_SIZE}-byte sectors"
            )
        if self.cg_bytes % self.block_size:
            raise InvalidArgumentError(
                "cylinder group size must be a multiple of the block size"
            )
        if self.inodes_per_cg < 8:
            raise InvalidArgumentError("too few inodes per cylinder group")
        if self.maxbpg < 1:
            raise InvalidArgumentError("maxbpg must be at least 1")
        # The cg header must be able to hold both bitmaps.
        bitmap_bytes = (self.inodes_per_cg + 7) // 8 + (
            self.cg_blocks + 7
        ) // 8
        if bitmap_bytes + 64 > self.block_size:
            raise InvalidArgumentError(
                "cylinder group too large for single-block header bitmaps"
            )

    @property
    def cg_blocks(self) -> int:
        return self.cg_bytes // self.block_size

    @property
    def inodes_per_block(self) -> int:
        return self.block_size // INODE_SIZE

    @property
    def inode_table_blocks(self) -> int:
        return (
            self.inodes_per_cg + self.inodes_per_block - 1
        ) // self.inodes_per_block

    @property
    def data_blocks_per_cg(self) -> int:
        return self.cg_blocks - 1 - self.inode_table_blocks

    @property
    def sectors_per_block(self) -> int:
        return self.block_size // SECTOR_SIZE


@dataclass(frozen=True)
class FfsLayout:
    """Block-address arithmetic for the cylinder-group layout."""

    config: FfsConfig
    total_blocks: int

    def __post_init__(self) -> None:
        if self.num_groups < 1:
            raise InvalidArgumentError("device too small for one cylinder group")

    @classmethod
    def for_device(cls, config: FfsConfig, device_bytes: int) -> "FfsLayout":
        return cls(config=config, total_blocks=device_bytes // config.block_size)

    @property
    def num_groups(self) -> int:
        return (self.total_blocks - 1) // self.config.cg_blocks

    @property
    def max_inodes(self) -> int:
        return self.num_groups * self.config.inodes_per_cg

    def cg_base(self, cg: int) -> int:
        self._check_cg(cg)
        return 1 + cg * self.config.cg_blocks

    def cg_header_addr(self, cg: int) -> int:
        return self.cg_base(cg)

    def _check_cg(self, cg: int) -> None:
        if not 0 <= cg < self.num_groups:
            raise InvalidArgumentError(
                f"cylinder group {cg} out of range [0, {self.num_groups})"
            )

    # -- inodes ---------------------------------------------------------

    def cg_of_inum(self, inum: int) -> int:
        if not 0 <= inum < self.max_inodes:
            raise InvalidArgumentError(f"inode number {inum} out of range")
        return inum // self.config.inodes_per_cg

    def inode_location(self, inum: int) -> Tuple[int, int]:
        """(disk block address, slot within the block) of an inode."""
        cg = self.cg_of_inum(inum)
        idx = inum % self.config.inodes_per_cg
        block = self.cg_base(cg) + 1 + idx // self.config.inodes_per_block
        slot = idx % self.config.inodes_per_block
        return block, slot

    def inode_table_block_index(self, inum: int) -> int:
        """Global ordinal of the inode-table block holding ``inum``
        (cache key index for BlockKind.INODE blocks)."""
        cg = self.cg_of_inum(inum)
        idx = inum % self.config.inodes_per_cg
        return (
            cg * self.config.inode_table_blocks
            + idx // self.config.inodes_per_block
        )

    def inode_table_block_addr(self, table_index: int) -> int:
        cg = table_index // self.config.inode_table_blocks
        within = table_index % self.config.inode_table_blocks
        return self.cg_base(cg) + 1 + within

    def inums_of_table_block(self, table_index: int) -> range:
        cg = table_index // self.config.inode_table_blocks
        within = table_index % self.config.inode_table_blocks
        first = (
            cg * self.config.inodes_per_cg
            + within * self.config.inodes_per_block
        )
        last = min(
            first + self.config.inodes_per_block,
            (cg + 1) * self.config.inodes_per_cg,
        )
        return range(first, last)

    # -- data blocks ------------------------------------------------------

    def data_start(self, cg: int) -> int:
        return self.cg_base(cg) + 1 + self.config.inode_table_blocks

    def data_end(self, cg: int) -> int:
        return self.cg_base(cg) + self.config.cg_blocks

    def cg_of_block(self, addr: int) -> int:
        if addr < 1:
            raise InvalidArgumentError(f"block {addr} outside cylinder groups")
        cg = (addr - 1) // self.config.cg_blocks
        self._check_cg(cg)
        return cg

    def is_data_block(self, addr: int) -> bool:
        cg = self.cg_of_block(addr)
        return self.data_start(cg) <= addr < self.data_end(cg)

    def data_index(self, addr: int) -> Tuple[int, int]:
        """(cg, index within the cg's data-block bitmap) for ``addr``."""
        cg = self.cg_of_block(addr)
        if not self.is_data_block(addr):
            raise InvalidArgumentError(f"block {addr} is not a data block")
        return cg, addr - self.data_start(cg)
