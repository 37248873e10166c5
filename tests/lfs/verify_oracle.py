"""The LFS verifier as it walked an image before it streamed the inode map.

Kept verbatim as the oracle for ``tests/lfs/test_verify_oracle.py``: it
decodes every inode-map entry (free ones too) into an ``ImapEntry``,
reads an inode's block once per inode and labels every claimed block.
``repro.lfs.verify`` must report exactly what this reports, field for
field and error for error, in the same order.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.common.directory import DirectoryBlock
from repro.common.inode import (
    Inode,
    INODE_SIZE,
    N_DIRECT,
    NIL,
    pointers_per_block,
)
from repro.common.serialization import iter_u64
from repro.disk.device import SectorDevice
from repro.errors import CorruptionError, MediaError, TransientIOError
from repro.lfs.checkpoint import CheckpointData
from repro.lfs.config import CHECKPOINT_REGION_BLOCKS, LfsConfig, LfsLayout
from repro.lfs.filesystem import SuperBlock
from repro.lfs.inode_map import IMAP_ENTRY_SIZE, ImapEntry
from repro.lfs.segment_usage import SegmentUsage
from repro.lfs.verify import VerifyReport
from repro.vfs.base import ROOT_INUM


class _Verifier:
    def __init__(self, device: SectorDevice) -> None:
        self.device = device
        superblock = SuperBlock.unpack(device.read(0, 8))
        self.config = LfsConfig(
            block_size=superblock.block_size,
            segment_size=superblock.segment_size,
            max_inodes=superblock.max_inodes,
        )
        self.layout = LfsLayout.for_device(self.config, device.total_bytes)
        self.report = VerifyReport()
        self.block_owner: Dict[int, Tuple[int, str]] = {}
        self.live_per_segment: Dict[int, int] = {}

    def _read_block(self, addr: int) -> bytes:
        """Read one block, retrying a transient failure once.

        The verifier talks to the raw device (no timing layer, hence no
        retry loop in front of it); injected transient errors are
        guaranteed to succeed on the identical retry.  Hard
        ``MediaError`` failures propagate to the caller, which reports
        them as findings instead of crashing the walk.
        """
        spb = self.config.sectors_per_block
        try:
            return self.device.read(addr * spb, spb)
        except TransientIOError:
            return self.device.read(addr * spb, spb)

    def _media_error(self, what: str, exc: MediaError) -> None:
        self.report.media_errors += 1
        self.report.error(f"{what}: {exc}")

    def _claim(
        self, addr: int, inum: int, what: str, live_bytes: int | None = None
    ) -> bool:
        """Register a live block; reports range and sharing violations.

        ``live_bytes`` overrides the liveness contribution (inode blocks
        are accounted at INODE_SIZE granularity, mirroring the file
        system's own usage accounting).
        """
        try:
            seg = self.layout.segment_of_block(addr)
        except Exception:
            self.report.error(
                f"{what} of inode {inum}: address {addr} outside the log"
            )
            return False
        if addr in self.block_owner:
            other_inum, other_what = self.block_owner[addr]
            self.report.error(
                f"block {addr} claimed by both {what} of inode {inum} "
                f"and {other_what} of inode {other_inum}"
            )
            return False
        self.block_owner[addr] = (inum, what)
        self.live_per_segment[seg] = self.live_per_segment.get(seg, 0) + (
            self.config.block_size if live_bytes is None else live_bytes
        )
        self.report.blocks_checked += 1
        return True

    def _note_extra_live(self, addr: int, nbytes: int) -> None:
        """Additional live bytes inside an already claimed block."""
        seg = self.layout.segment_of_block(addr)
        self.live_per_segment[seg] = self.live_per_segment.get(seg, 0) + nbytes

    # -- checkpoint and inode map ------------------------------------------

    def load_checkpoint(self) -> CheckpointData:
        candidates = []
        for addr in self.layout.checkpoint_addrs:
            try:
                raw = b"".join(
                    self._read_block(addr + i)
                    for i in range(CHECKPOINT_REGION_BLOCKS)
                )
                candidates.append(CheckpointData.unpack(raw))
            except (CorruptionError, MediaError):
                continue
        if not candidates:
            raise CorruptionError("no valid checkpoint region")
        return max(candidates, key=lambda data: data.timestamp)

    def load_imap(self, checkpoint: CheckpointData) -> List[ImapEntry]:
        entries = [ImapEntry() for _ in range(self.config.max_inodes)]
        per_block = self.config.block_size // IMAP_ENTRY_SIZE
        for index, addr in enumerate(checkpoint.imap_addrs):
            if addr == NIL:
                continue
            try:
                raw = self._read_block(addr)
            except MediaError as exc:
                self._media_error(f"imap block {index}", exc)
                continue
            first = index * per_block
            for position in range(
                min(per_block, self.config.max_inodes - first)
            ):
                offset = position * IMAP_ENTRY_SIZE
                entries[first + position] = ImapEntry.unpack(
                    raw[offset : offset + IMAP_ENTRY_SIZE]
                )
        return entries

    # -- inodes and block maps ----------------------------------------

    def load_inode(self, inum: int, entry: ImapEntry) -> Inode | None:
        if entry.inode_addr == NIL:
            self.report.error(f"allocated inode {inum} has no disk address")
            return None
        try:
            raw = self._read_block(entry.inode_addr)
        except MediaError as exc:
            self._media_error(f"inode {inum}", exc)
            return None
        try:
            inode = Inode.unpack(
                raw[entry.slot * INODE_SIZE : (entry.slot + 1) * INODE_SIZE]
            )
        except CorruptionError as exc:
            self.report.error(f"inode {inum} unreadable: {exc}")
            return None
        if inode.inum != inum:
            self.report.error(
                f"imap says inode {inum} is at block {entry.inode_addr} "
                f"slot {entry.slot}, found inode {inode.inum}"
            )
            return None
        if not inode.is_allocated:
            self.report.error(f"imap-allocated inode {inum} is FREE on disk")
            return None
        return inode

    def file_blocks(self, inode: Inode) -> Dict[int, int]:
        """lbn -> addr for every mapped block, claiming metadata blocks."""
        bs = self.config.block_size
        ppb = pointers_per_block(bs)
        blocks: Dict[int, int] = {}
        nblocks = inode.nblocks(bs)
        for lbn in range(min(nblocks, N_DIRECT)):
            if inode.direct[lbn] != NIL:
                blocks[lbn] = inode.direct[lbn]
        single: List[int] = []
        if inode.indirect != NIL:
            if self._claim(inode.indirect, inode.inum, "indirect"):
                try:
                    single = list(iter_u64(self._read_block(inode.indirect)))
                except MediaError as exc:
                    self._media_error(f"indirect of inode {inode.inum}", exc)
        for position, addr in enumerate(single):
            if addr != NIL:
                blocks[N_DIRECT + position] = addr
        if inode.dindirect != NIL:
            if self._claim(inode.dindirect, inode.inum, "dindirect"):
                try:
                    roots = list(iter_u64(self._read_block(inode.dindirect)))
                except MediaError as exc:
                    self._media_error(f"dindirect of inode {inode.inum}", exc)
                    roots = []
                for leaf_index, leaf_addr in enumerate(roots):
                    if leaf_addr == NIL:
                        continue
                    if not self._claim(leaf_addr, inode.inum, "indirect leaf"):
                        continue
                    try:
                        leaves = list(iter_u64(self._read_block(leaf_addr)))
                    except MediaError as exc:
                        self._media_error(
                            f"indirect leaf of inode {inode.inum}", exc
                        )
                        continue
                    base = N_DIRECT + ppb + leaf_index * ppb
                    for position, addr in enumerate(leaves):
                        if addr != NIL:
                            blocks[base + position] = addr
        for lbn, addr in blocks.items():
            if lbn >= nblocks:
                self.report.error(
                    f"inode {inode.inum}: block {lbn} mapped beyond size "
                    f"{inode.size}"
                )
            self._claim(addr, inode.inum, f"data lbn {lbn}")
        return blocks

    # -- the walk -----------------------------------------------------

    def run(self) -> VerifyReport:
        try:
            checkpoint = self.load_checkpoint()
        except CorruptionError as exc:
            self.report.error(str(exc))
            return self.report
        imap = self.load_imap(checkpoint)
        for index, addr in enumerate(checkpoint.imap_addrs):
            if addr != NIL:
                self._claim(addr, 0, f"imap block {index}")
        for index, addr in enumerate(checkpoint.usage_addrs):
            if addr != NIL:
                self._claim(addr, 0, f"usage block {index}")

        inodes: Dict[int, Inode] = {}
        inode_blocks: Set[int] = set()
        for inum, entry in enumerate(imap):
            if not entry.allocated:
                continue
            self.report.inodes_checked += 1
            inode = self.load_inode(inum, entry)
            if inode is None:
                continue
            inodes[inum] = inode
            if entry.inode_addr not in inode_blocks:
                inode_blocks.add(entry.inode_addr)
                self._claim(
                    entry.inode_addr, inum, "inode block",
                    live_bytes=INODE_SIZE,
                )
            else:
                self._note_extra_live(entry.inode_addr, INODE_SIZE)

        if ROOT_INUM not in inodes:
            self.report.error("root inode missing or unreadable")
            return self.report

        file_maps = {
            inum: self.file_blocks(inode) for inum, inode in inodes.items()
        }

        # Directory walk: connectivity and link counts.
        links: Dict[int, int] = {ROOT_INUM: 2}
        queue = [ROOT_INUM]
        visited: Set[int] = set()
        while queue:
            dir_inum = queue.pop(0)
            if dir_inum in visited:
                continue
            visited.add(dir_inum)
            self.report.directories_checked += 1
            for lbn, addr in sorted(file_maps[dir_inum].items()):
                try:
                    block = DirectoryBlock.decode(
                        self._read_block(addr), self.config.block_size
                    )
                except (CorruptionError, MediaError) as exc:
                    if isinstance(exc, MediaError):
                        self.report.media_errors += 1
                    self.report.error(
                        f"directory {dir_inum} block {lbn}: {exc}"
                    )
                    continue
                for name, child in block.entries:
                    if child not in inodes:
                        self.report.error(
                            f"directory {dir_inum} entry {name!r} points "
                            f"at unallocated inode {child}"
                        )
                        continue
                    links[child] = links.get(child, 0) + 1
                    if inodes[child].is_dir:
                        links[child] = links.get(child, 0) + 1
                        links[dir_inum] = links.get(dir_inum, 0) + 1
                        queue.append(child)

        for inum, inode in inodes.items():
            expected = links.get(inum)
            if expected is None:
                self.report.error(f"inode {inum} allocated but unreachable")
            elif inode.nlink != expected:
                self.report.error(
                    f"inode {inum}: nlink {inode.nlink}, directory tree "
                    f"says {expected}"
                )

        # Usage-array safety: recorded live bytes must never be LESS
        # than what the walk found (under-estimation could let the
        # cleaner reclaim a segment that still holds live data).
        usage = SegmentUsage(
            self.layout.num_segments,
            self.config.segment_size,
            self.config.block_size,
        )
        try:
            usage.load_all(
                checkpoint.usage_addrs, lambda addr: self._read_block(addr)
            )
        except (CorruptionError, MediaError) as exc:
            self.report.error(f"usage array unreadable: {exc}")
            return self.report
        for seg, found in self.live_per_segment.items():
            recorded = usage.info(seg).live_bytes
            # Both sides account inodes at INODE_SIZE granularity now;
            # leave one block of slack for rounding at segment edges.
            slack = self.config.block_size
            if recorded + slack < found:
                self.report.error(
                    f"segment {seg}: usage records {recorded} live bytes, "
                    f"walk found {found}"
                )
        self.report.live_bytes_found = sum(self.live_per_segment.values())
        return self.report


def verify_lfs_oracle(device: SectorDevice) -> VerifyReport:
    """Check every LFS on-disk invariant; read-only.

    Never raises on damaged media or a damaged image: unreadable or
    invalid structures become findings in the returned report (the
    crash+corruption campaign depends on this).
    """
    try:
        try:
            verifier = _Verifier(device)
        except TransientIOError:
            verifier = _Verifier(device)
    except (CorruptionError, MediaError) as exc:
        report = VerifyReport()
        if isinstance(exc, MediaError):
            report.media_errors += 1
        report.error(f"superblock: {exc}")
        return report
    return verifier.run()
