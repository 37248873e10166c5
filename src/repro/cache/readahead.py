"""Readahead in log order: a read stream is a run of disk addresses.

The paper's Figure 4 point is that LFS reads match FFS "when files are
read the way they were written", and Figure 3's is that small files
read fast because they "are packed densely in the log".  Both are the
same access pattern seen from the disk: the reader asks for block
after block in the order they lie on it, whatever files they belong
to.  Real systems get that bandwidth by *clustering*: they fetch ahead
of such a stream in large requests, so the reader stops paying a
positioning delay per block.  :class:`ReadaheadPolicy` is the file
system's one stream and the ledger of what it has in flight; the read
path (:meth:`repro.vfs.base.BaseFileSystem._fetch_blocks`) is the
mechanism:

* A demand is one read's uncached blocks, by disk address.  It
  continues the stream when its first block lies just past the
  previous demand's last — on the disk, or in its file — or when the
  window served part of it.  A demand that continues the stream
  extends its last request through the next ``window_blocks``
  addresses: no seek is added, only transfer.  A data block's file
  ends the extension early where the file goes on elsewhere: what lies
  between is other files' blocks or, in a log, dead copies, and the
  reader is about to seek away.
* The caller waits only for the blocks it asked for; the rest of the
  request arrives while it runs (:meth:`repro.disk.sim_disk.SimDisk.read`
  with ``demand``).  The policy keeps the in-flight window: its bytes
  (a view of the device), its first and last address, and the
  request's completion time.
* A later demand whose block resolves to an address in the window
  *claims* it: it waits until the block has arrived — the completion
  time less the transfer of the blocks after it — and copies it into
  the cache under its own key, without a request.  Blocks read ahead
  enter the cache only when claimed, so a window costs the cache
  nothing.  A demand that the window served to its last block reads
  the next window ahead, and does not wait for it.
* The window is dropped when the disk takes a write that overlaps it
  (its bytes would no longer be what the request read), when caches
  are flushed, and at a crash.  A newer extended request replaces it.
  A read-ahead that fails is dropped; only a demanded block's failure
  reaches the reader.

``cache.readahead_hits`` counts blocks a demand read took from the
window; ``cache.readahead_prefetched`` the blocks read ahead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.common.inode import BlockKey, block_key
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.units import SECTOR_SIZE


@dataclass
class ReadaheadStats:
    blocks_prefetched: int = 0
    hits: int = 0
    """Blocks read ahead that a demand read took from the window."""


class ReadaheadPolicy:
    """One read stream by disk address, and its in-flight window."""

    def __init__(
        self,
        window_blocks: int,
        block_size: int,
        total_blocks: int,
        transfer_time: Callable[[int], float],
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if window_blocks < 0:
            raise ValueError(
                f"readahead window must be >= 0 blocks: {window_blocks}"
            )
        self.window_blocks = window_blocks
        self._block_size = block_size
        self._sectors_per_block = block_size // SECTOR_SIZE
        self._total_blocks = total_blocks
        self._transfer_time = transfer_time
        self.stats = stats = ReadaheadStats()
        obs = telemetry or NULL_TELEMETRY
        obs.counter("cache.readahead_hits", lambda: stats.hits)
        obs.counter(
            "cache.readahead_prefetched", lambda: stats.blocks_prefetched
        )
        self.clear()

    def _clear_window(self) -> None:
        # Blocks [first, last] were read ahead, as ``_data``, by a
        # request that completes at ``_done`` (none when last < first);
        # bit i of ``_claimed`` is set once block first + i was counted
        # as a hit.
        self._first = 0
        self._last = -1
        self._claimed = 0
        self._done = 0.0
        self._data: Optional[memoryview] = None

    def continues(self, key: BlockKey, addr: int) -> bool:
        """Whether a demand whose first block is ``key``, at ``addr``,
        starts where the previous one ended: next on the disk, or next
        in its file."""
        return addr == self._next or key == self._next_key

    def claim(self, addr: int) -> Optional[Tuple[memoryview, float, bool]]:
        """The bytes of block ``addr``, when they arrive, and whether it
        is the window's last block, if the window holds it; else None."""
        first, last = self._first, self._last
        if not first <= addr <= last:
            return None
        bit = 1 << (addr - first)
        if not self._claimed & bit:
            # A block taken again, after the cache evicted it, is no
            # second hit.
            self._claimed |= bit
            self.stats.hits += 1
        bs = self._block_size
        offset = (addr - first) * bs
        return (
            self._data[offset : offset + bs],
            self._done - self._transfer_time((last - addr) * bs),
            addr == last,
        )

    def ended(self, key: BlockKey, addr: int) -> None:
        """A demand ended with block ``key``, at ``addr``."""
        self._next = addr + 1
        self._next_key = block_key((key.inum, key.kind, key.index + 1))

    def ahead(self, last: int) -> int:
        """How many blocks a request ending at block ``last`` may read
        ahead: the window, up to the end of the device."""
        return min(self.window_blocks, self._total_blocks - 1 - last)

    def issued(self, first: int, data: memoryview, done: float) -> None:
        """``data`` holds the blocks from ``first`` on, read ahead by a
        request that completes at ``done``: the new window."""
        count = len(data) // self._block_size
        self._first, self._last = first, first + count - 1
        self._claimed = 0
        self._data, self._done = data, done
        self.stats.blocks_prefetched += count

    def written(self, sector: int, count: int) -> None:
        """The disk took a write of ``count`` sectors at ``sector``:
        drop the window if the write overlaps it."""
        spb = self._sectors_per_block
        if (
            sector < (self._last + 1) * spb
            and sector + count > self._first * spb
        ):
            self._clear_window()

    def clear(self) -> None:
        """Drop the stream and its window (caches flushed, or the
        system crashed)."""
        # The stream: the address after the previous demand's last
        # block, and the key of the block after it in its file.
        self._next = -1
        self._next_key: Optional[BlockKey] = None
        self._clear_window()
