"""Sequential readahead for the block cache.

The paper's Figure 4 point is that LFS reads match FFS "when files are
read the way they were written" — sequentially.  Real systems get that
bandwidth by *clustering*: detect a sequential stream and fetch ahead
of it in large requests, so the reader stops paying a positioning delay
per block.  :class:`ReadaheadPolicy` is the detector and the ledger of
what is in flight; the file system's read path is the mechanism:

* A stream turns sequential when a read of an inode starts exactly
  where the previous one ended.  From then on, a read that has to go
  to the disk extends the request for its last missing run through the
  blocks that follow it both logically and physically, up to the
  window.  The extension adds no seek, and a fragmented file prefetches
  nothing it would have to seek for.
* The caller waits only for the blocks it asked for; the rest of the
  request arrives while it runs (:meth:`repro.disk.sim_disk.SimDisk.read`
  with ``demand``).  The policy keeps, per stream, the in-flight window
  — first and last prefetched block and the request's completion time —
  and a later read that touches one of those blocks waits until it has
  arrived: the completion time minus the transfer of the blocks after
  it.

``cache.readahead_hits`` counts prefetched blocks that a demand read
found cached; ``cache.readahead_prefetched`` the blocks fetched ahead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.obs import NULL_TELEMETRY, Telemetry


@dataclass
class ReadaheadStats:
    sequential_runs: int = 0
    """Streams that crossed the sequential threshold at least once."""
    blocks_prefetched: int = 0
    hits: int = 0
    """Prefetched blocks that a demand read found cached."""


class _Stream:
    __slots__ = (
        "next_lbn", "sequential", "ahead_first", "ahead_last", "done",
        "counted",
    )

    def __init__(self, next_lbn: int) -> None:
        self.next_lbn = next_lbn
        self.sequential = False
        # The in-flight window: blocks [ahead_first, ahead_last] were
        # read ahead by a request that completes at ``done``.
        self.ahead_first = 0
        self.ahead_last = -1
        self.done = 0.0
        # The highest prefetched block already counted as a hit.
        self.counted = -1


class ReadaheadPolicy:
    """Per-inode sequential-stream detection and in-flight windows."""

    def __init__(
        self,
        window_blocks: int,
        block_size: int,
        transfer_time: Callable[[int], float],
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if window_blocks < 0:
            raise ValueError(
                f"readahead window must be >= 0 blocks: {window_blocks}"
            )
        self.window_blocks = window_blocks
        self._block_size = block_size
        self._transfer_time = transfer_time
        self.stats = ReadaheadStats()
        self._streams: Dict[int, _Stream] = {}
        obs = telemetry or NULL_TELEMETRY
        self._obs_enabled = obs.enabled
        self._m_hits = obs.counter("cache.readahead_hits")
        self._m_prefetched = obs.counter("cache.readahead_prefetched")

    def advise(self, inum: int, first: int, last: int, final: int) -> int:
        """Record a demand read of blocks ``[first, last]`` of a file
        whose last block is ``final``.

        Returns how many blocks past ``last`` may be read ahead: the
        window, up to ``final``, once the stream is sequential, else
        zero.  One access, however large, is not yet a stream, and one
        that reads to the end of the file leaves none behind.
        """
        stream = self._streams.get(inum)
        if stream is None:
            if last < final:
                self._streams[inum] = _Stream(last + 1)
            return 0
        if first == stream.next_lbn:
            if not stream.sequential:
                stream.sequential = True
                self.stats.sequential_runs += 1
        else:
            # The stream broke: restart detection here.  Blocks still
            # in flight keep their window, so a read of one still waits.
            stream.sequential = False
        stream.next_lbn = last + 1
        if not stream.sequential:
            return 0
        return min(self.window_blocks, final - last)

    def settle(
        self,
        inum: int,
        first: int,
        last: int,
        missing: Sequence[Tuple[int, int]],
    ) -> float:
        """Count the hits of a demand read of ``[first, last]`` whose
        uncached blocks are ``missing`` (``(lbn, addr)``, ascending);
        return when the prefetched blocks it touches have arrived (0.0
        when it touches none)."""
        stream = self._streams.get(inum)
        if stream is None:
            return 0.0
        lo = max(first, stream.ahead_first)
        hi = min(last, stream.ahead_last)
        if lo > hi:
            return 0.0
        fresh = max(lo, stream.counted + 1)
        if fresh <= hi:
            hits = hi - fresh + 1 - sum(
                1 for lbn, _addr in missing if fresh <= lbn <= hi
            )
            stream.counted = hi
            self.stats.hits += hits
            if self._obs_enabled:
                self._m_hits.inc(hits)
        return stream.done - self._transfer_time(
            (stream.ahead_last - hi) * self._block_size
        )

    def issued(self, inum: int, first: int, last: int, done: float) -> None:
        """Blocks ``[first, last]`` were read ahead by a request that
        completes at ``done``."""
        stream = self._streams[inum]
        stream.ahead_first, stream.ahead_last = first, last
        stream.done = done
        self.stats.blocks_prefetched += last - first + 1
        if self._obs_enabled:
            self._m_prefetched.inc(last - first + 1)

    def forget(self, inum: int) -> float:
        """Drop an inode's stream (file truncated or deleted); returns
        the completion time of its in-flight window (0.0 for none)."""
        stream = self._streams.pop(inum, None)
        return 0.0 if stream is None else stream.done

    def clear(self) -> None:
        """Drop every stream (caches flushed, or the system crashed)."""
        self._streams.clear()
