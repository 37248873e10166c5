"""Write-back triggers.

§4.3.5 of the paper names three conditions that start a segment write:

* **Cache full** — too many dirty blocks in the file cache;
* **Cache write-back** — dirty blocks older than an age threshold
  (the implementation used 30 seconds, like UNIX delayed write-back);
* **Sync request** — an explicit ``sync``/``fsync``.

The first two are decided here; sync is an explicit file system call.
The same monitor drives the FFS baseline's delayed write-back, which is
the behaviour the paper attributes to the BSD file system.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Optional

from repro.cache.block_cache import BlockCache
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.sim.clock import SimClock

AGE_THRESHOLD = 30.0
"""Seconds a block may stay dirty before it is pushed to disk."""

DIRTY_HIGH_FRACTION = 0.5
"""Dirty-bytes fraction of cache capacity that triggers a write."""


class WritebackReason(enum.Enum):
    CACHE_FULL = "cache-full"
    AGE = "age"
    SYNC = "sync"


class WritebackMonitor:
    """Decides when the cache needs a write-back pass."""

    def __init__(
        self,
        cache: BlockCache,
        clock: SimClock,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.cache = cache
        self.clock = clock
        self._dirty_limit = int(cache.capacity_bytes * DIRTY_HIGH_FRACTION)
        self.triggers: dict = {}
        obs = telemetry or NULL_TELEMETRY
        for reason in WritebackReason:
            obs.counter(
                "cache.writeback_triggers",
                partial(self.triggers.get, reason, 0),
                reason=reason.value,
            )

    def check(self) -> Optional[WritebackReason]:
        """Reason a write-back should start now, or None.

        The file system asks after every operation.  Asking the cache
        for its oldest dirty block also drops the stale entries at the
        head of its dirty FIFO, which keeps that FIFO short.
        """
        cache = self.cache
        if cache.dirty_bytes >= self._dirty_limit or cache.over_capacity():
            return self._fire(WritebackReason.CACHE_FULL)
        oldest = cache.oldest_dirty_time()
        if (
            oldest is not None
            and self.clock.now() - oldest >= AGE_THRESHOLD
        ):
            return self._fire(WritebackReason.AGE)
        return None

    def next_age_deadline(self) -> Optional[float]:
        """Instant at which the oldest dirty block crosses the age
        threshold (None while nothing is dirty).

        The service layer's background flusher schedules its wake-ups
        from this instead of polling ``check()`` — and because an
        explicit flush (``note_explicit`` + the flush itself) empties
        the dirty set, the deadline naturally resets: blocks dirtied
        after the flush get a fresh age budget.
        """
        oldest = self.cache.oldest_dirty_time()
        if oldest is None:
            return None
        return oldest + AGE_THRESHOLD

    def _fire(self, reason: WritebackReason) -> WritebackReason:
        self.triggers[reason] = self.triggers.get(reason, 0) + 1
        return reason

    def note_explicit(self, reason: WritebackReason) -> None:
        """Record an externally initiated write-back (sync, checkpoint).

        The caller is about to flush the cache itself; once that flush
        completes, the dirty-trigger state (dirty-bytes threshold and
        the age clock, both derived from the cache's dirty set) is
        reset as a side effect — ``check()`` reports None and
        ``next_age_deadline()`` starts over from the next dirtying.
        """
        self._fire(reason)
