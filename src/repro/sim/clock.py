"""The simulated clock.

Every component of the simulation (file systems, caches, disks, workloads)
shares a single :class:`SimClock`.  Time only moves when something charges
it: CPU work advances the clock directly, synchronous disk I/O advances it
to the I/O completion time, and asynchronous disk I/O does *not* advance it
(the request merely occupies the disk's busy timeline — see
:class:`repro.disk.sim_disk.SimDisk`).

This is the mechanism that lets the simulation reproduce the paper's core
claim: a file system that never waits for the disk runs at CPU speed.

Timers are stored as one FIFO bucket (a deque) per *distinct* expiry,
with a binary heap over the unique expiries.  Two timers with the same
expiry always fire in the order they were scheduled (FIFO) — the
multi-client service layer (:mod:`repro.service`) depends on this: its
request events are frequently scheduled for the same instant, and a run
is only reproducible if ties break deterministically.

The bucket layout is also what makes dispatch *batched*: the service
scheduler routinely lands hundreds of events on one instant, and the
old ``(expiry, seq)`` heap paid an O(log n) sift per event.  Here a
whole same-timestamp batch costs a single heap pop plus O(1) deque
pops — ``timer_batches`` / ``timers_fired`` count exactly that.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional


class SimClock:
    """A monotonically non-decreasing virtual clock, in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start before zero: {start}")
        self._now = float(start)
        # One FIFO bucket per distinct expiry; the heap holds each
        # distinct expiry exactly once (guarded by dict membership).
        self._buckets: Dict[float, Deque[Callable[[], None]]] = {}
        self._expiry_heap: List[float] = []
        self._ntimers = 0
        self.timer_batches = 0
        """Same-timestamp batches dispatched (one heap pop each)."""
        self.timers_fired = 0
        """Individual timer callbacks fired."""

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds and return the new time."""
        if dt < 0:
            raise ValueError(f"cannot advance the clock backwards: {dt}")
        return self.advance_to(self._now + dt)

    def advance_to(self, t: float) -> float:
        """Move time forward to ``t`` (no-op if ``t`` is in the past).

        Any timers that expire at or before ``t`` fire in (expiry,
        scheduling) order while the clock sits at their expiry instant,
        so periodic activities (the 30-second checkpoint, cache age
        write-back) observe accurate times.  All callbacks sharing an
        expiry drain as one batch; a callback that schedules new work —
        even for the instant being drained, or earlier — is picked up
        within the same advance, exactly as with the per-timer heap.
        """
        if t <= self._now:
            return self._now
        heap = self._expiry_heap
        buckets = self._buckets
        while heap and heap[0] <= t:
            expiry = heap[0]
            bucket = buckets.get(expiry)
            if not bucket:
                # Cleared by cancel_all_timers or fully drained below.
                heapq.heappop(heap)
                if bucket is not None:
                    del buckets[expiry]
                continue
            self._now = max(self._now, expiry)
            self.timer_batches += 1
            # Drain the batch, re-checking the heap top per callback: a
            # callback may schedule an *earlier* expiry, which must
            # preempt the rest of this batch (same-instant additions
            # just append to this bucket and drain in FIFO order).
            while bucket and heap and heap[0] == expiry:
                callback = bucket.popleft()
                self._ntimers -= 1
                self.timers_fired += 1
                callback()
                if buckets.get(expiry) is not bucket:
                    # cancel_all_timers ran inside the callback; the
                    # rest of this batch is cancelled.
                    break
        self._now = max(self._now, t)
        return self._now

    def call_at(self, t: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run when the clock reaches time ``t``.

        Timers only fire while the clock is being advanced; they never
        preempt running code.  A callback scheduled in the past fires on
        the next advance.  Callbacks scheduled for the same ``t`` fire
        in FIFO order (they share one FIFO bucket).
        """
        t = float(t)
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = deque((callback,))
            heapq.heappush(self._expiry_heap, t)
        else:
            bucket.append(callback)
        self._ntimers += 1

    def next_timer_at(self) -> Optional[float]:
        """Expiry of the earliest pending timer (None when idle).

        Event loops advance to this instant to fire exactly the next
        batch of timers without overshooting simulated time.
        """
        heap = self._expiry_heap
        buckets = self._buckets
        while heap:
            expiry = heap[0]
            if buckets.get(expiry):
                return expiry
            # Stale entry (cancel_all_timers since it was pushed).
            heapq.heappop(heap)
            buckets.pop(expiry, None)
        return None

    def cancel_all_timers(self) -> None:
        """Drop every pending timer (used when simulating a crash)."""
        self._buckets.clear()
        self._expiry_heap.clear()
        self._ntimers = 0

    def pending_timers(self) -> int:
        """Number of timers waiting to fire."""
        return self._ntimers

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f}, timers={self._ntimers})"
