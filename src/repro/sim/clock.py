"""The simulated clock.

Every component of the simulation (file systems, caches, disks, workloads)
shares a single :class:`SimClock`.  Time only moves when something charges
it: CPU work advances the clock directly, synchronous disk I/O advances it
to the I/O completion time, and asynchronous disk I/O does *not* advance it
(the request merely occupies the disk's busy timeline — see
:class:`repro.disk.sim_disk.SimDisk`).

This is the mechanism that lets the simulation reproduce the paper's core
claim: a file system that never waits for the disk runs at CPU speed.

The clock also holds the simulation's one event queue: a heap of
``(due, seq, event)``.  :meth:`SimClock.call_at` posts an event and
:meth:`SimClock.run` runs them one at a time in ``(due, seq)`` order, so
two events due at the same instant run in the order they were posted —
the multi-client service layer (:mod:`repro.service`) depends on this
for reproducible runs.  :meth:`~SimClock.advance` and
:meth:`~SimClock.advance_to` only move time: no event ever runs inside
the file-system call that is charging the clock.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple


class SimClock:
    """A monotonically non-decreasing virtual clock, in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start before zero: {start}")
        self._now = float(start)
        self._events: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds and return the new time."""
        if dt < 0:
            raise ValueError(f"cannot advance the clock backwards: {dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Move time forward to ``t`` (no-op if ``t`` is in the past)."""
        if t > self._now:
            self._now = t
        return self._now

    def call_at(self, t: float, event: Callable[[], None]) -> None:
        """Post ``event`` to run under :meth:`run` at time ``t``.

        An event that is ready now is ``call_at(now(), event)``; it runs
        after every event already queued for an instant up to now.
        """
        self._seq += 1
        heapq.heappush(self._events, (float(t), self._seq, event))

    def run(self) -> None:
        """Run events in ``(due, seq)`` order until none is left.

        The clock moves to an event's due time (when that is later than
        now) before the event runs; an event may advance it further and
        post more events, which join the same queue.
        """
        events = self._events
        while events:
            due, _seq, event = heapq.heappop(events)
            if due > self._now:
                self._now = due
            event()

    def cancel_all_timers(self) -> None:
        """Drop every pending event (used when simulating a crash)."""
        self._events.clear()

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f}, timers={len(self._events)})"
