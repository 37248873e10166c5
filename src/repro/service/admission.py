"""Admission control with cleaner-aware backpressure.

Two independent gates, checked in order:

1. **Bounded queue** — at most ``max(16, 4 * num_clients)`` requests
   may be in the system at once; excess arrivals are rejected and the
   client retries after a backoff.  This caps memory and bounds tail
   latency instead of letting the queue grow without limit.
2. **Clean-segment reserve** — write-class requests (write, fsync,
   delete: anything that consumes log space) are *throttled* when the
   cleaner's clean-segment reserve (clean segments beyond the writer's
   hard reserve) drops below ``reserve_watermark``.  A throttled writer
   pays for one cleaning pass — ``victims_per_pass`` victims, one
   write-back and the checkpoint that ends it; simulated time advances
   while the cleaner runs, which is exactly the stall a real writer
   would see — and then retries.  This is the pacing Lomet & Luo argue
   for: reclamation keeps up with foreground load because foreground
   load is made to wait for it, one bounded quantum at a time, so no
   single writer pays for refilling the whole reserve.

The watermark sits at the file system's own floor, not above it.
Before a flush, :meth:`~repro.lfs.filesystem.LogStructuredFS.
_ensure_clean_segments` cleans synchronously once the clean count falls
below ``max(CLEAN_LOW_WATER, reserve + 2 + dirty segments)``; on the
service rig the hard reserve (10 segments) already exceeds
``CLEAN_LOW_WATER`` (8), so that floor is reserve + 2 + the dirty
backlog.  The default watermark of 2 throttles at reserve + 2: cleaning
starts only once clean segments run short, as in the paper, so victims
have had the longest time for their blocks to die (§5.3: write cost
2/(1−u)).

A request that still finds the reserve low after
:data:`MAX_THROTTLE_RETRIES` cleaning passes is force-admitted: the
file system's own emergency cleaning (and, past that, ``NoSpaceError``)
is the final authority, and the service must terminate even on a disk
that cleaning cannot help.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.context import NULL_TRACE_CONTEXT
from repro.service.config import ServiceConfig
from repro.sim.crashpoints import crashpoint
from repro.service.stats import ServiceStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lfs.filesystem import LogStructuredFS

WRITE_CLASS = frozenset({"write", "fsync", "delete"})
"""Request kinds that consume log space and respect the watermark."""

MAX_THROTTLE_RETRIES = 3
"""Throttle passes per request before it is force-admitted."""


class Decision(enum.Enum):
    ADMIT = "admit"
    THROTTLE = "throttle"
    REJECT = "reject"
    REJECT_DEGRADED = "reject-degraded"
    """Write-class request shed because the fs is degraded read-only.

    Distinct from ``REJECT`` (queue full — retry later): a degraded
    volume will not accept this write however long the client waits, so
    the scheduler abandons the request instead of backing off."""


class AdmissionController:
    """Bounded queue + clean-reserve watermark over one LFS."""

    def __init__(
        self,
        fs: "LogStructuredFS",
        config: ServiceConfig,
        stats: ServiceStats,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.fs = fs
        self.stats = stats
        self.capacity = max(16, 4 * config.num_clients)
        self.watermark = config.reserve_watermark
        self.in_flight = 0
        obs = telemetry or NULL_TELEMETRY
        self._obs = obs
        self._g_queue = obs.gauge("service.queue_depth")
        self._m_admitted = obs.counter("service.admitted")
        # Float seconds stay an instrument: a migration pair shares one
        # registry, and per-object float sums would reassociate.
        self._m_throttle_s = obs.counter("service.throttle_seconds")
        obs.counter("service.rejected", lambda: stats.rejections)
        obs.counter("service.throttle_events", lambda: stats.throttle_events)
        obs.counter(
            "service.forced_admissions", lambda: stats.forced_admissions
        )
        obs.counter(
            "service.rejected_degraded", lambda: stats.rejected_degraded
        )

    # ------------------------------------------------------------------
    # The two gates
    # ------------------------------------------------------------------

    def reserve_low(self) -> bool:
        return self.fs.cleaner.clean_reserve() < self.watermark

    def try_admit(self, kind: str, throttle_count: int = 0) -> Decision:
        """Decide a request's fate; ADMIT increments the queue depth."""
        if kind in WRITE_CLASS and self.fs.degraded:
            # A read-only volume serves reads indefinitely but can never
            # accept this write: shed it outright (no backoff, no
            # throttle — cleaning cannot fix missing media).
            self.stats.rejected_degraded += 1
            return Decision.REJECT_DEGRADED
        if self.in_flight >= self.capacity:
            self.stats.rejections += 1
            return Decision.REJECT
        if kind in WRITE_CLASS and self.reserve_low():
            if throttle_count < MAX_THROTTLE_RETRIES:
                return Decision.THROTTLE
            self.stats.forced_admissions += 1
        self.in_flight += 1
        self._g_queue.set(self.in_flight)
        self._m_admitted.inc()
        return Decision.ADMIT

    def pay_throttle(self, ctx: object = NULL_TRACE_CONTEXT) -> float:
        """Run one cleaning pass on the throttled writer's dime.

        Returns the simulated seconds the writer stalled.  The writer
        pays for one pass however far the reserve is below the
        watermark, so no one writer stalls for refilling the reserve; a
        writer that still finds the reserve low on retry pays for the
        next pass.

        ``ctx`` is the throttled request's trace context: the stall is
        recorded as a ``service.throttle`` span under its root, the
        cleaning pass links back to the root (it was paid for by this
        request), and the whole stall lands in its ``cleaner_throttle``
        latency component.
        """
        crashpoint("throttle.begin")
        clock = self.fs.clock
        start = clock.now()
        self.stats.throttle_events += 1
        # Clean until one more segment is clean than now.  One pass of
        # ``victims_per_pass`` victims gets there unless it frees no
        # more than it writes; the cleaner's safety valve then allows
        # a second pass before it gives up.
        target = self.fs.usage.clean_count() + 1
        self._obs.resume(ctx.root)
        with self._obs.span("service.throttle"):
            self.fs.cleaner.clean(target, pays_for=ctx.root_id)
        self._obs.suspend(ctx.root)
        stalled = clock.now() - start
        ctx.charge("cleaner_throttle", stalled)
        self.stats.throttle_seconds += stalled
        self._m_throttle_s.inc(stalled)
        crashpoint("throttle.paid")
        return stalled

    def release(self) -> None:
        if self.in_flight <= 0:
            raise RuntimeError("admission release without admit")
        self.in_flight -= 1
        self._g_queue.set(self.in_flight)
