"""Admission control with cleaner-aware backpressure.

Two independent gates, checked in order:

1. **Bounded queue** — at most ``max(16, 4 * num_clients)`` requests
   may be in the system at once; excess arrivals are rejected and the
   client retries after a backoff.  This caps memory and bounds tail
   latency instead of letting the queue grow without limit.
2. **Clean-segment reserve** — write-class requests (write, fsync,
   delete: anything that consumes log space) are *throttled* when the
   cleaner's clean-segment reserve drops below a watermark.  A
   throttled writer pays for a cleaning pass — simulated time advances
   while the cleaner runs, which is exactly the stall a real writer
   would see — and then retries.  This is the pacing Lomet & Luo argue
   for: reclamation keeps up with foreground load because foreground
   load is made to wait for it, and the log can never wedge at high
   utilization because writers slow down *before* the hard reserve is
   breached.

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
        # The file system's own self-maintenance keeps the clean count
        # near ``clean_low_water`` in steady state, so a useful service
        # watermark sits *above* that floor: backpressure engages while
        # the fs can still clean calmly, not after it is already in
        # emergency territory.
        self.watermark = config.reserve_watermark + fs.config.clean_low_water
        self.in_flight = 0
        obs = telemetry or NULL_TELEMETRY
        self._obs = obs
        self._g_queue = obs.gauge("service.queue_depth")
        self._m_admitted = obs.counter("service.admitted")
        self._m_rejected = obs.counter("service.rejected")
        self._m_throttles = obs.counter("service.throttle_events")
        self._m_throttle_s = obs.counter("service.throttle_seconds")
        self._m_forced = obs.counter("service.forced_admissions")
        self._m_rejected_degraded = obs.counter("service.rejected_degraded")

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
            self._m_rejected_degraded.inc()
            return Decision.REJECT_DEGRADED
        if self.in_flight >= self.capacity:
            self.stats.rejections += 1
            self._m_rejected.inc()
            return Decision.REJECT
        if (
            kind in WRITE_CLASS
            and throttle_count < MAX_THROTTLE_RETRIES
            and self.reserve_low()
        ):
            return Decision.THROTTLE
        if (
            kind in WRITE_CLASS
            and throttle_count >= MAX_THROTTLE_RETRIES
            and self.reserve_low()
        ):
            self.stats.forced_admissions += 1
            self._m_forced.inc()
        self.in_flight += 1
        self._g_queue.set(self.in_flight)
        self._m_admitted.inc()
        return Decision.ADMIT

    def pay_throttle(self, ctx: object = NULL_TRACE_CONTEXT) -> float:
        """Run one paced cleaning pass on the throttled writer's dime.

        Returns the simulated seconds the writer stalled.  The cleaning
        target clears the watermark with slack, so one stall buys
        enough reserve for many subsequent admissions and throttling
        self-limits instead of recurring on every write.

        ``ctx`` is the throttled request's trace context: the stall is
        recorded as a ``service.throttle`` span under its root, the
        cleaning pass links back to the root (it was paid for by this
        request), and the whole stall lands in its ``cleaner_throttle``
        latency component.
        """
        clock = self.fs.clock
        start = clock.now()
        self.stats.throttle_events += 1
        self._m_throttles.inc()
        target = self.fs.segments.reserve_segments + self.watermark + 2
        self._obs.resume(ctx.root)
        with self._obs.span("service.throttle"):
            self.fs.cleaner.clean(target, pays_for=ctx.root_id)
        self._obs.suspend(ctx.root)
        stalled = clock.now() - start
        ctx.charge("cleaner_throttle", stalled)
        self.stats.throttle_seconds += stalled
        self._m_throttle_s.inc(stalled)
        return stalled

    def release(self) -> None:
        if self.in_flight <= 0:
            raise RuntimeError("admission release without admit")
        self.in_flight -= 1
        self._g_queue.set(self.in_flight)
