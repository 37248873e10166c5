"""The disk timing layer.

A :class:`SimDisk` wraps a :class:`~repro.disk.device.SectorDevice` and a
:class:`~repro.sim.clock.SimClock` and assigns every request a service
time from the :class:`~repro.disk.geometry.DiskGeometry` model.  Requests
are serviced in FIFO order on a single *busy-until* timeline:

* a **synchronous** request advances the caller's clock to the request's
  completion time — this is how the BSD baseline's synchronous metadata
  writes stall the simulated application, reproducing §3.1;
* an **asynchronous** request only extends the busy timeline — the caller
  keeps running, which is how LFS decouples application speed from disk
  speed (§4.1).

``drain()`` waits for the timeline (used by ``sync``), and ``crash()``
tells the device which queued writes had not yet completed.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.disk.device import SectorDevice
from repro.disk.geometry import DiskGeometry
from repro.disk.retry import RetryPolicy
from repro.disk.stats import DiskStats
from repro.disk.trace import AccessTier, TraceEvent, TraceRecorder
from repro.errors import OutOfRangeError, TransientIOError
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.sim.clock import SimClock


class SimDisk:
    """A timed disk: FIFO service, three-tier positioning model."""

    def __init__(
        self,
        geometry: DiskGeometry,
        clock: SimClock,
        device: Optional[SectorDevice] = None,
        trace: Optional[TraceRecorder] = None,
        telemetry: Optional[Telemetry] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.geometry = geometry
        self.clock = clock
        self.device = device or SectorDevice(
            geometry.num_sectors, geometry.sector_size
        )
        if self.device.sector_size != geometry.sector_size:
            raise ValueError(
                f"device sector size {self.device.sector_size} does not "
                f"match geometry sector size {geometry.sector_size}"
            )
        if self.device.num_sectors < geometry.num_sectors:
            raise ValueError(
                f"device has {self.device.num_sectors} sectors, geometry "
                f"needs {geometry.num_sectors}"
            )
        self.trace = trace
        self.stats = DiskStats()
        self._head_pos = 0
        self._busy_until = 0.0
        # Transient read errors (see repro.faults) are retried per the
        # backoff policy; each retry occupies the disk for its backoff
        # interval.  Hard MediaErrors are never retried — they propagate
        # to the caller immediately.
        self.retry = retry or RetryPolicy()
        self.read_retries = 0
        # Busy-timeline seconds spent inside retry backoff.  Same plain-
        # float contract as sync_stall_seconds below: the attribution
        # probe diffs it on one process, so it must never become a
        # merged counter.
        self.retry_stall_seconds = 0.0
        # DiskStats stays the cheap always-on API; the registry mirrors it
        # so exported telemetry covers the disk layer too.  Instruments are
        # resolved once here; the hot paths below pay one boolean when
        # telemetry is disabled.
        self.telemetry = telemetry or NULL_TELEMETRY
        self.telemetry.bind_clock(clock)
        self._obs_enabled = self.telemetry.enabled
        obs = self.telemetry
        self._m_reads = obs.counter("disk.reads")
        self._m_writes = obs.counter("disk.writes")
        self._m_bytes_read = obs.counter("disk.bytes_read")
        self._m_bytes_written = obs.counter("disk.bytes_written")
        self._m_sync = obs.counter("disk.sync_requests")
        self._m_busy = obs.gauge("disk.busy_seconds")
        self._m_request_bytes = obs.histogram("disk.request_bytes")
        self._m_tier = {
            tier.value: obs.counter("disk.requests", tier=tier.value)
            for tier in AccessTier
        }
        self._m_retries = obs.counter("disk.read_retries")
        # Vectored reads: multi-block requests issued as one transfer by
        # the readahead pipeline (and any other run-coalescing caller).
        self.vectored_reads = 0
        self._m_vectored = obs.counter("disk.vectored_reads")
        # Caller-blocking time: simulated seconds this disk advanced the
        # caller's clock (sync reads/writes and drain).  A plain float
        # attribute, not a counter: the attribution probe diffs it on
        # one process, and float partial sums would not merge
        # order-independently across --jobs workers.  Monotone, so
        # interval deltas decompose latencies.
        self.sync_stall_seconds = 0.0
        # Per-request spans are much finer-grained than the component
        # spans, so they ride the opt-in trace_io flag.
        self._trace_io = getattr(self.telemetry, "trace_io", False)

    # ------------------------------------------------------------------
    # Timing model
    # ------------------------------------------------------------------

    def service_time(
        self, sector: int, nbytes: int, head: Optional[int] = None
    ) -> Tuple[float, AccessTier]:
        """Service time of a request with the head at ``head``.

        ``head`` defaults to this disk's current head position.
        """
        distance = abs(sector - (self._head_pos if head is None else head))
        if distance == 0:
            tier = AccessTier.SEQUENTIAL
            positioning = self.geometry.request_gap
        elif distance <= self.geometry.near_distance:
            tier = AccessTier.NEAR
            positioning = self.geometry.track_seek + self.geometry.rotation / 2.0
        else:
            tier = AccessTier.FAR
            positioning = self.geometry.avg_seek + self.geometry.rotation / 2.0
        return positioning + self.geometry.transfer_time(nbytes), tier

    def _schedule(self, sector: int, nbytes: int) -> Tuple[float, float, AccessTier]:
        """Place a request on the busy timeline; returns (start, done, tier)."""
        duration, tier = self.service_time(sector, nbytes)
        start = max(self.clock.now(), self._busy_until)
        done = start + duration
        self._busy_until = done
        self._head_pos = sector + (nbytes + self.geometry.sector_size - 1) // (
            self.geometry.sector_size
        )
        return start, done, tier

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def read(
        self,
        sector: int,
        count: int,
        label: str = "",
        *,
        vectored: bool = False,
        copy: bool = False,
    ) -> "bytes | memoryview":
        """Synchronously read ``count`` sectors (reads always block).

        Returns a read-only view over the device image (zero-copy).  The
        view aliases live storage: it reflects any later write to the
        same sectors, so callers must consume or copy it before issuing
        further writes.  ``copy=True`` requests a stable ``bytes``
        snapshot instead.  ``vectored=True`` tags the request as a
        multi-block transfer coalesced by the readahead pipeline (it
        only affects accounting, not timing).

        Transient device errors are retried up to ``retry.max_attempts``
        times, each retry costing an exponentially growing backoff on
        the busy timeline; the last failure propagates.  Hard
        ``MediaError`` failures propagate immediately.
        """
        issue = self.clock.now()
        io_span = None
        if self._trace_io:
            tracer = self.telemetry.tracer
            io_span = tracer.begin(
                "disk.read", parent=tracer.current_span(), sector=sector
            )
        start, done, tier = self._schedule(sector, count * self.geometry.sector_size)
        if vectored:
            self.vectored_reads += 1
            if self._obs_enabled:
                self._m_vectored.inc()
        attempt = 0
        while True:
            try:
                data = self.device.read(sector, count, copy=copy)
                break
            except TransientIOError:
                attempt += 1
                self.read_retries += 1
                if self._obs_enabled:
                    self._m_retries.inc()
                if attempt > self.retry.max_attempts:
                    raise
                backoff = self.retry.delay(attempt)
                self.retry_stall_seconds += backoff
                done += backoff
                self._busy_until = done
        self.stats.record(False, len(data), True, tier.value, done - start)
        if self._obs_enabled:
            self._m_reads.inc()
            self._m_bytes_read.inc(len(data))
            self._m_sync.inc()
            self._m_busy.add(done - start)
            self._m_request_bytes.observe(len(data))
            self._m_tier[tier.value].inc()
        if self.trace is not None:
            self.trace.record(
                TraceEvent(
                    issue_time=issue,
                    complete_time=done,
                    is_write=False,
                    sector=sector,
                    nsectors=count,
                    nbytes=len(data),
                    sync=True,
                    tier=tier,
                    label=label,
                )
            )
        self.sync_stall_seconds += done - self.clock.now()
        self.clock.advance_to(done)
        self.device.mark_durable(self.clock.now())
        if io_span is not None:
            io_span.attrs["bytes"] = len(data)
            io_span.attrs["tier"] = tier.value
            self.telemetry.tracer.finish(io_span)
        return data

    def write(
        self, sector: int, data: bytes, sync: bool = False, label: str = ""
    ) -> float:
        """Write ``data`` at ``sector``; returns the completion time.

        With ``sync=True`` the caller's clock is advanced to the completion
        time (the request blocks); otherwise the request merely occupies
        the disk and becomes durable when the clock passes its completion.
        """
        if not data:
            raise OutOfRangeError("cannot write zero bytes")
        issue = self.clock.now()
        io_span = None
        if self._trace_io:
            tracer = self.telemetry.tracer
            io_span = tracer.begin(
                "disk.write",
                parent=tracer.current_span(),
                sector=sector,
                sync=sync,
            )
        start, done, tier = self._schedule(sector, len(data))
        # A synchronous request advances the clock to ``done`` before this
        # method returns, so its undo record could never survive to a
        # crash — tell the device not to allocate one.
        self.device.write(sector, data, completion_time=done, durable=sync)
        self.stats.record(True, len(data), sync, tier.value, done - start)
        if self._obs_enabled:
            self._m_writes.inc()
            self._m_bytes_written.inc(len(data))
            if sync:
                self._m_sync.inc()
            self._m_busy.add(done - start)
            self._m_request_bytes.observe(len(data))
            self._m_tier[tier.value].inc()
        if self.trace is not None:
            self.trace.record(
                TraceEvent(
                    issue_time=issue,
                    complete_time=done,
                    is_write=True,
                    sector=sector,
                    nsectors=len(data) // self.geometry.sector_size,
                    nbytes=len(data),
                    sync=sync,
                    tier=tier,
                    label=label,
                )
            )
        if sync:
            self.sync_stall_seconds += done - self.clock.now()
            self.clock.advance_to(done)
        self.device.mark_durable(self.clock.now())
        if io_span is not None:
            io_span.attrs["bytes"] = len(data)
            io_span.attrs["tier"] = tier.value
            self.telemetry.tracer.finish(io_span)
        return done

    def drain(self) -> None:
        """Block (advance the clock) until all queued requests complete."""
        stall = self._busy_until - self.clock.now()
        if stall > 0.0:
            self.sync_stall_seconds += stall
        self.clock.advance_to(self._busy_until)
        self.device.mark_durable(self.clock.now())

    @property
    def busy_until(self) -> float:
        """Time at which the disk becomes idle."""
        return self._busy_until

    @property
    def idle(self) -> bool:
        return self._busy_until <= self.clock.now()

    def queue_delay(self) -> float:
        """How far the busy timeline extends past the current clock."""
        return max(0.0, self._busy_until - self.clock.now())

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power-fail now: in-flight writes are lost, head state reset."""
        self.device.crash(self.clock.now())
        self._busy_until = self.clock.now()
        self._head_pos = 0

    def revive(self) -> None:
        """Bring the disk back after a crash (contents preserved)."""
        self.device.revive()

    def __repr__(self) -> str:
        return (
            f"SimDisk({self.geometry.name}, head={self._head_pos}, "
            f"busy_until={self._busy_until:.6f})"
        )
