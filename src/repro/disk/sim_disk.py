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

import enum
from functools import partial
from typing import Callable, Optional, Tuple

from repro.disk.device import SectorDevice
from repro.disk.geometry import DiskGeometry
from repro.disk.stats import DiskStats
from repro.errors import OutOfRangeError, TransientIOError
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.sim.clock import SimClock
from repro.sim.crashpoints import crashpoint

# Transient read errors (see repro.faults) are retried with exponential
# backoff: three retries at 2 ms, 4 ms and 8 ms, far below the 50 ms cap.
RETRY_BASE_DELAY = 0.002
RETRY_MULTIPLIER = 2.0
RETRY_CAP = 0.05
RETRY_MAX_ATTEMPTS = 3


class AccessTier(str, enum.Enum):
    """Head-positioning class of a request (see :meth:`SimDisk.service_time`)."""

    SEQUENTIAL = "sequential"
    NEAR = "near"
    FAR = "far"


class SimDisk:
    """A timed disk: FIFO service, three-tier positioning model."""

    def __init__(
        self,
        geometry: DiskGeometry,
        clock: SimClock,
        device: Optional[SectorDevice] = None,
        telemetry: Optional[Telemetry] = None,
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
        self.stats = DiskStats()
        self._head_pos = 0
        self._busy_until = 0.0
        # Each transient-read retry (DiskStats.read_retries) occupies
        # the disk for its backoff interval; hard MediaErrors are never
        # retried — they propagate to the caller immediately.  The
        # seconds spent inside retry backoff keep the same plain-float
        # contract as sync_stall_seconds below: the attribution probe
        # diffs them on one process, so they must never become a merged
        # counter.
        self.retry_stall_seconds = 0.0
        # DiskStats stays the cheap always-on API; the registry's disk
        # counters read it back, so exported telemetry covers the disk
        # layer without a second count.  The float busy time and the
        # request-size histogram are instruments of their own, resolved
        # once here; the hot paths pay one boolean for them when
        # telemetry is disabled.
        self.telemetry = telemetry or NULL_TELEMETRY
        self.telemetry.bind_clock(clock)
        self._obs_enabled = self.telemetry.enabled
        obs = self.telemetry
        stats = self.stats
        obs.counter("disk.reads", lambda: stats.reads)
        obs.counter("disk.writes", lambda: stats.writes)
        obs.counter("disk.bytes_read", lambda: stats.bytes_read)
        obs.counter("disk.bytes_written", lambda: stats.bytes_written)
        obs.counter("disk.sync_requests", lambda: stats.sync_requests)
        obs.counter("disk.read_retries", lambda: stats.read_retries)
        obs.counter("disk.vectored_reads", lambda: stats.vectored_reads)
        for tier in AccessTier:
            obs.counter(
                "disk.requests",
                partial(stats.tier_counts.get, tier.value, 0),
                tier=tier.value,
            )
        self._m_busy = obs.gauge("disk.busy_seconds")
        self._m_request_bytes = obs.histogram("disk.request_bytes")
        # Caller-blocking time: simulated seconds this disk advanced the
        # caller's clock (sync reads/writes and drain).  A plain float
        # attribute, not a counter: the attribution probe diffs it on
        # one process, and float partial sums would not merge
        # order-independently across --jobs workers.  Monotone, so
        # interval deltas decompose latencies.
        self.sync_stall_seconds = 0.0
        # When the latest read's whole transfer is done: later than the
        # caller's wake-up when it read ahead.
        self.last_read_done = 0.0
        # Told (first sector, sector count) of every write: the mounted
        # file system drops its read-ahead window when the disk
        # overwrites it.
        self.write_observer: Optional[Callable[[int, int], None]] = None
        # Per-request spans are much finer-grained than the component
        # spans, so they ride the opt-in trace_io flag.  They are the
        # one per-request record: direction (the kind), sector, size,
        # sync flag, positioning tier and the caller's label.
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
        demand: Optional[int] = None,
    ) -> memoryview:
        """Read ``count`` sectors; the caller waits for them.

        Returns a read-only view over the device image (zero-copy).  The
        view aliases live storage: it reflects any later write to the
        same sectors, so callers must consume or copy it before issuing
        further writes.  ``vectored=True`` tags the request as a
        multi-block transfer coalesced by the readahead pipeline (it
        only affects accounting, not timing).  ``demand`` is how many
        leading sectors the caller waits for (all by default): the rest
        of the transfer is read ahead, and arrives while the caller
        runs; with ``demand=0`` the caller does not wait at all, and the
        request counts as asynchronous.  It is still one request, and
        the disk stays busy until the whole transfer is done.

        Transient device errors are retried up to ``RETRY_MAX_ATTEMPTS``
        times, each retry costing an exponentially growing backoff on
        the busy timeline; the last failure propagates.  Hard
        ``MediaError`` failures propagate immediately.
        """
        issue = self.clock.now()
        sync = demand != 0  # a read ahead alone keeps no caller waiting
        io_span = None
        if self._trace_io:
            tracer = self.telemetry.tracer
            io_span = tracer.begin(
                "disk.read",
                parent=tracer.current_span(),
                sector=sector,
                sync=sync,
                label=label,
            )
        start, done, tier = self._schedule(sector, count * self.geometry.sector_size)
        if vectored:
            self.stats.vectored_reads += 1
        attempt = 0
        while True:
            try:
                data = self.device.read(sector, count)
                break
            except TransientIOError:
                attempt += 1
                self.stats.read_retries += 1
                if attempt > RETRY_MAX_ATTEMPTS:
                    raise
                backoff = min(
                    RETRY_CAP, RETRY_BASE_DELAY * RETRY_MULTIPLIER ** (attempt - 1)
                )
                self.retry_stall_seconds += backoff
                done += backoff
                self._busy_until = done
        self.last_read_done = done
        self.stats.record(False, len(data), sync, tier.value, done - start)
        if self._obs_enabled:
            self._m_busy.add(done - start)
            self._m_request_bytes.observe(len(data))
        if demand == 0:
            done = issue  # read ahead only: the caller goes on at once
        elif demand is not None and demand < count:
            # The caller resumes once its own sectors are in.
            done -= self.geometry.transfer_time(
                (count - demand) * self.geometry.sector_size
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
        crashpoint("disk.write", sector)
        if not data:
            raise OutOfRangeError("cannot write zero bytes")
        io_span = None
        if self._trace_io:
            tracer = self.telemetry.tracer
            io_span = tracer.begin(
                "disk.write",
                parent=tracer.current_span(),
                sector=sector,
                sync=sync,
                label=label,
            )
        start, done, tier = self._schedule(sector, len(data))
        # A synchronous request advances the clock to ``done`` before this
        # method returns, so its undo record could never survive to a
        # crash — tell the device not to allocate one.
        self.device.write(sector, data, completion_time=done, durable=sync)
        if self.write_observer is not None:
            self.write_observer(sector, len(data) // self.geometry.sector_size)
        self.stats.record(True, len(data), sync, tier.value, done - start)
        if self._obs_enabled:
            self._m_busy.add(done - start)
            self._m_request_bytes.observe(len(data))
        if sync:
            self.sync_stall_seconds += done - self.clock.now()
            self.clock.advance_to(done)
        self.device.mark_durable(self.clock.now())
        if io_span is not None:
            io_span.attrs["bytes"] = len(data)
            io_span.attrs["tier"] = tier.value
            self.telemetry.tracer.finish(io_span)
        return done

    def wait_until(self, when: float) -> None:
        """Block the caller until ``when`` on this disk's timeline (the
        arrival of a block read ahead); no-op if that has passed."""
        stall = when - self.clock.now()
        if stall > 0.0:
            self.sync_stall_seconds += stall
            self.clock.advance_to(when)
            self.device.mark_durable(self.clock.now())

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
