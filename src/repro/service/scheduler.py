"""The multi-client request scheduler.

A :class:`RequestScheduler` interleaves N deterministic client request
streams over one :class:`~repro.lfs.filesystem.LogStructuredFS`, all in
simulated time:

* Arrivals, commit windows and the background flusher are timers on the
  shared :class:`~repro.sim.clock.SimClock` (``call_at``); the FIFO
  guarantee for equal timestamps is what makes a run reproducible.
* Timer callbacks never touch the file system directly — they append
  events to a ready queue that the run loop drains one event at a
  time.  An event may advance the clock (CPU work, synchronous I/O);
  any timers that expire meanwhile simply enqueue more events, so file
  system operations are never re-entered.  This models a single-server
  system: requests that become ready while another is being serviced
  run late, and that queueing delay is charged to their latency
  (``arrival`` is the scheduled instant, not the execution instant).
* ``fsync`` requests are handed to the :class:`~repro.service.
  committer.GroupCommitter`; everything else completes synchronously.
* Every request passes the :class:`~repro.service.admission.
  AdmissionController` first — rejected requests retry after a
  backoff, throttled writers pay for a cleaning pass.

Each client owns a private directory (``/cN``) and a bounded working
set of files, so streams never conflict on paths and a run's on-disk
image is a pure function of the seed.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import MediaError, NoSpaceError, ReadOnlyFSError
from repro.lfs.filesystem import LogStructuredFS
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.context import NULL_TRACE_CONTEXT, RequestTracer
from repro.obs.registry import DEFAULT_TIME_BUCKETS
from repro.service.admission import AdmissionController, Decision
from repro.service.committer import GroupCommitter
from repro.rig import new_rig
from repro.service.config import SERVICE_LFS_CONFIG, ServiceConfig
from repro.service.stats import REQUEST_KINDS, ServiceStats
from repro.units import MIB

MAX_FILE_BYTES = 1 * MIB
"""Appends wrap to offset 0 past this size, bounding working files."""


class Request:
    """One client request travelling through admission → execution."""

    __slots__ = ("client_id", "kind", "arrival", "throttles", "ctx", "rid")

    def __init__(
        self, client_id: int, kind: str, arrival: float, rid: int = 0
    ) -> None:
        self.client_id = client_id
        self.kind = kind
        self.arrival = arrival
        self.throttles = 0
        self.ctx = NULL_TRACE_CONTEXT
        self.rid = rid


class ClientStream:
    """A deterministic request stream with a private working set."""

    def __init__(self, client_id: int, config: ServiceConfig) -> None:
        self.client_id = client_id
        self.config = config
        self.rng = random.Random((config.seed << 16) ^ (client_id * 0x9E37))
        self.directory = f"/c{client_id}"
        self.files: List[str] = []
        self.last_written: Optional[str] = None
        self.name_counter = 0
        self.issued = 0
        self.completed = 0
        self.inflight = 0
        self._kinds = list(config.mix.keys())
        self._weights = [config.mix[kind] for kind in self._kinds]

    def think(self) -> float:
        return self.rng.expovariate(1.0 / self.config.think_mean)

    def next_kind(self) -> str:
        kind = self.rng.choices(self._kinds, weights=self._weights)[0]
        # Degrade gracefully while the working set is tiny: everything
        # that needs an existing file becomes a write.
        if kind == "delete" and (
            len(self.files) <= self.config.min_files_per_client
        ):
            return "write"
        if kind in ("read", "open") and not self.files:
            return "write"
        if kind == "fsync" and self.last_written is None:
            return "write"
        return kind

    def new_path(self) -> str:
        self.name_counter += 1
        return f"{self.directory}/f{self.name_counter}"

    def pick_file(self) -> str:
        return self.rng.choice(self.files)

    def write_payload(self) -> bytes:
        lo, hi = self.config.write_min_bytes, self.config.write_max_bytes
        if hi > lo:
            # Log-uniform across the band, like real file-size mixes.
            size = int(
                math.exp(
                    self.rng.uniform(math.log(lo), math.log(hi))
                )
            )
            size = max(lo, min(hi, size))
        else:
            size = lo
        fill = (self.client_id * 31 + self.issued) % 256
        return bytes([fill]) * size


class RequestScheduler:
    """Runs N client streams to completion over one file system."""

    def __init__(
        self,
        fs: LogStructuredFS,
        config: ServiceConfig,
        telemetry: Optional[Telemetry] = None,
        clients: Optional[List[ClientStream]] = None,
        ledger=None,
        ready: Optional[Deque[Callable[[], None]]] = None,
    ) -> None:
        """``clients`` resumes existing streams (rng, issued/completed
        counts and working sets intact) against ``fs`` — the chaos
        campaign uses this to continue surviving clients on a recovered
        image.  ``ledger`` is an optional durability-contract recorder
        (see :class:`repro.faults.chaos.DurabilityLedger`) notified of
        every mutation and every client-visible fsync ack.  ``ready``
        lets several schedulers on one clock share a single event queue
        (a cluster migration group drives a source and a target shard in
        one loop)."""
        self.fs = fs
        self.clock = fs.clock
        self.config = config
        self.stats = ServiceStats()
        self.telemetry = telemetry or NULL_TELEMETRY
        self.tracing = RequestTracer(self.telemetry, fs)
        self.ledger = ledger
        self.admission = AdmissionController(
            fs, config, self.stats, telemetry=self.telemetry
        )
        self.committer = GroupCommitter(
            fs, config, self.stats, self._enqueue, telemetry=self.telemetry
        )
        if ledger is not None:
            self.committer.on_durable = ledger.note_barrier
        self.clients = (
            clients
            if clients is not None
            else [ClientStream(i, config) for i in range(config.num_clients)]
        )
        self._clients_by_id = {
            client.client_id: client for client in self.clients
        }
        for client in self.clients:
            # On a resumed rig the directory usually already exists (and
            # a degraded volume could not create it anyway).
            if not fs.degraded and not fs.exists(client.directory):
                fs.mkdir(client.directory)
        self._ready: Deque[Callable[[], None]] = (
            ready if ready is not None else deque()
        )
        self._active_clients = sum(
            1
            for client in self.clients
            if client.issued < config.requests_per_client
        )
        # Cluster-migration state: frozen clients park their next
        # request instead of executing; departed clients forward late
        # ticks to the scheduler that adopted them.
        self._frozen: set = set()
        self._parked: List[Tuple[Request, float]] = []
        self._migrated: Dict[int, "RequestScheduler"] = {}
        self._flusher_live = False
        self._next_rid = 0
        self._run_span_cm = None
        self._run_span = None
        obs = self.telemetry
        self._m_requests = {
            kind: obs.counter("service.requests", kind=kind)
            for kind in REQUEST_KINDS
        }
        self._m_completed = obs.counter("service.completed")
        self._m_no_space = obs.counter("service.no_space_failures")
        self._m_degraded_failures = obs.counter("service.degraded_failures")
        self._h_latency = {
            kind: obs.histogram(
                "service.latency_seconds",
                buckets=DEFAULT_TIME_BUCKETS,
                kind=kind,
            )
            for kind in REQUEST_KINDS
        }

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _enqueue(self, event: Callable[[], None]) -> None:
        self._ready.append(event)

    def _post_at(self, t: float, event: Callable[[], None]) -> None:
        """Schedule ``event`` to join the ready queue at time ``t``."""
        self.clock.call_at(t, lambda: self._ready.append(event))

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def start(self, open_run_span: bool = True) -> None:
        """Post the initial client ticks and the background flusher.

        ``run`` calls this and then drains the queue itself; a cluster
        group driver calls it for every member scheduler and runs one
        combined loop over the shared ready queue (passing
        ``open_run_span=False`` — member spans would nest arbitrarily
        on the shared tracer stack)."""
        self.stats.started = self.clock.now()
        if open_run_span:
            self._run_span_cm = self.telemetry.span(
                "service.run", clients=self.config.num_clients
            )
            self._run_span = self._run_span_cm.__enter__()
        for client in self.clients:
            if client.issued >= self.config.requests_per_client:
                continue  # resumed stream that already finished
            self._post_at(
                self.clock.now() + client.think(),
                lambda client=client: self._tick(client),
            )
        self._arm_flusher()

    def finish(self) -> ServiceStats:
        """Close the run span and stamp the finish time."""
        if self._run_span_cm is not None:
            self._run_span.set_attr("completed", self.stats.completed)
            self._run_span_cm.__exit__(None, None, None)
            self._run_span_cm = None
            self._run_span = None
        self.stats.finished = self.clock.now()
        return self.stats

    def run(self) -> ServiceStats:
        self.start()
        while self._ready or self.clock.pending_timers():
            if self._ready:
                self._ready.popleft()()
                continue
            next_at = self.clock.next_timer_at()
            assert next_at is not None
            self.clock.advance_to(next_at)
        return self.finish()

    # ------------------------------------------------------------------
    # Client lifecycle
    # ------------------------------------------------------------------

    def _tick(self, client: ClientStream) -> None:
        owner = self._migrated.get(client.client_id)
        if owner is not None:
            # A tick scheduled before the cutover fired after it: the
            # client now lives on another shard; hand the tick over
            # (same clock, same shared ready queue — only the serving
            # file system changes).
            owner._tick(client)
            return
        kind = client.next_kind()
        client.issued += 1
        request = Request(
            client.client_id, kind, self.clock.now(), rid=self._next_rid
        )
        self._next_rid += 1
        if client.client_id in self._frozen:
            # The client's shard is mid-migration: park the request.
            # It is adopted (and its redirect wait charged) by the
            # target scheduler at the cutover barrier.
            self._parked.append((request, self.clock.now()))
            return
        client.inflight += 1
        request.ctx = self.tracing.context(client.client_id, kind)
        self.stats.note_submitted(kind)
        self._m_requests[kind].inc()
        self._submit(request)

    def _submit(self, request: Request) -> None:
        request.ctx.end_wait()  # closes a pending retry backoff, if any
        decision = self.admission.try_admit(request.kind, request.throttles)
        if decision is Decision.REJECT:
            # Bounded queue is full: retry after a backoff.  The
            # arrival timestamp is preserved, so the wait shows up in
            # this request's latency, not in a dropped-request count.
            request.ctx.begin_wait(
                "service.admission_retry", "admission_retry"
            )
            self._post_at(
                self.clock.now() + self.config.retry_backoff,
                lambda: self._submit(request),
            )
            return
        if decision is Decision.REJECT_DEGRADED:
            self._abandon(request)
            return
        if decision is Decision.THROTTLE:
            request.throttles += 1
            self.admission.pay_throttle(request.ctx)  # advances sim time
            self._enqueue(lambda: self._submit(request))
            return
        self._execute(request)

    def _abandon(self, request: Request) -> None:
        """Drop a write the degraded volume can never serve.

        Unlike a ``REJECT`` (queue full), no retry can help, so the
        request ends here — never admitted, so no ``release()`` — and
        the client moves on to its next request (its reads keep being
        served).
        """
        client = self._client(request)
        client.inflight -= 1
        request.ctx.finish(self.clock.now() - request.arrival)
        if client.issued < self.config.requests_per_client:
            self._post_at(
                self.clock.now() + client.think(),
                lambda: self._tick(client),
            )
        else:
            self._active_clients -= 1

    def _client(self, request: Request) -> ClientStream:
        return self._clients_by_id[request.client_id]

    def _execute(self, request: Request) -> None:
        client = self._client(request)
        request.ctx.activate()
        try:
            if request.kind == "fsync":
                handle = self.fs.open(client.last_written)
                request.ctx.deactivate()
                request.ctx.begin_wait("service.commit_wait", "commit_wait")
                self.committer.request_commit(
                    handle,
                    lambda: self._finish_fsync(request, handle),
                    ctx=request.ctx,
                    fail=lambda: self._fail_fsync(request, handle),
                )
                return  # completes when the commit window closes
            if request.kind == "write":
                self._do_write(client)
            elif request.kind == "read":
                with self.fs.open(client.pick_file()) as handle:
                    handle.read()
            elif request.kind == "open":
                self.fs.open(client.pick_file()).close()
            elif request.kind == "delete":
                path = client.pick_file()
                try:
                    self.fs.unlink(path)
                finally:
                    # Same finally-note rationale as _do_write: an
                    # escaping NoSpaceError/crash fires post-mutation.
                    if self.ledger is not None:
                        self.ledger.note_unlink(path)
                client.files.remove(path)
                if client.last_written == path:
                    client.last_written = None
        except NoSpaceError:
            # A force-admitted write on a disk cleaning cannot help.
            # The request fails rather than wedging the run; the image
            # stays consistent (the failed flush left cache state
            # intact) and the failure is visible in the report.
            self.stats.dropped += 1
            self._m_no_space.inc()
        except ReadOnlyFSError:
            # The volume degraded between admission and execution (the
            # cleaner can trip the quarantine budget from inside another
            # request's flush).  Admission sheds subsequent writes; this
            # in-flight one fails politely.
            self.stats.degraded_failures += 1
            self._m_degraded_failures.inc()
        except MediaError:
            # Unrecoverable media under a read: the data is gone, which
            # is detection, not a scheduler failure.  The request is
            # dropped and the damage shows up in the fault counters.
            self.stats.dropped += 1
        self._complete(request)

    def _do_write(self, client: ClientStream) -> None:
        # Ledger notes are taken in ``finally`` blocks on purpose: the
        # whole mutation enters the cache before any write-back runs, so
        # every exception that can escape these calls (NoSpaceError from
        # the flush, an injected crash) fires *after* the client-visible
        # state changed — the mutation must be on the books either way.
        data = client.write_payload()
        create = len(client.files) < self.config.min_files_per_client or (
            len(client.files) < self.config.max_files_per_client
            and client.rng.random() < 0.25
        )
        if create:
            path = client.new_path()
            handle = self.fs.create(path)
            if self.ledger is not None:
                self.ledger.note_create(path, handle.inum)
            with handle:
                try:
                    handle.write(data)
                finally:
                    if self.ledger is not None:
                        self.ledger.note_write(path, 0, data)
            client.files.append(path)
        else:
            path = client.pick_file()
            with self.fs.open(path) as handle:
                offset = handle.size
                if offset + len(data) > MAX_FILE_BYTES:
                    offset = 0
                try:
                    handle.pwrite(offset, data)
                finally:
                    if self.ledger is not None:
                        self.ledger.note_write(path, offset, data)
        client.last_written = path

    def _finish_fsync(self, request: Request, handle) -> None:
        request.ctx.activate()
        if self.ledger is not None:
            self.ledger.note_ack(
                handle.path, handle.inum, self.clock.now(), request.ctx
            )
        handle.close()
        self._complete(request)

    def _fail_fsync(self, request: Request, handle) -> None:
        """Complete an fsync whose flush was refused (degraded volume).

        The client is *not* acked — nothing became durable — but the
        admitted request must still release its admission slot and let
        the stream continue.
        """
        request.ctx.activate()
        handle.close()
        self.stats.degraded_failures += 1
        self._m_degraded_failures.inc()
        self._complete(request)

    def _complete(self, request: Request) -> None:
        self.admission.release()
        client = self._client(request)
        client.completed += 1
        client.inflight -= 1
        latency = self.clock.now() - request.arrival
        request.ctx.deactivate()
        request.ctx.finish(latency)
        self.stats.note_completed(request.kind, latency)
        self._m_completed.inc()
        self._h_latency[request.kind].observe(latency)
        if client.issued < self.config.requests_per_client:
            self._post_at(
                self.clock.now() + client.think(),
                lambda: self._tick(client),
            )
        else:
            self._active_clients -= 1

    # ------------------------------------------------------------------
    # Background flusher (the age trigger, §4.3.5's 30-second rule)
    # ------------------------------------------------------------------

    def _background_flush(self) -> None:
        """Flush dirty blocks past their age threshold.

        Clients only drive write-back through the cache-full trigger
        and fsync; this periodic event services the age trigger via
        :meth:`~repro.cache.writeback.WritebackMonitor.
        next_age_deadline`, like the kernel's delayed-write flusher.
        It stops rescheduling once every client has finished, which is
        what lets the run loop terminate (a later ``adopt_client`` on an
        idle shard re-arms it).
        """
        deadline = self.fs.monitor.next_age_deadline()
        if deadline is not None and deadline <= self.clock.now():
            from repro.cache.writeback import WritebackReason

            self.fs.monitor.note_explicit(WritebackReason.AGE)
            self.fs.flush_log()
            self.stats.background_flushes += 1
        if self._active_clients > 0:
            self._post_at(
                self.clock.now() + self.config.flusher_period,
                self._background_flush,
            )
        else:
            self._flusher_live = False

    def _arm_flusher(self) -> None:
        self._flusher_live = True
        self._post_at(
            self.clock.now() + self.config.flusher_period,
            self._background_flush,
        )

    # ------------------------------------------------------------------
    # Cluster-migration hooks (see repro.cluster.migrate)
    # ------------------------------------------------------------------

    def freeze_client(self, client_id: int) -> None:
        """Stop executing ``client_id``'s new requests; park them.

        The client's already-submitted requests keep running — the
        migrator waits for :meth:`client_inflight` to drain before
        copying, so the source image is quiescent for this client."""
        self._frozen.add(client_id)

    def client_inflight(self, client_id: int) -> int:
        return self._clients_by_id[client_id].inflight

    def release_client(
        self, client_id: int, target: "RequestScheduler"
    ) -> Tuple[ClientStream, List[Tuple[Request, float]]]:
        """Hand a frozen, quiesced client over to ``target``.

        Returns the stream plus its parked ``(request, parked_at)``
        entries.  Late ticks still scheduled against this scheduler are
        forwarded to ``target`` when they fire (``_tick``'s first
        check), so no request is lost across the cutover."""
        client = self._clients_by_id.pop(client_id)
        self.clients.remove(client)
        self._frozen.discard(client_id)
        self._migrated[client_id] = target
        parked = [
            entry for entry in self._parked if entry[0].client_id == client_id
        ]
        self._parked = [
            entry for entry in self._parked if entry[0].client_id != client_id
        ]
        if client.issued < self.config.requests_per_client or parked:
            # Still mid-stream from this scheduler's point of view: its
            # completion path will never fire here, so account for the
            # departure now (this is what lets the source's flusher and
            # run loop wind down).
            self._active_clients -= 1
        return client, parked

    def adopt_client(
        self,
        client: ClientStream,
        parked: List[Tuple[Request, float]],
    ) -> None:
        """Continue a migrated stream on this scheduler.

        Parked requests are resubmitted with their original arrival
        timestamps; the wait since they parked is charged to the
        ``migration_redirect`` latency component, so the cutover stall
        is visible in the attribution report rather than smeared into
        queueing."""
        self.clients.append(client)
        self._clients_by_id[client.client_id] = client
        if not self.fs.degraded and not self.fs.exists(client.directory):
            self.fs.mkdir(client.directory)
        if client.issued < self.config.requests_per_client or parked:
            self._active_clients += 1
            if not self._flusher_live:
                self._arm_flusher()
        now = self.clock.now()
        for request, parked_at in parked:
            request.ctx = self.tracing.context(client.client_id, request.kind)
            request.ctx.charge("migration_redirect", now - parked_at)
            self.stats.note_submitted(request.kind)
            self._m_requests[request.kind].inc()
            client.inflight += 1
            self._enqueue(lambda request=request: self._submit(request))


# ----------------------------------------------------------------------
# High-level entry points
# ----------------------------------------------------------------------


def serviceable_bytes(fs: LogStructuredFS) -> int:
    """Capacity the service can fill while leaving the cleaner room:
    everything beyond the writer's hard reserve and the clean-segment
    low water."""
    headroom = (
        fs.segments.reserve_segments + fs.config.clean_low_water
    )
    segments = max(0, fs.layout.num_segments - headroom)
    return segments * fs.config.segment_size


def prefill(
    fs: LogStructuredFS, config: ServiceConfig
) -> int:
    """Load the log to ``fill_fraction`` of serviceable capacity.

    Files are written through the normal write path (so the log wraps
    and cleans exactly as it would in production) and every
    ``fragment_every``-th file is deleted, leaving the fragmented
    segments that make cleaning — and therefore backpressure — real.
    Returns the live bytes on the device after the fill.
    """
    if config.fill_fraction <= 0:
        return fs.live_data_bytes()
    target = int(config.fill_fraction * serviceable_bytes(fs))
    chunk = 64 * fs.config.block_size  # 256 KiB at the default 4 KiB
    rng = random.Random(config.seed ^ 0xF111)
    index = 0
    while fs.live_data_bytes() < target:
        index += 1
        path = f"/fill{index}"
        fill = bytes([rng.randrange(256)]) * chunk
        fs.write_file(path, fill)
        if config.fragment_every and index % config.fragment_every == 0:
            fs.unlink(path)
    fs.checkpoint()
    return fs.live_data_bytes()


def run_service(
    fs: LogStructuredFS,
    config: ServiceConfig,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[ServiceStats, RequestScheduler]:
    """Pre-fill (if configured) and run the full service simulation."""
    prefill(fs, config)
    scheduler = RequestScheduler(fs, config, telemetry=telemetry)
    stats = scheduler.run()
    return stats, scheduler


def simulate_service(
    config: ServiceConfig,
    total_bytes: int = 64 * MIB,
    lfs_config=None,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[ServiceStats, LogStructuredFS]:
    """Build a fresh rig, serve ``config``, checkpoint, and return it.

    The returned file system is still mounted (callers can inspect
    cleaner stats or unmount and save the image); its on-disk state has
    been checkpointed so the image verifies.
    """
    fs = new_rig(
        "lfs",
        total_bytes=total_bytes,
        lfs_config=lfs_config or SERVICE_LFS_CONFIG,
        telemetry=telemetry,
        service=config,
    ).fs
    stats, _scheduler = run_service(fs, config, telemetry=telemetry)
    fs.checkpoint()
    fs.disk.drain()
    return stats, fs
