"""Live shard migration: move a shard's clients to another volume.

A :class:`ShardMigrator` rebalances one source shard onto one target
shard *while both keep serving*, as an event-driven state machine on
the migration group's shared clock:

``PENDING → FREEZING → QUIESCING → DRAINING → COPYING → CUTOVER →
RECLAIMING → DONE``

* **Freeze** (at ``spec.at``): every moving client is frozen on the
  source scheduler — new requests park instead of executing; requests
  already admitted keep running.
* **Quiesce**: poll until the moving clients' in-flight count drains
  to zero, so the source image is stable for the copy.
* **Drain window**: wait :data:`DRAIN_WINDOW` simulated seconds so
  frozen clients' pending ticks land in the parked state (this is what
  makes the ``migration_redirect`` latency component measurable).
* **Copy**: read each live file out of the source (the same
  read-live-blocks discipline as the cleaner's copy-out path) and
  replay it onto the target volume, then checkpoint the target so the
  moved data is durable *before* any client is handed over.
* **Cutover**: one event, one simulated instant — the client handover
  (:meth:`~repro.service.scheduler.RequestScheduler.release_client` /
  :meth:`adopt_client`) and the parked-request resubmission all happen
  between two events on the shared clock, so no request can observe a
  half-moved client.  Late ticks still scheduled on the source are
  forwarded to the target when they fire.
* **Reclaim**: the source unlinks the moved files and runs a cleaning
  pass — reclamation rides the cleaner's normal copy-out machinery —
  then checkpoints, leaving a verifiable source image.

Copy traffic and cutover stalls are first-class telemetry: the
``cluster.*`` counters below, ``cluster.migrate``/``cluster.cutover``
spans, and the per-request ``migration_redirect`` attribution
component.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.cluster.config import MigrationSpec
from repro.obs import NULL_TELEMETRY
from repro.service.scheduler import RequestScheduler

QUIESCE_POLL = 0.002
"""Seconds between in-flight drain checks while quiescing."""

DRAIN_WINDOW = 0.02
"""Seconds the frozen clients are left to park their next request
after the in-flight drain, before the copy starts.  This window is what
makes the ``migration_redirect`` latency component observable in short
runs."""


class ShardMigrator:
    """Executes one :class:`MigrationSpec` inside a migration group."""

    def __init__(
        self,
        spec: MigrationSpec,
        source: RequestScheduler,
        target: RequestScheduler,
        telemetry=None,
    ) -> None:
        self.spec = spec
        self.source = source
        self.target = target
        self.clock = source.clock
        self.telemetry = telemetry or NULL_TELEMETRY
        self.state = "PENDING"
        self.moving: List[int] = []
        self.summary: Dict[str, Any] = {
            "source": spec.source,
            "target": spec.target,
            "at": spec.at,
            "clients": 0,
            "files": 0,
            "bytes": 0,
            "redirected": 0,
            "started": 0.0,
            "cutover": 0.0,
        }
        obs = self.telemetry
        self._m_migrations = obs.counter("cluster.migrations")
        self._m_bytes = obs.counter("cluster.migrated_bytes")
        self._m_files = obs.counter("cluster.migrated_files")
        self._m_redirected = obs.counter("cluster.redirected_requests")
        self._m_flips = obs.counter("cluster.routing_flips")
        self._span = None

    # ------------------------------------------------------------------

    def arm(self) -> None:
        """Schedule the freeze ``spec.at`` seconds from now.

        ``at`` is relative to serving start, not absolute: volume
        formatting has already consumed simulated time on the shared
        clock by the time the run loop starts.  ``at`` may be 0: the
        freeze then runs after the events already queued for now.
        """
        self.clock.call_at(self.clock.now() + self.spec.at, self._freeze)

    def _freeze(self) -> None:
        self.state = "FREEZING"
        self.summary["started"] = self.clock.now()
        self._span = self.telemetry.begin(
            "cluster.migrate",
            source=self.spec.source,
            target=self.spec.target,
        )
        self.moving = sorted(
            client.client_id for client in self.source.clients
        )
        self.summary["clients"] = len(self.moving)
        for cid in self.moving:
            self.source.freeze_client(cid)
        self.state = "QUIESCING"
        self._check_quiesce()

    def _check_quiesce(self) -> None:
        inflight = sum(
            self.source.client_inflight(cid) for cid in self.moving
        )
        if inflight > 0:
            self.clock.call_at(
                self.clock.now() + QUIESCE_POLL, self._check_quiesce
            )
            return
        self.state = "DRAINING"
        self.clock.call_at(self.clock.now() + DRAIN_WINDOW, self._copy)

    def _copy(self) -> None:
        self.state = "COPYING"
        src_fs, dst_fs = self.source.fs, self.target.fs
        for cid in self.moving:
            directory = f"/c{cid}"
            if not src_fs.exists(directory):
                continue
            if not dst_fs.exists(directory):
                dst_fs.mkdir(directory)
            for name in sorted(src_fs.listdir(directory)):
                path = f"{directory}/{name}"
                data = src_fs.read_file(path)
                dst_fs.write_file(path, data)
                self.summary["files"] += 1
                self.summary["bytes"] += len(data)
        # The moved data must be durable on the target before the
        # handover — a post-cutover target crash may not lose files the
        # source already reclaimed.
        dst_fs.checkpoint()
        self.clock.call_at(self.clock.now(), self._cutover)

    def _cutover(self) -> None:
        self.state = "CUTOVER"
        with self.telemetry.span(
            "cluster.cutover",
            source=self.spec.source,
            target=self.spec.target,
        ):
            self._m_flips.inc()
            redirected = 0
            for cid in self.moving:
                client, parked = self.source.release_client(
                    cid, self.target
                )
                self.target.adopt_client(client, parked)
                redirected += len(parked)
        self.summary["cutover"] = self.clock.now()
        self.summary["redirected"] = redirected
        self._m_migrations.inc()
        self._m_files.inc(self.summary["files"])
        self._m_bytes.inc(self.summary["bytes"])
        self._m_redirected.inc(redirected)
        self.clock.call_at(self.clock.now(), self._reclaim)

    def _reclaim(self) -> None:
        self.state = "RECLAIMING"
        src_fs = self.source.fs
        for cid in self.moving:
            directory = f"/c{cid}"
            if not src_fs.exists(directory):
                continue
            for name in sorted(src_fs.listdir(directory)):
                src_fs.unlink(f"{directory}/{name}")
            src_fs.rmdir(directory)
        # Reclamation rides the cleaner: the unlinks left dead segments
        # behind, and a normal cleaning pass compacts them out.
        src_fs.clean_now()
        src_fs.checkpoint()
        if self._span is not None:
            self._span.attrs["bytes"] = self.summary["bytes"]
            self._span.attrs["files"] = self.summary["files"]
            self.telemetry.finish(self._span)
            self._span = None
        self.state = "DONE"


__all__ = ["DRAIN_WINDOW", "ShardMigrator", "QUIESCE_POLL"]
