"""Crash-under-load chaos campaign (the ``repro chaos`` command).

Where ``repro crashtest`` crashes a single-threaded workload, chaos
crashes the **full service rig** — :class:`~repro.service.scheduler.
RequestScheduler` + :class:`~repro.service.admission.AdmissionController`
+ :class:`~repro.service.committer.GroupCommitter` + N client streams —
at adversarial instants, then remounts, rolls forward, and resumes the
surviving streams against the recovered image.

The teeth are the **durability contract**, checked against a
:class:`~repro.faults.model.ModelFS` after every crash+remount: every
byte a client was acked for survives, and every un-acked in-flight
mutation is fully present or fully absent.  The scheduler mirrors each
mutation into the model and the group committer raises its durable
floors at each successful ``fsync_many``.

The crash itself is a :class:`CrashPlan` armed on the named crash
points of :mod:`repro.sim.crashpoints`; the trial runs on the runner it
shares with crashtest (:mod:`repro.faults.campaign`).
"""

from __future__ import annotations

import random
from functools import partial
from typing import List, Optional

from repro.faults.campaign import SeededTrial, TrialResult
from repro.faults.injector import FaultConfig
from repro.faults.model import ModelFS
from repro.lfs.filesystem import LogStructuredFS
from repro.lfs.verify import verify_lfs
from repro.obs import Telemetry
from repro.service.config import SERVICE_LFS_CONFIG, ServiceConfig, validate_rig
from repro.service.scheduler import (
    ClientStream,
    RequestScheduler,
    prefill,
    serviceable_bytes,
)
from repro.sim.crashpoints import armed
from repro.units import MIB

DEFAULT_CHAOS_DEVICE_BYTES = 32 * MIB

INSTANTS = ("mid-clean", "mid-commit", "throttle-payback", "high-fill")
"""The four adversarial crash instants; trial *i* exercises
``INSTANTS[i % 4]``, so any campaign of >= 4 trials covers all four."""

HIGH_FILL_FRACTION = 0.90
"""The high-fill instant fires once live data crosses this fraction of
serviceable capacity."""

_TORN_PROBS = (0.0, 0.5, 1.0)
_TRANSIENT_PROBS = (0.0, 0.0, 0.01)

class CrashSignal(Exception):
    """Raised by an armed :class:`CrashPlan` at the chosen instant.

    Deliberately *not* a :class:`~repro.errors.ReproError`: nothing in
    the storage stack catches it, so it unwinds cleanly out of
    ``scheduler.run()`` to the trial driver, which then power-fails the
    device.  (In-memory state left mid-operation does not matter — the
    crash discards all of it; only the device image survives.)
    """


# ----------------------------------------------------------------------
# Crash instants
# ----------------------------------------------------------------------

# instant: (the crash point whose N-th pass starts it, N's range, the
# range of the disk-write countdown that pass arms -- None: crash at
# the pass itself -- and the crash point that ends the countdown's
# window).  high-fill crashes instead at the first disk write once live
# data reaches HIGH_FILL_FRACTION of serviceable capacity.
_INSTANT_TABLE = {
    "mid-clean": ("cleaner.relocate", (1, 4), None, None),
    "mid-commit": ("fsync.begin", (1, 4), (1, 5), "fsync.durable"),
    "throttle-payback": ("throttle.begin", (1, 3), (1, 6), "throttle.paid"),
    "high-fill": (None, None, None, None),
}

_SAYS = {
    "cleaner.relocate": "relocation #{n} (segment {at})",
    "disk.write": "power fail before disk write to sector {at}",
    # The batch flushed in fewer writes than the countdown: crash in
    # the window after durability, before the acks.
    "fsync.durable": "batch #{n} durable, acks never delivered",
    # The paid pass wrote less than the countdown: crash at payback
    # completion, before the writer re-submits.
    "throttle.paid": "pass #{n} ended",
    "high-fill": "{at} live bytes >= {threshold} ({share:.0%} of serviceable)",
}


class CrashPlan:
    """One trial's crash instant: the hook armed on the crash points
    (:mod:`repro.sim.crashpoints`) while the rig runs.

    The instant's rng draws happen here, N before the countdown; the
    hook counts passes and raises :class:`CrashSignal` at the chosen
    moment, once.
    """

    def __init__(
        self, instant: str, rng: random.Random, fs: LogStructuredFS
    ) -> None:
        if instant not in _INSTANT_TABLE:
            raise ValueError(f"unknown crash instant: {instant!r}")
        self.instant = instant
        self.fs = fs
        self.fired = False
        self.fired_detail = ""
        self.starts, calls, writes, self.ends = _INSTANT_TABLE[instant]
        self.passes = 0
        self.target = rng.randrange(*calls) if calls else None
        self.writes = rng.randrange(*writes) if writes else None
        self.countdown: Optional[int] = None
        self.threshold: Optional[int] = None
        if instant == "high-fill":
            self.threshold = int(HIGH_FILL_FRACTION * serviceable_bytes(fs))

    def __call__(self, point: str, at: object) -> None:
        if self.fired:
            return
        if point == self.starts:
            self.passes += 1
            if self.passes == self.target:
                if self.writes is None:
                    self._fire(point, at)
                self.countdown = self.writes
        elif point == "disk.write":
            if self.countdown is not None:
                self.countdown -= 1
                if self.countdown <= 0:
                    self._fire(point, at)
            elif self.threshold is not None:
                live = self.fs.live_data_bytes()
                if live >= self.threshold:
                    self._fire("high-fill", live)
        elif point == self.ends and self.countdown is not None:
            self._fire(point, at)

    def _fire(self, said: str, at: object) -> None:
        self.fired = True
        self.fired_detail = f"{self.instant}: " + _SAYS[said].format(
            n=self.passes, at=at, threshold=self.threshold,
            share=HIGH_FILL_FRACTION,
        )
        raise CrashSignal(self.fired_detail)


# ----------------------------------------------------------------------
# Trials
# ----------------------------------------------------------------------


def _chaos_service_config(
    seed: int, trial: int, clients: int, requests: int, instant: str
) -> ServiceConfig:
    # Each instant needs a different amount of pressure to actually
    # occur: cleaning wants a fragmented, mostly full log and, like a
    # throttle payback, a watermark high enough that a short run
    # reaches it (at the default, writers are throttled only at the
    # file system's own floor); a group commit happens at any fill;
    # high-fill needs room to *cross* the threshold live.
    fill, watermark = {
        "mid-clean": (0.80, 6),
        "mid-commit": (0.30, 2),
        "throttle-payback": (0.85, 6),
        "high-fill": (0.88, 2),
    }[instant]
    return ServiceConfig(
        num_clients=clients,
        seed=(seed << 8) ^ trial,
        requests_per_client=requests,
        fill_fraction=fill,
        fragment_every=4,
        reserve_watermark=watermark,
    )


def _chaos_fault_config(rng: random.Random) -> FaultConfig:
    # Contract-preserving classes only: torn in-flight writes and
    # transient read noise.  Bit rot / grown bad sectors destroy acked
    # bytes; surviving those with detection is crashtest's contract.
    return FaultConfig(
        torn_write_prob=rng.choice(_TORN_PROBS),
        transient_read_prob=rng.choice(_TRANSIENT_PROBS),
    )


def _reconcile_clients(
    fs: LogStructuredFS, clients: List[ClientStream]
) -> int:
    """Align surviving client working sets with the recovered image.

    Files whose creation never became durable are forgotten; a
    ``last_written`` that did not survive is cleared (the stream's next
    fsync degrades to a write, exactly as it does on a young working
    set).  Returns how many clients still have requests to issue.
    """
    resumable = 0
    for client in clients:
        client.files = [p for p in client.files if fs.exists(p)]
        if client.last_written is not None and not fs.exists(
            client.last_written
        ):
            client.last_written = None
        if client.issued < client.config.requests_per_client:
            resumable += 1
    return resumable


def validate_chaos_rig(
    seed: int,
    clients: int = 8,
    requests_per_client: int = 80,
    device_bytes: int = DEFAULT_CHAOS_DEVICE_BYTES,
) -> None:
    """Reject a rig no chaos trial can run on (every violation listed);
    each instant has its own service config."""
    for instant in INSTANTS:
        validate_rig(
            _chaos_service_config(
                seed, 0, clients, requests_per_client, instant
            ),
            SERVICE_LFS_CONFIG,
            device_bytes=device_bytes,
        )


def run_chaos_trial(
    trial: int,
    seed: int,
    clients: int = 8,
    requests_per_client: int = 80,
    telemetry: Optional[Telemetry] = None,
    device_bytes: int = DEFAULT_CHAOS_DEVICE_BYTES,
) -> TrialResult:
    """One crash-under-load → remount → contract-check → resume cycle."""
    instant = INSTANTS[trial % len(INSTANTS)]
    seeded = SeededTrial(
        "chaos", trial, seed, instant, _chaos_fault_config, telemetry
    )
    service = _chaos_service_config(
        seed, trial, clients, requests_per_client, instant
    )
    return seeded.run(
        partial(_execute_chaos_trial, seeded, service, device_bytes)
    )


def _execute_chaos_trial(
    seeded: SeededTrial,
    service_config: ServiceConfig,
    device_bytes: int,
    result: TrialResult,
) -> None:
    telemetry = seeded.telemetry
    fs = seeded.boot(device_bytes, SERVICE_LFS_CONFIG, service_config).fs
    prefill(fs, service_config)

    model = ModelFS()
    scheduler = RequestScheduler(
        fs, service_config, telemetry=telemetry, model=model
    )
    plan = CrashPlan(result.instant, seeded.rng, fs)
    crashed = False
    with armed(plan):
        try:
            scheduler.run()
        except CrashSignal:
            crashed = True
    result.crash_detail = plan.fired_detail
    result.acked_fsyncs = len(model.acks)

    live = fs
    if crashed:
        live = seeded.crash_and_remount()
        violations = model.check(live)
        result.checks = model.checks
        if violations:
            result.violations = violations
            result.outcome = "violated"
            result.detail = (
                f"{len(violations)} durability violations after "
                f"{result.crash_detail}"
            )
            return
        model.reconcile(live)
        result.resumed_clients = _reconcile_clients(live, scheduler.clients)
        resumed = RequestScheduler(
            live,
            service_config,
            telemetry=telemetry,
            clients=scheduler.clients,
            model=model,
        )
        resumed.run()
        if live.degraded:
            result.signals.append("post-mount degraded: read-only")

    result.acked_fsyncs = len(model.acks)
    # End-of-trial: with the rig quiesced every file must read back as
    # exactly its latest state (served from cache if not yet flushed).
    final = model.check(live, require_latest=True)
    result.checks = model.checks
    if final:
        result.violations = final
        result.outcome = "violated"
        result.detail = f"{len(final)} end-of-trial state mismatches"
        return
    live.unmount()
    verify = verify_lfs(seeded.device)
    if verify.errors:
        result.violations = [f"image-verify: {e}" for e in verify.errors]
        result.outcome = "violated"
        result.detail = (
            f"{len(verify.errors)} image verify errors after clean unmount"
        )
