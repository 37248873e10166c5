"""Seeded crash campaigns: the one trial result, report and runner
``repro crashtest`` and ``repro chaos`` share, and crashtest's
crash+corruption trial.

Every trial of either campaign is a :class:`SeededTrial`: one
``random.Random`` per (campaign, seed, trial) draws its fault config and
injector seed, its rig is an LFS on a :class:`FaultyDevice`, and one
classifier records how its body ended in a :class:`TrialResult`.
:func:`run_campaign` validates the rig, runs the trials and gathers
them in a :class:`CampaignReport`, byte-identically for any ``jobs``.

A crashtest trial runs a seeded random workload, power-fails it at its
end (tearing in-flight writes, flipping bits, growing bad sectors),
remounts, exercises the cleaner and verifies the image with
:func:`repro.lfs.verify.verify_lfs`.  **Every trial must end in a typed,
reported state**: a clean remount, or detected damage (a checkpoint
fallback, a roll-forward stopped by damage, quarantined segments,
verify findings, or a typed mount failure when both checkpoint regions
are gone).  A trial that escapes with anything but a :class:`ReproError`
(``struct.error``, ``KeyError``, …) is *unhandled* and fails the
campaign: the regression the crashtest exists to catch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.disk.geometry import wren_iv
from repro.errors import ReproError
from repro.faults.device import FaultyDevice
from repro.faults.injector import FAULT_KINDS, FaultConfig, FaultInjector
from repro.lfs.config import LfsConfig
from repro.lfs.filesystem import LogStructuredFS
from repro.lfs.verify import verify_lfs
from repro.obs import Telemetry
from repro.rig import Rig, new_rig
from repro.units import KIB, MIB

DEFAULT_DEVICE_BYTES = 24 * MIB

_TORN_PROBS = (0.0, 0.3, 1.0)
_BIT_FLIPS = (0, 0, 1, 2, 4)
_BAD_SECTORS = (0, 0, 1, 4, 8)
_TRANSIENT_PROBS = (0.0, 0.0, 0.01, 0.05)

_TRIAL_CONFIG = LfsConfig(
    segment_size=256 * KIB,
    cache_bytes=2 * MIB,
    max_inodes=1024,
)


# ----------------------------------------------------------------------
# What every campaign trial shares
# ----------------------------------------------------------------------

OUTCOMES = ("clean", "detected", "violated", "unhandled")
"""How a trial ends: no damage seen, damage reported through a typed
channel (a signal), a durability-contract violation, or an escaped
untyped error.  The last two fail the campaign."""


@dataclass
class TrialResult:
    """What one campaign trial observed."""

    trial: int
    instant: str  # the crash instant the trial planned
    config: FaultConfig
    fired: bool = False  # whether the crash happened
    crash_detail: str = ""
    outcome: str = "clean"  # one of OUTCOMES
    signals: List[str] = field(default_factory=list)  # damage, as reported
    detail: str = ""
    checks: int = 0  # file checks against the model
    violations: List[str] = field(default_factory=list)
    acked_fsyncs: int = 0
    resumed_clients: int = 0
    faults: Dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.outcome in ("violated", "unhandled")

    def summary(self) -> str:
        fired = "crash" if self.fired else "no-crash"
        said = "; ".join(self.signals) or self.detail or self.crash_detail
        return f"{self.instant:17s} {fired:9s} {self.outcome:10s} {said or '-'}"


# A signal names detected damage by its prefix; the report counts the
# trials that carry each.
_SIGNALS = (
    ("checkpoint fallback", "checkpoint-fallback"),
    ("roll-forward damage", "roll-forward"),
    ("quarantined segments", "quarantined"),
    ("verify findings", "verify-errors"),
    ("degraded operation", "post-mount"),
    ("mount failures", "mount-failed"),
)

# What the campaign.* counters read, per trial.
_COUNTERS = {
    "campaign.trials": lambda t: 1,
    "campaign.crashes_injected": lambda t: int(t.fired),
    "campaign.contract_checks": lambda t: t.checks,
    "campaign.contract_violations": lambda t: len(t.violations),
    "campaign.resumed_clients": lambda t: t.resumed_clients,
}


@dataclass
class CampaignReport:
    """Every trial of one campaign, and the one report they print."""

    name: str
    task: Dict[str, object]  # what every trial was given
    trials: List[TrialResult] = field(default_factory=list)

    def total(self, count: Callable[[TrialResult], int]) -> int:
        return sum(count(t) for t in self.trials)

    @property
    def failures(self) -> List[TrialResult]:
        return [t for t in self.trials if t.failed]

    def render(self) -> str:
        trials = self.trials
        lines = [
            f"{self.name}: {len(trials)} trials, "
            + ", ".join(
                f"{key.replace('_', ' ')} {value}"
                for key, value in self.task.items()
            ),
            f"  crashes injected: {self.total(lambda t: t.fired)}",
        ]
        for instant in dict.fromkeys(t.instant for t in trials):
            planned = [t for t in trials if t.instant == instant]
            fired = sum(t.fired for t in planned)
            lines.append(f"    {instant + ':':18s}{fired}/{len(planned)} fired")
        lines.append("  outcomes: " + ", ".join(
            f"{outcome} {self.total(lambda t: t.outcome == outcome)}"
            for outcome in OUTCOMES
        ))
        lines.append("  signals:")
        for label, prefix in _SIGNALS:
            carried = self.total(
                lambda t: any(s.startswith(prefix) for s in t.signals)
            )
            lines.append(f"    {label + ':':22s}{carried}")
        lines += [
            f"  durability contract: {self.total(lambda t: t.checks)} file "
            f"checks, {self.total(lambda t: len(t.violations))} violations",
            f"  acked fsyncs: {self.total(lambda t: t.acked_fsyncs)}",
            f"  resumed clients: {self.total(lambda t: t.resumed_clients)}",
            f"  failed trials: {len(self.failures)}",
        ]
        for t in self.failures:
            lines.append(f"    trial {t.trial} [{t.instant}]: {t.detail}")
            for violation in t.violations:
                lines.append(f"      {violation}")
        lines.append("fault injection totals:")
        for row in (FAULT_KINDS[:3], FAULT_KINDS[3:]):
            lines.append("  " + ", ".join(
                f"{kind.replace('_', ' ')} "
                f"{self.total(lambda t: t.faults.get(kind, 0))}"
                for kind in row
            ))
        lines.append("verdict: " + ("FAILED" if self.failures else "OK"))
        return "\n".join(lines)


class SeededTrial:
    """One trial's seeded prologue, its faulty rig, and its ending.

    Trial ``trial`` of campaign ``name`` with seed ``seed`` draws its
    fault config, then its injector's seed, from one ``random.Random``;
    the rest of :attr:`rng` belongs to the trial body, which fills
    :attr:`result`.
    """

    def __init__(
        self,
        name: str,
        trial: int,
        seed: int,
        instant: str,
        draw_faults: Callable[[random.Random], FaultConfig],
        telemetry: Optional[Telemetry],
    ) -> None:
        self.rng = random.Random(f"{name}-{seed}-{trial}")
        self.injector = FaultInjector(
            draw_faults(self.rng),
            seed=self.rng.getrandbits(32),
            telemetry=telemetry,
        )
        self.telemetry = telemetry
        self.result = TrialResult(trial, instant, self.injector.config)

    def boot(
        self, device_bytes: int, lfs_config: LfsConfig, service=None
    ) -> Rig:
        """Format an LFS on a fault-injecting device of ``device_bytes``."""
        geometry = wren_iv(device_bytes)
        self.device = FaultyDevice(
            geometry.num_sectors, geometry.sector_size, injector=self.injector
        )
        self.lfs_config = lfs_config
        self.rig = new_rig(
            "lfs",
            lfs_config=lfs_config,
            geometry=geometry,
            telemetry=self.telemetry,
            device=self.device,
            service=service,
        )
        return self.rig

    def crash_and_remount(self) -> LogStructuredFS:
        """Power-fail the rig (with the injector's crash damage), bring
        the device back and mount what survived; a failed mount raises
        its typed error.  The crashed run's pending events die with it:
        none may run against the remounted volume."""
        self.result.fired = True
        self.rig.fs.crash()
        self.rig.clock.cancel_all_timers()
        self.device.revive()
        return LogStructuredFS.mount(
            self.rig.disk,
            self.rig.cpu,
            self.lfs_config,
            telemetry=self.telemetry,
        )

    def run(self, body: Callable[[TrialResult], None]) -> TrialResult:
        """Run ``body`` on :attr:`result`, attach the injector's totals
        and return it.  Any exception that escapes the body is
        *unhandled*: a body catches what it counts as detected."""
        result = self.result
        try:
            body(result)
        except Exception as exc:  # noqa: FAULT002 -- the one outcome classifier
            result.outcome = "unhandled"
            result.detail = f"{type(exc).__name__}: {exc}"
        result.faults = self.injector.totals()
        return result


def run_campaign(
    name: str,
    trial: Callable[..., TrialResult],
    validate: Callable[..., None],
    task: Dict[str, object],
    trials: int,
    telemetry: Optional[Telemetry] = None,
    jobs: int = 1,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Run ``trial(trial=i, **task)`` for each of ``trials`` trials,
    ``jobs`` at a time, log each result's ``summary()`` and report.

    ``validate(**task)`` runs first and raises, listing every
    violation, for a rig no trial could run on: checked before any
    worker forks, it is one error instead of every trial escaping with
    the same one.  Trial *i* of a seed always injects the same faults,
    and results, log and merged telemetry come in trial order
    (:func:`~repro.harness.parallel.run_trials`), byte-identical for
    any ``jobs``.
    """
    from repro.harness.parallel import run_trials

    validate(**task)
    tasks = [dict(trial=i, **task) for i in range(trials)]
    results = run_trials(trial, tasks, telemetry=telemetry, jobs=jobs)
    if log is not None:
        for result in results:
            log(f"trial {result.trial:3d}: {result.summary()}")
    report = CampaignReport(name, task, results)
    if telemetry is not None:
        for counter, count in _COUNTERS.items():
            telemetry.counter(counter, partial(report.total, count))
    return report


# ----------------------------------------------------------------------
# The crash+corruption trial (``repro crashtest``)
# ----------------------------------------------------------------------


def _random_fault_config(rng: random.Random) -> FaultConfig:
    return FaultConfig(
        torn_write_prob=rng.choice(_TORN_PROBS),
        bit_flip_sectors=rng.choice(_BIT_FLIPS),
        grow_bad_sectors=rng.choice(_BAD_SECTORS),
        transient_read_prob=rng.choice(_TRANSIENT_PROBS),
    )


def _run_workload(fs: LogStructuredFS, rng: random.Random) -> None:
    """A small randomized create/overwrite/delete mix, partially synced."""
    paths: List[str] = []
    for i in range(rng.randrange(8, 24)):
        path = f"/f{i}"
        fs.write_file(path, bytes([i & 0xFF]) * rng.randrange(512, 24_000))
        paths.append(path)
        roll = rng.random()
        if roll < 0.15:
            fs.checkpoint()
        elif roll < 0.40:
            fs.sync()
        if paths and rng.random() < 0.25:
            victim = rng.choice(paths)
            if rng.random() < 0.5:
                fs.write_file(
                    victim, bytes([0xAB]) * rng.randrange(512, 12_000)
                )
            elif fs.exists(victim):
                fs.unlink(victim)
                paths.remove(victim)
    # Leave writes *in flight* so the crash has something to tear and
    # roll back: flush pushes them to the device asynchronously, and
    # crashing without draining catches them before their completion
    # times pass.
    for i in range(rng.randrange(1, 5)):
        fs.write_file(f"/tail{i}", b"\xcd" * rng.randrange(512, 8_000))
    fs.flush_log()


def validate_trial(
    seed: int, device_bytes: int = DEFAULT_DEVICE_BYTES
) -> None:
    """Reject a device no crashtest trial can run on (every violation
    listed)."""
    from repro.service.config import validate_rig

    validate_rig(None, _TRIAL_CONFIG, device_bytes=device_bytes)


def run_trial(
    trial: int,
    seed: int,
    telemetry: Optional[Telemetry] = None,
    device_bytes: int = DEFAULT_DEVICE_BYTES,
) -> TrialResult:
    """One deterministic write → fault → crash → remount → verify cycle,
    crashing once, at the end of the workload."""
    seeded = SeededTrial(
        "crashtest",
        trial,
        seed,
        "end-of-workload",
        _random_fault_config,
        telemetry,
    )
    return seeded.run(partial(_execute_trial, seeded, device_bytes))


def _execute_trial(
    seeded: SeededTrial, device_bytes: int, result: TrialResult
) -> None:
    # A typed error is detected damage wherever it surfaces.
    try:
        _crash_and_check(seeded, device_bytes, result)
    except ReproError as exc:
        result.signals.append(f"typed-error {type(exc).__name__}")
        result.detail = f"{type(exc).__name__}: {exc}"
    result.outcome = "detected" if result.signals else "clean"


def _crash_and_check(
    seeded: SeededTrial, device_bytes: int, result: TrialResult
) -> None:
    rig = seeded.boot(device_bytes, _TRIAL_CONFIG)
    _run_workload(rig.fs, seeded.rng)
    try:
        again = seeded.crash_and_remount()
    except ReproError as exc:
        result.detail = f"{type(exc).__name__}: {exc}"
        result.signals.append("mount-failed")
        return

    if again.checkpoints.last_load_rejects:
        result.signals.append(
            f"checkpoint-fallback={again.checkpoints.last_load_rejects}"
        )
    recovery = again.last_recovery
    if recovery is not None and (
        recovery.degraded or recovery.stop_reason == "media-error"
    ):
        result.signals.append(
            f"roll-forward: stop={recovery.stop_reason} "
            f"media={recovery.media_errors} "
            f"skipped={recovery.corrupt_entries_skipped}"
        )
    # Exercise the post-recovery paths that meet damaged media: the
    # cleaner (quarantine) and an unmount flush (retries, remaps).
    try:
        if seeded.injector.bad_sectors:
            # Force a full cleaning pass (target above the current clean
            # count) so relocation has to read every dirty segment and
            # the quarantine path actually runs against the bad sectors.
            usage = again.usage
            again.clean_now(usage.clean_count() + len(usage.dirty_segments()))
        quarantined = len(again.usage.quarantined_segments())
        if quarantined:
            result.signals.append(f"quarantined={quarantined}")
        again.unmount()
    except ReproError as exc:
        result.signals.append(f"post-mount {type(exc).__name__}: {exc}")

    verify = verify_lfs(seeded.device)
    if verify.errors:
        result.signals.append(f"verify-errors={len(verify.errors)}")
