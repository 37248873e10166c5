"""Seeded crash campaigns: the trial runner ``repro crashtest`` and
``repro chaos`` share, and crashtest's crash+corruption trial.

Every trial of either campaign is a :class:`SeededTrial`: one
``random.Random`` per (campaign, seed, trial) draws its fault config and
injector seed, its rig is an LFS on a :class:`FaultyDevice`, and one
classifier records how its body ended.  :func:`run_in_order` runs the
trials and logs them in trial order, byte-identically for any ``jobs``.

A crashtest trial runs a seeded random workload, power-fails it
mid-activity (tearing in-flight writes, flipping bits, growing bad
sectors), remounts, exercises the cleaner and verifies the image with
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
from typing import Callable, Dict, Iterable, List, Optional

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


class SeededTrial:
    """One trial's seeded prologue, its faulty rig, and its ending.

    Trial ``trial`` of campaign ``name`` with seed ``seed`` draws its
    fault config, then its injector's seed, from one ``random.Random``;
    the rest of :attr:`rng` belongs to the trial body.
    """

    def __init__(
        self,
        name: str,
        trial: int,
        seed: int,
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
        self.rig.fs.crash()
        self.rig.clock.cancel_all_timers()
        self.device.revive()
        return LogStructuredFS.mount(
            self.rig.disk,
            self.rig.cpu,
            self.lfs_config,
            telemetry=self.telemetry,
        )

    def run(self, result, body: Callable[[], None], detected: bool = False):
        """Run ``body``, classify how it ended on ``result``, attach the
        injector's totals and return ``result``.  An escaping exception
        is *unhandled*, except that a typed :class:`ReproError` is
        *detected* damage when ``detected`` (crashtest; a chaos rig
        must degrade politely, never abort)."""
        try:
            body()
        except Exception as exc:  # the campaigns' one outcome classifier
            result.detail = f"{type(exc).__name__}: {exc}"
            if detected and isinstance(exc, ReproError):
                result.outcome = "detected"
                result.signals.append(f"typed-error {type(exc).__name__}")
            else:
                result.outcome = "unhandled"
        result.faults = self.injector.totals()
        return result


def run_in_order(
    trial: Callable[..., object],
    trials: int,
    task: Dict[str, object],
    telemetry: Optional[Telemetry],
    jobs: int,
    log: Optional[Callable[[str], None]],
) -> list:
    """Run ``trial(trial=i, **task)`` for each of ``trials`` trials,
    ``jobs`` at a time, and log each result's ``summary()``.  Results,
    log and merged telemetry come in trial order (:func:`~repro.harness.
    parallel.run_trials`), byte-identical for any ``jobs``."""
    from repro.harness.parallel import run_trials

    tasks = [dict(trial=i, **task) for i in range(trials)]
    results = run_trials(trial, tasks, telemetry=telemetry, jobs=jobs)
    if log is not None:
        for result in results:
            log(f"trial {result.trial:3d}: {result.summary()}")
    return results


def fault_lines(trials: Iterable, *rows: Iterable[str]) -> List[str]:
    """A report's fault totals over ``trials``: one line per row of
    kinds, e.g. ``  torn writes 3, bit flips 2``."""
    totals = dict.fromkeys(FAULT_KINDS, 0)
    for trial in trials:
        for kind, count in trial.faults.items():
            totals[kind] += count
    return ["fault injection totals:"] + [
        "  " + ", ".join(f"{kind.replace('_', ' ')} {totals[kind]}" for kind in row)
        for row in rows
    ]


# ----------------------------------------------------------------------
# The crash+corruption trial (``repro crashtest``)
# ----------------------------------------------------------------------


@dataclass
class TrialResult:
    """What one crash+corruption trial observed."""

    trial: int
    outcome: str  # "clean" | "detected" | "mount-failed" | "unhandled"
    config: FaultConfig
    signals: List[str] = field(default_factory=list)
    detail: str = ""
    faults: Dict[str, int] = field(default_factory=dict)

    @property
    def survived(self) -> bool:
        return self.outcome != "unhandled"

    def summary(self) -> str:
        return f"{self.outcome:12s} " + ("; ".join(self.signals) or "-")


@dataclass
class CampaignReport:
    """Aggregated survival report for a whole campaign."""

    seed: int
    trials: List[TrialResult] = field(default_factory=list)

    def count(self, outcome: str) -> int:
        return sum(1 for t in self.trials if t.outcome == outcome)

    @property
    def failures(self) -> List[TrialResult]:
        return [t for t in self.trials if not t.survived]

    @property
    def survived_all(self) -> bool:
        return not self.failures

    def signal_count(self, prefix: str) -> int:
        return sum(
            1
            for t in self.trials
            if any(s.startswith(prefix) for s in t.signals)
        )

    def render(self) -> str:
        lines = [
            f"crashtest: {len(self.trials)} trials, seed {self.seed}",
            f"  clean remounts:       {self.count('clean')}",
            f"  detected & survived:  "
            f"{self.count('detected') + self.count('mount-failed')}",
            f"    checkpoint fallback:  {self.signal_count('checkpoint-fallback')}",
            f"    roll-forward damage:  {self.signal_count('roll-forward')}",
            f"    quarantined segments: {self.signal_count('quarantined')}",
            f"    verify findings:      {self.signal_count('verify-errors')}",
            f"    degraded operation:   {self.signal_count('post-mount')}",
            f"    mount failures:       {self.count('mount-failed')}",
            f"  unhandled exceptions: {len(self.failures)}",
        ]
        for t in self.failures:
            lines.append(f"    trial {t.trial}: {t.detail}")
        lines += fault_lines(self.trials, FAULT_KINDS[:3], FAULT_KINDS[3:])
        lines += [
            "survival: "
            + ("OK" if self.survived_all else "FAILED (unhandled exceptions)"),
        ]
        return "\n".join(lines)


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


def run_trial(
    trial: int,
    seed: int,
    telemetry: Optional[Telemetry] = None,
    device_bytes: int = DEFAULT_DEVICE_BYTES,
) -> TrialResult:
    """One deterministic write → fault → crash → remount → verify cycle."""
    seeded = SeededTrial(
        "crashtest", trial, seed, _random_fault_config, telemetry
    )
    result = TrialResult(
        trial=trial, outcome="clean", config=seeded.injector.config
    )
    return seeded.run(
        result,
        lambda: _execute_trial(result, seeded, device_bytes),
        detected=True,
    )


def _execute_trial(
    result: TrialResult, seeded: SeededTrial, device_bytes: int
) -> None:
    rig = seeded.boot(device_bytes, _TRIAL_CONFIG)
    _run_workload(rig.fs, seeded.rng)
    try:
        again = seeded.crash_and_remount()
    except ReproError as exc:
        result.outcome = "mount-failed"
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
    result.outcome = "detected" if result.signals else "clean"


def run_campaign(
    trials: int = 50,
    seed: int = 0,
    telemetry: Optional[Telemetry] = None,
    device_bytes: int = DEFAULT_DEVICE_BYTES,
    log=None,
    jobs: int = 1,
) -> CampaignReport:
    """Run ``trials`` independent seeded trials and aggregate the report.

    Trial *i* of seed *s* always injects the same faults, and the
    report, its log lines and the exported telemetry are byte-identical
    for any ``jobs`` (see :func:`run_in_order`).
    """
    from repro.service.config import validate_rig

    # Fail fast (with every violation listed) before forking workers:
    # a bad trial configuration would otherwise surface as N identical
    # mid-campaign crashes.
    validate_rig(None, _TRIAL_CONFIG, device_bytes=device_bytes)
    task = dict(seed=seed, device_bytes=device_bytes)
    results = run_in_order(run_trial, trials, task, telemetry, jobs, log)
    return CampaignReport(seed=seed, trials=results)
