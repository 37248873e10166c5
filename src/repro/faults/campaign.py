"""Randomized crash+corruption campaign (the ``repro crashtest`` command).

Each trial builds a fresh LFS on a :class:`FaultyDevice`, runs a seeded
random workload, power-fails it mid-activity (tearing in-flight writes,
flipping bits, growing bad sectors), remounts, exercises the cleaner,
and verifies the surviving image with :func:`repro.lfs.verify.verify_lfs`.

The contract under test is the robustness guarantee of the hardened
recovery stack: **every trial must end in a typed, reported state** —

* a clean remount whose verify pass finds nothing, or
* detected corruption: a checkpoint-region fallback, a roll-forward
  scan stopped/limited by damage, quarantined segments, verify
  findings, or a typed mount failure when both checkpoint regions are
  gone.

A trial that escapes with anything other than a :class:`ReproError`
(``struct.error``, ``KeyError``, …) is recorded as *unhandled* and
fails the campaign — that is the regression the crashtest exists to
catch.  Trials are deterministic: trial *i* of campaign seed *s* always
injects the same faults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.disk.geometry import wren_iv
from repro.errors import ReproError
from repro.faults.device import FaultyDevice
from repro.faults.injector import FaultConfig, FaultInjector
from repro.lfs.config import LfsConfig
from repro.lfs.filesystem import LogStructuredFS
from repro.lfs.verify import verify_lfs
from repro.obs import Telemetry
from repro.rig import new_rig
from repro.units import KIB, MIB

DEFAULT_DEVICE_BYTES = 24 * MIB

_TORN_PROBS = (0.0, 0.3, 1.0)
_BIT_FLIPS = (0, 0, 1, 2, 4)
_BAD_SECTORS = (0, 0, 1, 4, 8)
_TRANSIENT_PROBS = (0.0, 0.0, 0.01, 0.05)


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


@dataclass
class CampaignReport:
    """Aggregated survival report for a whole campaign."""

    seed: int
    trials: List[TrialResult] = field(default_factory=list)
    torn_writes: int = 0
    bit_flips: int = 0
    bad_sectors_grown: int = 0
    media_errors: int = 0
    transient_errors: int = 0
    remaps: int = 0

    def count(self, outcome: str) -> int:
        return sum(1 for t in self.trials if t.outcome == outcome)

    @property
    def unhandled(self) -> List[TrialResult]:
        return [t for t in self.trials if not t.survived]

    @property
    def survived_all(self) -> bool:
        return not self.unhandled

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
            f"  unhandled exceptions: {len(self.unhandled)}",
        ]
        for t in self.unhandled:
            lines.append(f"    trial {t.trial}: {t.detail}")
        lines += [
            "fault injection totals:",
            f"  torn writes {self.torn_writes}, bit flips {self.bit_flips}, "
            f"bad sectors grown {self.bad_sectors_grown}",
            f"  media errors {self.media_errors}, "
            f"transient errors {self.transient_errors}, "
            f"remaps {self.remaps}",
            "survival: "
            + ("OK" if self.survived_all else "FAILED (unhandled exceptions)"),
        ]
        return "\n".join(lines)


def _trial_config() -> LfsConfig:
    return LfsConfig(
        segment_size=256 * KIB,
        cache_bytes=2 * MIB,
        max_inodes=1024,
    )


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
    rng = random.Random(f"crashtest-{seed}-{trial}")
    fault_config = _random_fault_config(rng)
    injector = FaultInjector(
        fault_config, seed=rng.getrandbits(32), telemetry=telemetry
    )
    result = TrialResult(trial=trial, outcome="clean", config=fault_config)
    try:
        _execute_trial(result, injector, rng, device_bytes, telemetry)
    except ReproError as exc:
        # A typed failure outside the classified phases still counts as
        # detected, reported degradation — not a crash of the stack.
        result.outcome = "detected"
        result.detail = f"{type(exc).__name__}: {exc}"
        result.signals.append(f"typed-error {type(exc).__name__}")
    except Exception as exc:  # the regression the campaign exists to catch
        result.outcome = "unhandled"
        result.detail = f"{type(exc).__name__}: {exc}"
    result.faults = {
        "torn_writes": injector.torn_writes,
        "bit_flips": injector.bit_flips,
        "bad_sectors_grown": injector.bad_sectors_grown,
        "media_errors": injector.media_errors,
        "transient_errors": injector.transient_errors,
        "remaps": injector.remaps,
    }
    return result


def _execute_trial(
    result: TrialResult,
    injector: FaultInjector,
    rng: random.Random,
    device_bytes: int,
    telemetry: Optional[Telemetry],
) -> None:
    geometry = wren_iv(device_bytes)
    device = FaultyDevice(
        geometry.num_sectors, geometry.sector_size, injector=injector
    )
    rig = new_rig(
        "lfs",
        lfs_config=_trial_config(),
        geometry=geometry,
        telemetry=telemetry,
        device=device,
    )
    fs, disk, cpu = rig.fs, rig.disk, rig.cpu
    _run_workload(fs, rng)
    fs.crash()
    device.revive()

    try:
        again = LogStructuredFS.mount(
            disk, cpu, _trial_config(), telemetry=telemetry
        )
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
        if injector.bad_sectors:
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

    verify = verify_lfs(device)
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

    ``jobs > 1`` farms the trials across worker processes via
    :func:`repro.harness.parallel.run_trials`.  Trial *i* of seed *s* is
    deterministic and self-contained, and aggregation (totals, log
    lines, per-trial telemetry merge) always happens in trial order, so
    the report, the rendered output and the exported telemetry are
    byte-identical for any ``jobs`` value.
    """
    from repro.harness.parallel import run_trials
    from repro.service.config import validate_rig

    # Fail fast (with every violation listed) before forking workers:
    # a bad trial configuration would otherwise surface as N identical
    # mid-campaign crashes.
    validate_rig(None, _trial_config(), device_bytes=device_bytes)
    report = CampaignReport(seed=seed)
    results = run_trials(
        run_trial,
        [
            dict(trial=trial, seed=seed, device_bytes=device_bytes)
            for trial in range(trials)
        ],
        telemetry=telemetry,
        jobs=jobs,
    )
    for trial, result in enumerate(results):
        report.trials.append(result)
        report.torn_writes += result.faults.get("torn_writes", 0)
        report.bit_flips += result.faults.get("bit_flips", 0)
        report.bad_sectors_grown += result.faults.get("bad_sectors_grown", 0)
        report.media_errors += result.faults.get("media_errors", 0)
        report.transient_errors += result.faults.get("transient_errors", 0)
        report.remaps += result.faults.get("remaps", 0)
        if log is not None:
            log(
                f"trial {trial:3d}: {result.outcome:12s} "
                + ("; ".join(result.signals) or "-")
            )
    return report
