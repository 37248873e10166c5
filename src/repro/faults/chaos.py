"""Crash-under-load chaos campaign (the ``repro chaos`` command).

Where ``repro crashtest`` crashes a single-threaded workload, chaos
crashes the **full service rig** — :class:`~repro.service.scheduler.
RequestScheduler` + :class:`~repro.service.admission.AdmissionController`
+ :class:`~repro.service.committer.GroupCommitter` + N client streams —
at adversarial instants, then remounts, rolls forward, and resumes the
surviving streams against the recovered image.

The teeth are the **durability contract**, checked by
:class:`DurabilityLedger` after every crash+remount:

* every byte a client was *acked* for (an fsync completion) is readable
  and intact — acked state can never move backwards past the last
  group-commit barrier;
* every un-acked in-flight mutation is either fully present or fully
  absent — the recovered content of each file must be *exactly* one of
  the whole-mutation states the clients produced, never a torn hybrid.

The ledger is a shadow model: it never reads the file system while the
rig runs (that would perturb the simulation), it just mirrors every
mutation the scheduler performs and advances a per-file durable floor at
each successful ``fsync_many`` (flush + drain = everything durable).
This is sound because the VFS write path inserts a whole mutation into
the cache *before* any write-back can run, and roll-forward replays only
complete flushes — so a recovered file is always some whole-mutation
state at least as new as its floor.

Faults injected here are the *contract-preserving* classes (torn
in-flight writes, transient read errors).  Bit rot and grown bad
sectors can destroy acked bytes — surviving those with detection is
``crashtest``'s contract; chaos proves the stronger promise on media
that merely crashes.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.disk.geometry import wren_iv
from repro.errors import FileNotFoundError_, ReproError
from repro.faults.device import FaultyDevice
from repro.faults.injector import FaultConfig, FaultInjector
from repro.lfs.filesystem import LogStructuredFS
from repro.lfs.verify import verify_lfs
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.rig import new_rig
from repro.service.config import SERVICE_LFS_CONFIG, ServiceConfig, validate_rig
from repro.service.scheduler import (
    ClientStream,
    RequestScheduler,
    prefill,
    serviceable_bytes,
)
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

_ABSENT = "absent"
"""Ledger state marker for "this path does not resolve"."""


class CrashSignal(Exception):
    """Raised by an armed :class:`CrashPlan` at the chosen instant.

    Deliberately *not* a :class:`~repro.errors.ReproError`: nothing in
    the storage stack catches it, so it unwinds cleanly out of
    ``scheduler.run()`` to the trial driver, which then power-fails the
    device.  (In-memory state left mid-operation does not matter — the
    crash discards all of it; only the device image survives.)
    """


# ----------------------------------------------------------------------
# The durability-contract ledger
# ----------------------------------------------------------------------


def _digest(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


@dataclass
class AckRecord:
    """One client-acked fsync: what the ack promised, and when."""

    path: str
    inum: int
    state_index: int
    ack_time: float
    trace_root: Optional[int]


@dataclass
class _FileRecord:
    """Shadow state of one client file: every whole-mutation state."""

    path: str
    inum: int = -1
    shadow: bytearray = field(default_factory=bytearray)
    states: List[str] = field(default_factory=lambda: [_ABSENT])
    sizes: List[int] = field(default_factory=lambda: [0])
    floor: int = 0

    @property
    def last_index(self) -> int:
        return len(self.states) - 1

    def push(self, state: str, size: int) -> None:
        self.states.append(state)
        self.sizes.append(size)


class DurabilityLedger:
    """Records client-visible mutations and proves they survive crashes.

    The scheduler notes every create / write / unlink *as the cache
    mutation lands*; the committer's ``on_durable`` hook advances every
    file's durable floor at each successful group commit; acked fsyncs
    are recorded with their trace roots so a violation can name the
    request that was lied to.
    """

    def __init__(self) -> None:
        self.records: Dict[str, _FileRecord] = {}
        self.acks: List[AckRecord] = []
        self.barriers = 0
        self.checks = 0

    # -- mutation hooks (called by the scheduler) ----------------------

    def _record(self, path: str) -> _FileRecord:
        record = self.records.get(path)
        if record is None:
            record = _FileRecord(path=path)
            self.records[path] = record
        return record

    def note_create(self, path: str, inum: int) -> None:
        record = self._record(path)
        record.inum = inum
        record.shadow = bytearray()
        record.push(_digest(b""), 0)

    def note_write(self, path: str, offset: int, data: bytes) -> None:
        record = self._record(path)
        shadow = record.shadow
        end = offset + len(data)
        if end > len(shadow):
            shadow.extend(b"\x00" * (end - len(shadow)))
        shadow[offset:end] = data
        record.push(_digest(bytes(shadow)), len(shadow))

    def note_unlink(self, path: str) -> None:
        record = self._record(path)
        record.shadow = bytearray()
        record.push(_ABSENT, 0)

    # -- durability hooks ----------------------------------------------

    def note_barrier(self) -> None:
        """A group commit's flush + drain completed: everything written
        so far is durable, so no file may ever be observed older than
        its current state again."""
        self.barriers += 1
        for record in self.records.values():
            record.floor = record.last_index

    def note_ack(
        self, path: str, inum: int, now: float, ctx=None
    ) -> None:
        record = self._record(path)
        self.acks.append(
            AckRecord(
                path=path,
                inum=inum,
                state_index=record.last_index,
                ack_time=now,
                trace_root=getattr(ctx, "root_id", None),
            )
        )

    # -- the contract check --------------------------------------------

    def _observe(self, fs: LogStructuredFS, path: str):
        """Return (state, size) of ``path`` on the (recovered) fs."""
        try:
            data = fs.read_file(path)
        except FileNotFoundError_:
            return _ABSENT, 0
        return _digest(bytes(data)), len(data)

    def check(
        self, fs: LogStructuredFS, require_latest: bool = False
    ) -> List[str]:
        """Prove every tracked file honors the durability contract.

        Post-crash (``require_latest=False``): the observed content must
        be exactly one recorded whole-mutation state with index >= the
        durable floor.  End-of-trial (``require_latest=True``): it must
        be exactly the *latest* state.  Returns one violation string per
        broken file — empty means the contract held.
        """
        violations: List[str] = []
        for path in sorted(self.records):
            record = self.records[path]
            self.checks += 1
            observed, size = self._observe(fs, path)
            if require_latest:
                admissible = range(record.last_index, record.last_index + 1)
            else:
                admissible = range(record.floor, record.last_index + 1)
            if any(record.states[i] == observed for i in admissible):
                continue
            acks = [a for a in self.acks if a.path == path]
            last_ack = acks[-1] if acks else None
            wanted = (
                f"state {record.last_index}"
                if require_latest
                else f"states [{record.floor}..{record.last_index}]"
            )
            violations.append(
                f"{path}: observed {observed[:12]}/{size}B matches none of "
                f"{wanted} "
                f"({len(record.states)} recorded, floor {record.floor}, "
                f"{len(acks)} acks"
                + (
                    f", last ack state {last_ack.state_index} at "
                    f"t={last_ack.ack_time:.6f} "
                    f"trace_root={last_ack.trace_root}"
                    if last_ack
                    else ""
                )
                + ")"
            )
        return violations

    def reconcile(self, fs: LogStructuredFS) -> None:
        """Collapse each record to the recovered truth after a remount.

        The recovered state was just proven admissible by :meth:`check`
        and the mount made it durable, so the history restarts there
        with the floor at zero.
        """
        for record in self.records.values():
            observed, size = self._observe(fs, record.path)
            if observed == _ABSENT:
                record.shadow = bytearray()
            else:
                record.shadow = bytearray(fs.read_file(record.path))
            record.states = [observed]
            record.sizes = [size]
            record.floor = 0


# ----------------------------------------------------------------------
# Crash instants
# ----------------------------------------------------------------------


class CrashPlan:
    """Arms one adversarial crash instant on a live rig.

    Works by shadowing bound methods with instance attributes — the
    wrappers raise :class:`CrashSignal` at the seeded moment and
    :meth:`disarm` always restores the originals (the remount and the
    resumed run must see an unwrapped stack).
    """

    def __init__(
        self,
        instant: str,
        rng: random.Random,
        fs: LogStructuredFS,
        scheduler: RequestScheduler,
    ) -> None:
        if instant not in INSTANTS:
            raise ValueError(f"unknown crash instant: {instant!r}")
        self.instant = instant
        self.fs = fs
        self.disk = fs.disk
        self.scheduler = scheduler
        self.fired = False
        self.fired_detail = ""
        self._write_countdown: Optional[int] = None
        self._restores: List[Callable[[], None]] = []
        arm = {
            "mid-clean": self._arm_mid_clean,
            "mid-commit": self._arm_mid_commit,
            "throttle-payback": self._arm_throttle_payback,
            "high-fill": self._arm_high_fill,
        }[instant]
        arm(rng)

    # -- plumbing ------------------------------------------------------

    def _shadow(self, obj, name: str, wrapper) -> None:
        setattr(obj, name, wrapper)
        self._restores.append(lambda: obj.__dict__.pop(name, None))

    def disarm(self) -> None:
        for restore in self._restores:
            restore()
        self._restores = []

    def _fire(self, detail: str) -> None:
        self.fired = True
        self.fired_detail = detail
        self._write_countdown = None
        raise CrashSignal(detail)

    def _hook_disk_writes(self) -> None:
        """Crash on the N-th disk write after a countdown is armed."""
        original = self.disk.write

        def write_wrapper(sector, data, sync=False, label=""):
            if self._write_countdown is not None and not self.fired:
                self._write_countdown -= 1
                if self._write_countdown <= 0:
                    self._fire(
                        f"{self.instant}: power fail before disk write "
                        f"to sector {sector}"
                    )
            return original(sector, data, sync=sync, label=label)

        self._shadow(self.disk, "write", write_wrapper)

    # -- the four instants ---------------------------------------------

    def _arm_mid_clean(self, rng: random.Random) -> None:
        target = rng.randrange(1, 4)
        original = self.fs.cleaner._relocate_live_blocks
        state = {"calls": 0}

        def relocate_wrapper(seg):
            state["calls"] += 1
            if state["calls"] == target and not self.fired:
                self._fire(
                    f"mid-clean: relocation #{state['calls']} "
                    f"(segment {seg})"
                )
            return original(seg)

        self._shadow(self.fs.cleaner, "_relocate_live_blocks", relocate_wrapper)

    def _arm_mid_commit(self, rng: random.Random) -> None:
        fsync_target = rng.randrange(1, 4)
        countdown = rng.randrange(1, 5)
        self._hook_disk_writes()
        original = self.fs.fsync_many
        state = {"calls": 0}

        def fsync_wrapper(handles):
            state["calls"] += 1
            if state["calls"] == fsync_target and not self.fired:
                self._write_countdown = countdown
            result = original(handles)
            if self._write_countdown is not None and not self.fired:
                # The batch flushed in fewer writes than the countdown:
                # crash in the window after durability, before the acks.
                self._fire(
                    f"mid-commit: batch #{state['calls']} durable, "
                    f"acks never delivered"
                )
            return result

        self._shadow(self.fs, "fsync_many", fsync_wrapper)

    def _arm_throttle_payback(self, rng: random.Random) -> None:
        pay_target = rng.randrange(1, 3)
        countdown = rng.randrange(1, 6)
        self._hook_disk_writes()
        original = self.scheduler.admission.pay_throttle
        state = {"calls": 0}

        def pay_wrapper(ctx=None):
            state["calls"] += 1
            if state["calls"] == pay_target and not self.fired:
                self._write_countdown = countdown
            result = original(ctx) if ctx is not None else original()
            if self._write_countdown is not None and not self.fired:
                # The paid pass wrote less than the countdown: crash at
                # payback completion, before the writer re-submits.
                self._fire(
                    f"throttle-payback: pass #{state['calls']} ended"
                )
            return result

        self._shadow(self.scheduler.admission, "pay_throttle", pay_wrapper)

    def _arm_high_fill(self, rng: random.Random) -> None:
        threshold = int(HIGH_FILL_FRACTION * serviceable_bytes(self.fs))
        original = self.disk.write

        def write_wrapper(sector, data, sync=False, label=""):
            if not self.fired:
                live = self.fs.live_data_bytes()
                if live >= threshold:
                    self._fire(
                        f"high-fill: {live} live bytes >= "
                        f"{threshold} ({HIGH_FILL_FRACTION:.0%} of "
                        f"serviceable)"
                    )
            return original(sector, data, sync=sync, label=label)

        self._shadow(self.disk, "write", write_wrapper)


# ----------------------------------------------------------------------
# Trials
# ----------------------------------------------------------------------


@dataclass
class ChaosTrialResult:
    """What one crash-under-load trial observed."""

    trial: int
    instant: str
    outcome: str = "passed"  # "passed" | "violated" | "unhandled"
    fired: bool = False
    crash_detail: str = ""
    detail: str = ""
    violations: List[str] = field(default_factory=list)
    acked_fsyncs: int = 0
    barriers: int = 0
    checks: int = 0
    completed_requests: int = 0
    resumed_clients: int = 0
    degraded: bool = False
    faults: Dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.outcome == "passed"


@dataclass
class ChaosReport:
    """Aggregated durability report for a whole chaos campaign."""

    seed: int
    clients: int
    trials: List[ChaosTrialResult] = field(default_factory=list)
    torn_writes: int = 0
    transient_errors: int = 0

    @property
    def failures(self) -> List[ChaosTrialResult]:
        return [t for t in self.trials if not t.passed]

    @property
    def passed_all(self) -> bool:
        return not self.failures

    def fired_count(self, instant: str) -> int:
        return sum(
            1 for t in self.trials if t.instant == instant and t.fired
        )

    def planned_count(self, instant: str) -> int:
        return sum(1 for t in self.trials if t.instant == instant)

    @property
    def instants_covered(self) -> bool:
        return all(
            self.fired_count(instant) > 0
            for instant in INSTANTS
            if self.planned_count(instant) > 0
        )

    def render(self) -> str:
        checks = sum(t.checks for t in self.trials)
        violations = sum(len(t.violations) for t in self.trials)
        acked = sum(t.acked_fsyncs for t in self.trials)
        crashes = sum(1 for t in self.trials if t.fired)
        resumed = sum(t.resumed_clients for t in self.trials)
        degraded = sum(1 for t in self.trials if t.degraded)
        lines = [
            f"chaos: {len(self.trials)} trials, seed {self.seed}, "
            f"{self.clients} clients",
            f"  crashes injected: {crashes}",
        ]
        for instant in INSTANTS:
            planned = self.planned_count(instant)
            if not planned:
                continue
            lines.append(
                f"    {instant + ':':18s}{self.fired_count(instant)}"
                f"/{planned} fired"
            )
        lines += [
            f"  durability contract: {checks} file checks, "
            f"{violations} violations",
            f"  acked fsyncs: {acked}",
            f"  resumed clients: {resumed}",
            f"  degraded trials: {degraded}",
            f"  failed trials: {len(self.failures)}",
        ]
        for t in self.failures:
            lines.append(f"    trial {t.trial} [{t.instant}]: {t.detail}")
            for violation in t.violations:
                lines.append(f"      {violation}")
        lines += [
            "fault injection totals:",
            f"  torn writes {self.torn_writes}, "
            f"transient errors {self.transient_errors}",
            "durability: "
            + ("OK" if self.passed_all else "VIOLATED"),
        ]
        return "\n".join(lines)


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
    # bytes, which is crashtest's detection contract, not this one.
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


def run_chaos_trial(
    trial: int,
    seed: int,
    clients: int = 8,
    requests_per_client: int = 80,
    telemetry: Optional[Telemetry] = None,
    device_bytes: int = DEFAULT_CHAOS_DEVICE_BYTES,
) -> ChaosTrialResult:
    """One crash-under-load → remount → contract-check → resume cycle."""
    rng = random.Random(f"chaos-{seed}-{trial}")
    instant = INSTANTS[trial % len(INSTANTS)]
    fault_config = _chaos_fault_config(rng)
    injector = FaultInjector(
        fault_config, seed=rng.getrandbits(32), telemetry=telemetry
    )
    result = ChaosTrialResult(trial=trial, instant=instant)
    obs = telemetry or NULL_TELEMETRY
    obs.counter("chaos.trials").inc()
    try:
        _execute_chaos_trial(
            result,
            injector,
            rng,
            seed,
            clients,
            requests_per_client,
            device_bytes,
            telemetry,
        )
    except CrashSignal as exc:
        # An injected crash escaping the driver means the remount/resume
        # path re-entered an armed wrapper — a harness bug, not a pass.
        result.outcome = "unhandled"
        result.detail = f"CrashSignal escaped: {exc}"
    except ReproError as exc:
        # The rig must degrade politely, never abort: a typed error
        # escaping scheduler.run()/mount is a contract failure here
        # (unlike crashtest, where detection is the success criterion).
        result.outcome = "unhandled"
        result.detail = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: FAULT002 - campaign-level classifier
        result.outcome = "unhandled"
        result.detail = f"{type(exc).__name__}: {exc}"
    if result.violations:
        obs.counter("chaos.contract_violations").inc(len(result.violations))
    result.faults = {
        "torn_writes": injector.torn_writes,
        "transient_errors": injector.transient_errors,
    }
    return result


def _execute_chaos_trial(
    result: ChaosTrialResult,
    injector: FaultInjector,
    rng: random.Random,
    seed: int,
    clients: int,
    requests_per_client: int,
    device_bytes: int,
    telemetry: Optional[Telemetry],
) -> None:
    obs = telemetry or NULL_TELEMETRY
    service_config = _chaos_service_config(
        seed, result.trial, clients, requests_per_client, result.instant
    )
    geometry = wren_iv(device_bytes)
    device = FaultyDevice(
        geometry.num_sectors, geometry.sector_size, injector=injector
    )
    rig = new_rig(
        "lfs",
        lfs_config=SERVICE_LFS_CONFIG,
        geometry=geometry,
        telemetry=telemetry,
        device=device,
        service=service_config,
    )
    fs, disk, cpu = rig.fs, rig.disk, rig.cpu
    prefill(fs, service_config)

    ledger = DurabilityLedger()
    scheduler = RequestScheduler(
        fs, service_config, telemetry=telemetry, ledger=ledger
    )
    plan = CrashPlan(result.instant, rng, fs, scheduler)
    crashed = False
    try:
        scheduler.run()
    except CrashSignal:
        crashed = True
    finally:
        plan.disarm()
    result.fired = plan.fired
    result.crash_detail = plan.fired_detail
    result.completed_requests = scheduler.stats.completed
    result.acked_fsyncs = len(ledger.acks)

    live = fs
    if crashed:
        obs.counter("chaos.crashes_injected").inc()
        fs.crash()
        device.revive()
        live = LogStructuredFS.mount(
            disk, cpu, SERVICE_LFS_CONFIG, telemetry=telemetry
        )
        violations = ledger.check(live)
        result.checks = ledger.checks
        obs.counter("chaos.contract_checks").inc(ledger.checks)
        if violations:
            result.violations = violations
            result.outcome = "violated"
            result.detail = (
                f"{len(violations)} durability violations after "
                f"{result.crash_detail}"
            )
            return
        ledger.reconcile(live)
        result.resumed_clients = _reconcile_clients(live, scheduler.clients)
        obs.counter("chaos.resumed_clients").inc(result.resumed_clients)
        resumed = RequestScheduler(
            live,
            service_config,
            telemetry=telemetry,
            clients=scheduler.clients,
            ledger=ledger,
        )
        resumed.run()
        result.completed_requests += resumed.stats.completed
        result.degraded = live.degraded

    result.barriers = ledger.barriers
    result.acked_fsyncs = len(ledger.acks)
    # End-of-trial: with the rig quiesced every file must read back as
    # exactly its latest state (served from cache if not yet flushed).
    final = ledger.check(live, require_latest=True)
    result.checks = ledger.checks
    if final:
        result.violations = final
        result.outcome = "violated"
        result.detail = f"{len(final)} end-of-trial state mismatches"
        return
    live.unmount()
    verify = verify_lfs(device)
    if verify.errors:
        result.violations = [f"image-verify: {e}" for e in verify.errors]
        result.outcome = "violated"
        result.detail = (
            f"{len(verify.errors)} image verify errors after clean unmount"
        )


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------


def run_chaos_campaign(
    trials: int = 12,
    seed: int = 0,
    clients: int = 8,
    requests_per_client: int = 80,
    telemetry: Optional[Telemetry] = None,
    device_bytes: int = DEFAULT_CHAOS_DEVICE_BYTES,
    log=None,
    jobs: int = 1,
) -> ChaosReport:
    """Run ``trials`` seeded crash-under-load trials and aggregate.

    Trial *i* of seed *s* is deterministic and self-contained;
    aggregation (report rows, fault totals, telemetry merge) always
    happens in trial order, so the report is byte-identical for any
    ``jobs`` value.
    """
    from repro.harness.parallel import run_trials

    # Fail fast (with every violation listed) before forking workers:
    # a bad configuration would otherwise be reported as every trial
    # escaping with the same error.  Each instant has its own config.
    for instant in INSTANTS:
        validate_rig(
            _chaos_service_config(
                seed, 0, clients, requests_per_client, instant
            ),
            SERVICE_LFS_CONFIG,
            device_bytes=wren_iv(device_bytes).total_bytes,
        )
    report = ChaosReport(seed=seed, clients=clients)
    results = run_trials(
        run_chaos_trial,
        [
            dict(
                trial=trial,
                seed=seed,
                clients=clients,
                requests_per_client=requests_per_client,
                device_bytes=device_bytes,
            )
            for trial in range(trials)
        ],
        telemetry=telemetry,
        jobs=jobs,
    )
    for trial, result in enumerate(results):
        report.trials.append(result)
        report.torn_writes += result.faults.get("torn_writes", 0)
        report.transient_errors += result.faults.get("transient_errors", 0)
        if log is not None:
            fired = "crash" if result.fired else "no-crash"
            log(
                f"trial {trial:3d}: {result.instant:17s} {fired:9s} "
                f"{result.outcome:10s} "
                + (result.detail or result.crash_detail or "-")
            )
    return report
