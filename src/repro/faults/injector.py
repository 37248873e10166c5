"""The fault-injection policy: what breaks, when, and how often.

A :class:`FaultInjector` is a seeded, deterministic policy object that a
:class:`~repro.faults.device.FaultyDevice` consults on every I/O and at
every crash.  It models the disk failure classes a log-structured store
must survive beyond a clean power cut:

* **torn writes** — only a prefix of a multi-sector write persists
  across a crash (delegated to ``SectorDevice.crash``'s ``rng`` hook so
  the tear rides the ordinary pending-write rollback);
* **silent bit corruption** — a crash flips one bit in each of a few
  previously written sectors, with no error reported on read;
* **grown bad sectors** — sectors that become permanently unreadable,
  raising a typed :class:`~repro.errors.MediaError`, until a later
  write remaps them;
* **transient read errors** — a read raises
  :class:`~repro.errors.TransientIOError` once, and the same request
  retried succeeds (the timing layer's retry path absorbs these).

Every decision comes from one ``random.Random`` seeded at construction,
so a trial is exactly reproducible from its seed.  Everything injected
is counted through the ``disk.fault.*`` telemetry series and mirrored
in plain attributes for callers without a registry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from repro.errors import MediaError, TransientIOError
from repro.obs import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.device import FaultyDevice

FAULT_KINDS = ("torn_writes", "bit_flips", "bad_sectors_grown",
               "media_errors", "transient_errors", "remaps")
"""What an injector counts, in the order campaign reports list it."""


@dataclass(frozen=True)
class FaultConfig:
    """How aggressively each fault class is injected."""

    torn_write_prob: float = 0.0
    """Probability each rolled-back multi-sector write tears at crash."""

    bit_flip_sectors: int = 0
    """Written sectors silently corrupted (one bit each) per crash."""

    grow_bad_sectors: int = 0
    """Written sectors that become unreadable per crash."""

    transient_read_prob: float = 0.0
    """Probability any given read raises a retryable error."""

    def __post_init__(self) -> None:
        for name in ("torn_write_prob", "transient_read_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {value}")
        for name in ("bit_flip_sectors", "grow_bad_sectors"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @classmethod
    def none(cls) -> "FaultConfig":
        """A config that injects nothing (counters still registered)."""
        return cls()

    @property
    def any_faults(self) -> bool:
        return (
            self.torn_write_prob > 0
            or self.bit_flip_sectors > 0
            or self.grow_bad_sectors > 0
            or self.transient_read_prob > 0
        )


class FaultInjector:
    """Seeded fault policy consulted by :class:`FaultyDevice`."""

    def __init__(
        self,
        config: Optional[FaultConfig] = None,
        seed: int = 0,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config or FaultConfig.none()
        self.rng = random.Random(seed)
        self.bad_sectors: Set[int] = set()
        self._pending_transient: Set[Tuple[int, int]] = set()
        self._torn_seen = 0
        # Plain mirrors of the telemetry counters.
        self.torn_writes = 0
        self.bit_flips = 0
        self.bad_sectors_grown = 0
        self.media_errors = 0
        self.transient_errors = 0
        self.remaps = 0
        self.telemetry = telemetry or NULL_TELEMETRY
        obs = self.telemetry
        self._m_torn = obs.counter("disk.fault.torn_writes")
        self._m_flips = obs.counter("disk.fault.bit_flips")
        self._m_grown = obs.counter("disk.fault.bad_sectors_grown")
        self._m_media = obs.counter("disk.fault.media_errors")
        self._m_transient = obs.counter("disk.fault.transient_errors")
        self._m_remaps = obs.counter("disk.fault.remaps")

    # ------------------------------------------------------------------
    # Read-side hooks
    # ------------------------------------------------------------------

    def before_read(self, sector: int, count: int) -> None:
        """Raise the fault (if any) this read should observe.

        A transient failure is armed per (sector, count) request: the
        first issue raises, the identical retry succeeds — which is what
        lets the timing layer's bounded retry loop always win.
        """
        key = (sector, count)
        if key in self._pending_transient:
            self._pending_transient.discard(key)
        elif (
            self.config.transient_read_prob
            and self.rng.random() < self.config.transient_read_prob
        ):
            self._pending_transient.add(key)
            self.transient_errors += 1
            self._m_transient.inc()
            raise TransientIOError(
                f"transient read error at sectors [{sector}, {sector + count})"
            )
        if self.bad_sectors:
            for bad in range(sector, sector + count):
                if bad in self.bad_sectors:
                    self.media_errors += 1
                    self._m_media.inc()
                    raise MediaError(
                        f"unreadable sector {bad} "
                        f"(read of [{sector}, {sector + count}))",
                        sector=bad,
                    )

    # ------------------------------------------------------------------
    # Write-side hook
    # ------------------------------------------------------------------

    def note_write(self, sector: int, count: int) -> None:
        """A successful write remaps (heals) any bad sector it covers."""
        if not self.bad_sectors:
            return
        for healed in range(sector, sector + count):
            if healed in self.bad_sectors:
                self.bad_sectors.discard(healed)
                self.remaps += 1
                self._m_remaps.inc()

    # ------------------------------------------------------------------
    # Crash-side hook
    # ------------------------------------------------------------------

    def after_crash(self, device: "FaultyDevice") -> None:
        """Apply crash-coincident damage to the surviving image."""
        new_tears = device.torn_writes - self._torn_seen
        self._torn_seen = device.torn_writes
        if new_tears:
            self.torn_writes += new_tears
            self._m_torn.inc(new_tears)
        pool = sorted(device.written_sectors)
        if not pool:
            return
        for _ in range(self.config.grow_bad_sectors):
            sector = pool[self.rng.randrange(len(pool))]
            if sector not in self.bad_sectors:
                self.bad_sectors.add(sector)
                self.bad_sectors_grown += 1
                self._m_grown.inc()
        for _ in range(self.config.bit_flip_sectors):
            sector = pool[self.rng.randrange(len(pool))]
            device.flip_bit(sector, self.rng.randrange(device.sector_size * 8))
            self.bit_flips += 1
            self._m_flips.inc()

    def totals(self) -> Dict[str, int]:
        """Everything injected so far, by kind (see :data:`FAULT_KINDS`)."""
        return {kind: getattr(self, kind) for kind in FAULT_KINDS}

    def mark_unreadable(self, sector: int) -> None:
        """Force a specific sector bad (unit tests, targeted scenarios)."""
        if sector not in self.bad_sectors:
            self.bad_sectors.add(sector)
            self.bad_sectors_grown += 1
            self._m_grown.inc()

    def __repr__(self) -> str:
        return (
            f"FaultInjector(bad={len(self.bad_sectors)}, "
            f"torn={self.torn_writes}, flips={self.bit_flips}, "
            f"transient={self.transient_errors})"
        )
