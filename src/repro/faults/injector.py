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
is counted once, in the injector's ``counts`` dict, which the
``disk.fault.*`` telemetry series read back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
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


class FaultInjector:
    """Seeded fault policy consulted by :class:`FaultyDevice`."""

    def __init__(
        self,
        config: Optional[FaultConfig] = None,
        seed: int = 0,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config or FaultConfig()
        self.rng = random.Random(seed)
        self.bad_sectors: Set[int] = set()
        # Every sector written so far, the pool crash damage aims at
        # (flipping bits in never-written space would exercise
        # nothing); kept only when the config aims.
        self.written: Optional[Set[int]] = (
            set()
            if self.config.grow_bad_sectors or self.config.bit_flip_sectors
            else None
        )
        self._pending_transient: Set[Tuple[int, int]] = set()
        self._torn_seen = 0
        # What was injected, by kind: the one count, which the
        # disk.fault.* series read back.
        self.counts: Dict[str, int] = dict.fromkeys(FAULT_KINDS, 0)
        self.telemetry = telemetry or NULL_TELEMETRY
        for kind in FAULT_KINDS:
            self.telemetry.counter(
                f"disk.fault.{kind}", partial(self.counts.__getitem__, kind)
            )

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
            self.counts["transient_errors"] += 1
            raise TransientIOError(
                f"transient read error at sectors [{sector}, {sector + count})"
            )
        if self.bad_sectors:
            for bad in range(sector, sector + count):
                if bad in self.bad_sectors:
                    self.counts["media_errors"] += 1
                    raise MediaError(
                        f"unreadable sector {bad} "
                        f"(read of [{sector}, {sector + count}))",
                        sector=bad,
                    )

    # ------------------------------------------------------------------
    # Write-side hook
    # ------------------------------------------------------------------

    def note_write(self, sector: int, count: int) -> None:
        """A successful write joins the aim pool and remaps (heals) any
        bad sector it covers."""
        if self.written is not None:
            self.written.update(range(sector, sector + count))
        if not self.bad_sectors:
            return
        for healed in range(sector, sector + count):
            if healed in self.bad_sectors:
                self.bad_sectors.discard(healed)
                self.counts["remaps"] += 1

    # ------------------------------------------------------------------
    # Crash-side hook
    # ------------------------------------------------------------------

    def after_crash(self, device: "FaultyDevice") -> None:
        """Apply crash-coincident damage to the surviving image."""
        new_tears = device.torn_writes - self._torn_seen
        self._torn_seen = device.torn_writes
        self.counts["torn_writes"] += new_tears
        if not self.written:
            return  # nothing to aim, or nothing written to aim at
        pool = sorted(self.written)
        for _ in range(self.config.grow_bad_sectors):
            sector = pool[self.rng.randrange(len(pool))]
            if sector not in self.bad_sectors:
                self.bad_sectors.add(sector)
                self.counts["bad_sectors_grown"] += 1
        for _ in range(self.config.bit_flip_sectors):
            sector = pool[self.rng.randrange(len(pool))]
            device.flip_bit(sector, self.rng.randrange(device.sector_size * 8))
            self.counts["bit_flips"] += 1

    def totals(self) -> Dict[str, int]:
        """Everything injected so far, by kind (see :data:`FAULT_KINDS`)."""
        return dict(self.counts)

    def mark_unreadable(self, sector: int) -> None:
        """Force a specific sector bad (unit tests, targeted scenarios)."""
        if sector not in self.bad_sectors:
            self.bad_sectors.add(sector)
            self.counts["bad_sectors_grown"] += 1

    def __repr__(self) -> str:
        return (
            f"FaultInjector(bad={len(self.bad_sectors)}, "
            f"torn={self.counts['torn_writes']}, "
            f"flips={self.counts['bit_flips']}, "
            f"transient={self.counts['transient_errors']})"
        )
