"""A :class:`SectorDevice` that injects faults from a policy object.

``FaultyDevice`` is a drop-in replacement anywhere a ``SectorDevice``
goes (the timing layer, the verifier, the CLI): same constructor shape,
same crash semantics.  Every read first asks the injector whether it
fails (transient error, grown bad sector); every crash composes the
torn-write hook of :meth:`SectorDevice.crash` with crash-coincident
damage (bit flips, newly grown bad sectors).
"""

from __future__ import annotations

from typing import Optional

from repro.disk.device import SectorDevice
from repro.faults.injector import FaultInjector
from repro.units import SECTOR_SIZE


class FaultyDevice(SectorDevice):
    """Crash-aware sector array with injected media faults."""

    def __init__(
        self,
        num_sectors: int,
        sector_size: int = SECTOR_SIZE,
        *,
        injector: Optional[FaultInjector] = None,
        initial_data: Optional[bytearray] = None,
    ) -> None:
        super().__init__(num_sectors, sector_size, initial_data=initial_data)
        self.injector = injector or FaultInjector()

    def read(self, sector: int, count: int) -> memoryview:
        # Range- and crash-check first so faults only fire on requests
        # that would otherwise succeed.
        self._check_range(sector, count)
        self.injector.before_read(sector, count)
        return super().read(sector, count)

    def write(
        self,
        sector: int,
        data: bytes,
        completion_time: float = 0.0,
        durable: bool = False,
    ) -> None:
        super().write(
            sector, data, completion_time=completion_time, durable=durable
        )
        self.injector.note_write(sector, len(data) // self.sector_size)

    def crash(self, now: float, **kwargs) -> None:
        injector = self.injector
        kwargs.setdefault("rng", injector.rng)
        kwargs.setdefault(
            "tear_probability", injector.config.torn_write_prob
        )
        super().crash(now, **kwargs)
        injector.after_crash(self)

    def flip_bit(self, sector: int, bit: int) -> None:
        """Silently flip one bit of ``sector`` (no error on later reads)."""
        index = sector * self.sector_size + bit // 8
        self._data[index] ^= 1 << (bit % 8)

    def __repr__(self) -> str:
        return (
            f"FaultyDevice({self.num_sectors} x {self.sector_size}B, "
            f"pending={self.pending_writes()}, crashed={self.crashed}, "
            f"bad={len(self.injector.bad_sectors)})"
        )
