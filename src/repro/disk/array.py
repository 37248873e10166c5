"""A striped disk array (RAID-0) over the simulated timing model.

§2.1 of the paper: "the bandwidth and throughput of disk subsystems can
be substantially increased by the use of arrays of disks such as RAIDs,
[but] the access time for small disk accesses is not substantially
improved".  That asymmetry is exactly what LFS exploits — segment-sized
writes stripe across every spindle, while the FFS baseline's small
synchronous writes still pay a full seek on one spindle per operation.

:class:`StripedDisk` is a :class:`~repro.disk.sim_disk.SimDisk` — same
requests, statistics, telemetry, retry and stall accounting — whose busy
timeline is ``num_disks`` member timelines: one flat sector address space
backed by a single crash-aware device, with addresses interleaved across
the member spindles in ``stripe_sectors`` units.  Each member has its own
head position and busy timeline; a request is split into per-member runs
that proceed in parallel, and completes when the slowest member finishes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.disk.device import SectorDevice
from repro.disk.geometry import DiskGeometry
from repro.disk.sim_disk import SimDisk
from repro.disk.trace import AccessTier, TraceRecorder
from repro.errors import InvalidArgumentError, OutOfRangeError
from repro.obs import Telemetry
from repro.sim.clock import SimClock
from repro.units import KIB

_SEVERITY = list(AccessTier)  # sequential < near < far


class StripedDisk(SimDisk):
    """RAID-0 array of identical spindles."""

    def __init__(
        self,
        geometry: DiskGeometry,
        clock: SimClock,
        num_disks: int,
        stripe_bytes: int = 64 * KIB,
        trace: Optional[TraceRecorder] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if num_disks < 1:
            raise InvalidArgumentError(f"need at least one disk: {num_disks}")
        if stripe_bytes % geometry.sector_size:
            raise InvalidArgumentError(
                "stripe size must be a whole number of sectors"
            )
        # ``geometry`` describes one member; capacity is num_disks x that.
        super().__init__(
            geometry,
            clock,
            device=SectorDevice(
                geometry.num_sectors * num_disks, geometry.sector_size
            ),
            trace=trace,
            telemetry=telemetry,
        )
        self.num_disks = num_disks
        self.stripe_sectors = stripe_bytes // geometry.sector_size
        self._member_head = [0] * num_disks
        self._member_busy = [0.0] * num_disks

    @property
    def total_bytes(self) -> int:
        return self.device.total_bytes

    def _split(self, sector: int, count: int) -> Dict[int, List[Tuple[int, int]]]:
        """Split a flat request into per-member (sector, count) runs."""
        if count <= 0:
            raise OutOfRangeError(f"transfer needs at least one sector: {count}")
        runs: Dict[int, List[Tuple[int, int]]] = {}
        position = sector
        remaining = count
        while remaining > 0:
            stripe_index = position // self.stripe_sectors
            member = stripe_index % self.num_disks
            member_stripe = stripe_index // self.num_disks
            offset_in_stripe = position % self.stripe_sectors
            take = min(remaining, self.stripe_sectors - offset_in_stripe)
            member_sector = (
                member_stripe * self.stripe_sectors + offset_in_stripe
            )
            member_runs = runs.setdefault(member, [])
            if member_runs and (
                member_runs[-1][0] + member_runs[-1][1] == member_sector
            ):
                member_runs[-1] = (
                    member_runs[-1][0],
                    member_runs[-1][1] + take,
                )
            else:
                member_runs.append((member_sector, take))
            position += take
            remaining -= take
        return runs

    def _schedule(self, sector: int, nbytes: int) -> Tuple[float, float, AccessTier]:
        """Place a request on the member timelines; (start, done, tier).

        It starts when the first member turns to it and is done when the
        last one finishes; the reported tier is the worst any member saw
        (it decides the request's character for the trace/stats).
        """
        sector_size = self.geometry.sector_size
        now = self.clock.now()
        starts: List[float] = []
        dones: List[float] = []
        worst = AccessTier.SEQUENTIAL
        for member, runs in self._split(sector, -(-nbytes // sector_size)).items():
            busy = max(now, self._member_busy[member])
            starts.append(busy)
            for run_sector, run_count in runs:
                duration, tier = self.service_time(
                    run_sector, run_count * sector_size, self._member_head[member]
                )
                busy += duration
                self._member_head[member] = run_sector + run_count
                worst = max(worst, tier, key=_SEVERITY.index)
            self._member_busy[member] = busy
            dones.append(busy)
        done = max(dones)
        self._busy_until = max(self._busy_until, done)
        return min(starts), done, worst

    def crash(self) -> None:
        super().crash()
        self._member_busy = [self.clock.now()] * self.num_disks
        self._member_head = [0] * self.num_disks

    def __repr__(self) -> str:
        return (
            f"StripedDisk({self.num_disks} x {self.geometry.name}, "
            f"stripe={self.stripe_sectors * self.geometry.sector_size}B)"
        )
