"""Simulated disk substrate.

The paper's evaluation hardware was a WREN IV SCSI disk (1.3 MB/s maximum
transfer bandwidth, 17.5 ms average seek).  This package provides a
sector-addressed device with explicit data durability semantics
(:mod:`repro.disk.device`), a disk service-time model parameterized by a
:class:`~repro.disk.geometry.DiskGeometry` (:mod:`repro.disk.sim_disk`),
and cumulative statistics (:mod:`repro.disk.stats`).  Under
``Telemetry(trace_io=True)`` every request also leaves a
``disk.read``/``disk.write`` span, the record the paper's Figures 1
and 2 are drawn from.
"""

from repro.disk.device import SectorDevice
from repro.disk.geometry import (
    DiskGeometry,
    FAST_1990S_DISK,
    NULL_TIMING,
    WREN_IV,
)
from repro.disk.sim_disk import AccessTier, SimDisk
from repro.disk.stats import DiskStats

__all__ = [
    "SectorDevice",
    "DiskGeometry",
    "WREN_IV",
    "FAST_1990S_DISK",
    "NULL_TIMING",
    "SimDisk",
    "DiskStats",
    "AccessTier",
]
