"""The one place a simulated machine is assembled.

Every entry point — the paper experiments, ``make_lfs``/``make_ffs``,
the CLI's image commands, the crash and chaos campaigns, the service
and cluster simulations — needs the same stack: a
:class:`~repro.sim.clock.SimClock`, a :class:`~repro.sim.cpu.CpuModel`
on it, a :class:`~repro.disk.sim_disk.SimDisk` over some device, and a
file system formatted or mounted on top.  :func:`new_rig` builds it, in
that order, so there is one answer to "what does a rig consist of" and
one place a serviced rig's configuration is validated before it boots
(``RIG001`` in :mod:`repro.tools.lint` flags a ``SimDisk`` constructed
anywhere else in the package).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.disk.device import SectorDevice
from repro.disk.geometry import DiskGeometry, wren_iv
from repro.disk.sim_disk import SimDisk
from repro.disk.trace import TraceRecorder
from repro.ffs.config import FfsConfig
from repro.ffs.filesystem import FastFileSystem
from repro.lfs.config import LfsConfig
from repro.lfs.filesystem import LogStructuredFS
from repro.obs import Telemetry
from repro.sim.clock import SimClock
from repro.sim.cpu import CpuModel
from repro.units import MIB


@dataclass
class Rig:
    """One simulated machine and the file system on it."""

    name: Optional[str]
    fs: object
    clock: SimClock
    cpu: CpuModel
    disk: SimDisk
    trace: Optional[TraceRecorder] = None


def new_rig(
    kind: Optional[str],
    total_bytes: int = 300 * MIB,
    speed_factor: float = 1.0,
    lfs_config: Optional[LfsConfig] = None,
    ffs_config: Optional[FfsConfig] = None,
    trace: Optional[TraceRecorder] = None,
    geometry: Optional[DiskGeometry] = None,
    telemetry: Optional[Telemetry] = None,
    clock: Optional[SimClock] = None,
    device: Optional[SectorDevice] = None,
    mount: bool = False,
    service=None,
) -> Rig:
    """Build a simulated machine with a ``kind`` ('lfs'/'ffs') file system.

    The disk is a WREN IV of ``total_bytes`` unless ``geometry`` says
    otherwise.  ``clock`` puts the rig on an existing clock (the two
    shards of a cluster migration share one); ``device`` supplies the
    backing store (a fault-injecting device, a loaded image) instead of
    a blank one, and ``mount=True`` mounts what it holds instead of
    formatting it.  ``kind=None`` stops at the bare disk, for tools
    that work on an unmounted image (fsck).

    ``service`` is the :class:`~repro.service.config.ServiceConfig` the
    rig is about to serve; passing it runs
    :func:`~repro.service.config.validate_rig` against the LFS config
    and the device size before anything is allocated, so a rig that
    could never make progress is rejected with every violation listed
    rather than booted.

    One ``telemetry`` object may be shared across sequential rigs (its
    tracer re-binds to each rig's clock); metrics then accumulate over
    the whole experiment.
    """
    if kind not in ("lfs", "ffs", None):
        raise ValueError(f"unknown file system kind: {kind!r}")
    geometry = geometry or wren_iv(total_bytes)
    if service is not None:
        from repro.service.config import validate_rig

        validate_rig(
            service,
            lfs_config or LfsConfig(),
            device_bytes=geometry.total_bytes,
        )
    if clock is None:
        clock = SimClock()
    cpu = CpuModel(clock, speed_factor=speed_factor)
    disk = SimDisk(
        geometry, clock, device=device, trace=trace, telemetry=telemetry
    )
    fs = None
    if kind == "lfs":
        build = LogStructuredFS.mount if mount else LogStructuredFS.mkfs
        fs = build(disk, cpu, lfs_config, telemetry=telemetry)
    elif kind == "ffs":
        build = FastFileSystem.mount if mount else FastFileSystem.mkfs
        fs = build(disk, cpu, ffs_config)
    return Rig(name=kind, fs=fs, clock=clock, cpu=cpu, disk=disk, trace=trace)
