"""Shared fixtures: small, fast simulated machines for unit tests."""

from __future__ import annotations

import pytest

from repro.disk.geometry import wren_iv
from repro.disk.sim_disk import SimDisk
from repro.ffs.config import FfsConfig
from repro.ffs.filesystem import FastFileSystem
from repro.lfs.config import LfsConfig
from repro.lfs.filesystem import LogStructuredFS
from repro.sim.clock import SimClock
from repro.sim.cpu import CpuModel
from repro.units import KIB, MIB


SMALL_DEVICE = 64 * MIB


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def cpu(clock: SimClock) -> CpuModel:
    return CpuModel(clock)


@pytest.fixture
def disk(clock: SimClock) -> SimDisk:
    return SimDisk(wren_iv(SMALL_DEVICE), clock)


def small_lfs_config(**overrides) -> LfsConfig:
    defaults = dict(
        segment_size=256 * KIB,
        cache_bytes=2 * MIB,
        max_inodes=4096,
    )
    defaults.update(overrides)
    return LfsConfig(**defaults)


def small_ffs_config(**overrides) -> FfsConfig:
    defaults = dict(
        cg_bytes=8 * MIB,
        inodes_per_cg=512,
        cache_bytes=2 * MIB,
    )
    defaults.update(overrides)
    return FfsConfig(**defaults)


@pytest.fixture
def lfs(disk: SimDisk, cpu: CpuModel) -> LogStructuredFS:
    return LogStructuredFS.mkfs(disk, cpu, small_lfs_config())


@pytest.fixture
def ffs(disk: SimDisk, cpu: CpuModel) -> FastFileSystem:
    return FastFileSystem.mkfs(disk, cpu, small_ffs_config())


@pytest.fixture(params=["lfs", "ffs"])
def anyfs(request, disk: SimDisk, cpu: CpuModel):
    """Parametrized fixture: the same test runs against both systems."""
    if request.param == "lfs":
        return LogStructuredFS.mkfs(disk, cpu, small_lfs_config())
    return FastFileSystem.mkfs(disk, cpu, small_ffs_config())
