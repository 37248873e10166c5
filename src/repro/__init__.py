"""Reproduction of Rosenblum & Ousterhout, *The LFS Storage Manager*
(USENIX 1990).

The package provides:

* :mod:`repro.lfs` — the log-structured storage manager (the paper's
  contribution): segmented append-only log, inode map, segment cleaner,
  dual checkpoint regions, roll-forward crash recovery;
* :mod:`repro.ffs` — the BSD fast file system baseline the paper
  compares against, including fsck;
* :mod:`repro.disk`, :mod:`repro.sim`, :mod:`repro.cache`,
  :mod:`repro.vfs` — the simulated substrate (WREN IV disk service-time
  model, CPU cost model, file cache, UNIX file semantics);
* :mod:`repro.workloads`, :mod:`repro.harness`, :mod:`repro.analysis` —
  the paper's benchmarks (Figures 1-5, §3.1) and reporting;
* :mod:`repro.faults` — deterministic media-fault injection (torn
  writes, bit rot, bad sectors, transient I/O errors) and the
  ``repro crashtest`` crash+corruption campaign;
* :mod:`repro.service` — a simulated-time multi-client front-end:
  request scheduler, group commit, and cleaner-aware admission control
  (``repro serve-sim``).

Quickstart::

    from repro import make_lfs
    fs = make_lfs()
    fs.mkdir("/dir1")
    with fs.create("/dir1/file1") as handle:
        handle.write(b"hello, log-structured world")
    print(fs.read_file("/dir1/file1"))
    fs.unmount()
"""

from repro.disk.geometry import DiskGeometry, FAST_1990S_DISK, NULL_TIMING, WREN_IV
from repro.disk.sim_disk import SimDisk
from repro.errors import (
    ChecksumMismatch,
    CorruptionError,
    FileExistsError_ as FsFileExistsError,
    FileNotFoundError_ as FsFileNotFoundError,
    FileSystemError,
    MediaError,
    NoSpaceError,
    ReproError,
    TornWriteError,
    TransientIOError,
)
from repro.faults import FaultConfig, FaultInjector, FaultyDevice, run_campaign
from repro.ffs.config import FfsConfig
from repro.ffs.filesystem import FastFileSystem, make_ffs
from repro.ffs.fsck import fsck
from repro.lfs.config import LfsConfig
from repro.lfs.filesystem import LogStructuredFS, make_lfs
from repro.service import ServiceConfig, ServiceStats, simulate_service
from repro.sim.clock import SimClock
from repro.sim.cpu import CpuCosts, CpuModel
from repro.vfs.interface import FileHandle, StorageManager

__version__ = "1.0.0"

__all__ = [
    "make_lfs",
    "make_ffs",
    "LogStructuredFS",
    "FastFileSystem",
    "LfsConfig",
    "FfsConfig",
    "fsck",
    "StorageManager",
    "FileHandle",
    "SimClock",
    "CpuModel",
    "CpuCosts",
    "SimDisk",
    "DiskGeometry",
    "WREN_IV",
    "FAST_1990S_DISK",
    "NULL_TIMING",
    "ReproError",
    "FileSystemError",
    "NoSpaceError",
    "FsFileNotFoundError",
    "FsFileExistsError",
    "CorruptionError",
    "ChecksumMismatch",
    "TornWriteError",
    "MediaError",
    "TransientIOError",
    "FaultConfig",
    "FaultInjector",
    "FaultyDevice",
    "run_campaign",
    "ServiceConfig",
    "ServiceStats",
    "simulate_service",
    "__version__",
]
