"""Namespace layer shared by LFS and the FFS baseline.

The paper keeps UNIX file system *semantics* identical between the two
systems (§4.2); this package holds the semantics — path resolution,
directories, file handles, read/write/truncate — so the two storage
managers differ only in block placement, write timing and recovery.
"""

from repro.vfs.interface import FileHandle, FsStats, StatResult, StorageManager
from repro.vfs.path import split_path

__all__ = [
    "FileHandle",
    "FsStats",
    "StatResult",
    "StorageManager",
    "split_path",
]
