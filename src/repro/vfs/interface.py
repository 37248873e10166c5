"""Public storage-manager interface.

:class:`StorageManager` is the API the paper's benchmarks exercise; both
:class:`repro.lfs.LogStructuredFS` and :class:`repro.ffs.FastFileSystem`
implement it, so every workload in :mod:`repro.workloads` runs unchanged
against either system.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.inode import FileType
from repro.errors import (
    FileNotFoundError_,
    NotADirectoryError_,
    StaleHandleError,
)


@dataclass(frozen=True)
class StatResult:
    """Subset of ``struct stat`` the benchmarks and tests need."""

    inum: int
    ftype: FileType
    size: int
    nlink: int
    mtime: float
    atime: float

    @property
    def is_dir(self) -> bool:
        return self.ftype is FileType.DIRECTORY


@dataclass(frozen=True)
class VfsInfo:
    """``statvfs``-style capacity report."""

    total_bytes: int
    used_bytes: int
    free_bytes: int
    total_files: int
    used_files: int


@dataclass
class FsStats:
    """Operation counters kept by every storage manager."""

    creates: int = 0
    removes: int = 0
    mkdirs: int = 0
    opens: int = 0
    read_calls: int = 0
    write_calls: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    syncs: int = 0
    writebacks: Dict[str, int] = field(default_factory=dict)

    def note_writeback(self, reason: str) -> None:
        self.writebacks[reason] = self.writebacks.get(reason, 0) + 1


class FileHandle:
    """An open file: a position plus read/write calls against the FS.

    ``generation`` is how many times ``inum`` had been freed when the
    file was opened: once the file is deleted and its number reused,
    the file system refuses the handle instead of writing into the new
    file.
    """

    def __init__(
        self, fs: "StorageManager", inum: int, path: str, generation: int = 0
    ) -> None:
        self._fs = fs
        self.inum = inum
        self.path = path
        self.generation = generation
        self.pos = 0
        self.closed = False

    def _check(self) -> None:
        if self.closed:
            raise StaleHandleError(f"handle for {self.path} is closed")

    def read(self, length: Optional[int] = None) -> bytes:
        """Read ``length`` bytes from the current position (rest if None)."""
        self._check()
        data = self._fs.pread(self, self.pos, length)
        self.pos += len(data)
        return data

    def write(self, data: bytes) -> int:
        """Write ``data`` at the current position."""
        self._check()
        written = self._fs.pwrite(self, self.pos, data)
        self.pos += written
        return written

    def pread(self, offset: int, length: Optional[int] = None) -> bytes:
        self._check()
        return self._fs.pread(self, offset, length)

    def pwrite(self, offset: int, data: bytes) -> int:
        self._check()
        return self._fs.pwrite(self, offset, data)

    def fsync(self) -> None:
        """Block until this file's data and metadata are durable."""
        self._check()
        self._fs.fsync(self)

    def truncate(self, size: int = 0) -> None:
        self._check()
        self._fs.ftruncate(self, size)
        self.pos = min(self.pos, size)

    @property
    def size(self) -> int:
        self._check()
        return self._fs.handle_size(self)

    def close(self) -> None:
        self.closed = True

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"pos={self.pos}"
        return f"FileHandle({self.path!r}, inum={self.inum}, {state})"


class StorageManager(abc.ABC):
    """Abstract UNIX-like storage manager (the paper's term for the FS)."""

    # -- namespace ------------------------------------------------------

    @abc.abstractmethod
    def create(self, path: str) -> FileHandle:
        """Create a regular file; error if it exists.  Returns a handle."""

    @abc.abstractmethod
    def open(self, path: str) -> FileHandle:
        """Open an existing regular file."""

    @abc.abstractmethod
    def unlink(self, path: str) -> None:
        """Remove a regular file."""

    @abc.abstractmethod
    def mkdir(self, path: str) -> None:
        """Create a directory; parent must exist."""

    @abc.abstractmethod
    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""

    @abc.abstractmethod
    def rename(self, old_path: str, new_path: str) -> None:
        """Move/rename; an existing regular file target is replaced."""

    @abc.abstractmethod
    def listdir(self, path: str) -> List[str]:
        """Sorted names in a directory."""

    @abc.abstractmethod
    def stat(self, path: str) -> StatResult:
        """Attributes of a path."""

    def exists(self, path: str) -> bool:
        """Whether a path resolves.

        Only a path that does not resolve reads as absent: an unmounted
        file system, an unreadable or corrupt block raise as ``stat``
        does.
        """
        try:
            self.stat(path)
            return True
        except (FileNotFoundError_, NotADirectoryError_):
            return False

    # -- file I/O ---------------------------------------------------

    @abc.abstractmethod
    def pread(
        self, handle: FileHandle, offset: int, length: Optional[int]
    ) -> bytes:
        """Read from an open file at an absolute offset."""

    @abc.abstractmethod
    def pwrite(self, handle: FileHandle, offset: int, data: bytes) -> int:
        """Write to an open file at an absolute offset."""

    @abc.abstractmethod
    def ftruncate(self, handle: FileHandle, size: int) -> None:
        """Change an open file's size."""

    @abc.abstractmethod
    def handle_size(self, handle: FileHandle) -> int:
        """Current size of an open file."""

    # -- convenience wrappers -------------------------------------------

    def write_file(self, path: str, data: bytes) -> None:
        """Create-or-replace a file with ``data``."""
        if self.exists(path):
            with self.open(path) as handle:
                handle.truncate(0)
                handle.write(data)
        else:
            with self.create(path) as handle:
                handle.write(data)

    def read_file(self, path: str) -> bytes:
        """Whole contents of a file."""
        return self.pread(self.open(path), 0, None)

    @abc.abstractmethod
    def statvfs(self) -> VfsInfo:
        """Capacity and inode usage (``df``)."""

    # -- durability -------------------------------------------------

    @abc.abstractmethod
    def sync(self) -> None:
        """Push every dirty block to disk and wait for completion."""

    @abc.abstractmethod
    def fsync(self, handle: FileHandle) -> None:
        """Make one file durable (§4.3.5's "sync request" trigger).

        LFS has no cheaper unit than the pending partial segment, so
        this flushes the log; FFS pushes just the file's blocks and its
        inode.
        """

    @abc.abstractmethod
    def flush_caches(self) -> None:
        """Drop clean cached state so future reads hit the disk.

        This is the benchmarks' "the file cache was flushed" step; dirty
        data is synced first so nothing is lost.
        """

    @abc.abstractmethod
    def unmount(self) -> None:
        """Cleanly shut down (sync; LFS also writes a checkpoint)."""

    # -- introspection ----------------------------------------------

    @property
    @abc.abstractmethod
    def stats(self) -> FsStats:
        """Operation counters."""

    @property
    @abc.abstractmethod
    def block_size(self) -> int:
        """File system block size in bytes."""
