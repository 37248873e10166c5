"""Exception hierarchy for the LFS reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also catching programming errors
(``TypeError`` and friends propagate untouched).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class DiskError(ReproError):
    """Base class for errors raised by the simulated disk layer."""


class OutOfRangeError(DiskError):
    """A sector address or length fell outside the device."""


class DeviceCrashedError(DiskError):
    """I/O was attempted on a device that has crashed and not been revived."""


class MediaError(DiskError):
    """A sector is permanently unreadable (grown defect, EIO).

    Retrying does not help; the data at this address is gone.  Layers
    above must either reconstruct the data from elsewhere (alternate
    checkpoint region), skip it (roll-forward stops at the log tail), or
    quarantine the region that contains it (the cleaner)."""

    def __init__(self, message: str, sector: int = -1) -> None:
        super().__init__(message)
        self.sector = sector


class TransientIOError(DiskError):
    """A read failed but a retry of the same request may succeed.

    Models recoverable media noise (ECC retries, vibration).  The timing
    layer retries these with backoff; they should never escape to the
    file system."""


class FileSystemError(ReproError):
    """Base class for file-system level errors."""


class NoSpaceError(FileSystemError):
    """The file system ran out of usable disk space (ENOSPC)."""


class NoInodesError(NoSpaceError):
    """The file system ran out of inodes."""


class FileNotFoundError_(FileSystemError):
    """A path component did not resolve (ENOENT).

    Named with a trailing underscore to avoid shadowing the builtin; exported
    from the package as ``FsFileNotFoundError``.
    """


class FileExistsError_(FileSystemError):
    """The target of a create already exists (EEXIST)."""


class NotADirectoryError_(FileSystemError):
    """A non-final path component resolved to a regular file (ENOTDIR)."""


class IsADirectoryError_(FileSystemError):
    """A file operation was attempted on a directory (EISDIR)."""


class DirectoryNotEmptyError(FileSystemError):
    """rmdir on a directory that still has entries (ENOTEMPTY)."""


class InvalidArgumentError(FileSystemError):
    """A caller-supplied argument was invalid (EINVAL)."""


class StaleHandleError(FileSystemError):
    """An operation used a handle whose file was deleted or FS unmounted."""


class ReadOnlyFSError(FileSystemError):
    """A mutation was attempted on a file system in degraded read-only
    mode (EROFS).

    Raised once the quarantine budget is exhausted: media damage has
    destroyed more segments than the volume is allowed to silently lose,
    so writes are refused while reads of surviving data continue.  The
    service layer maps this to a ``REJECT_DEGRADED`` admission outcome
    rather than letting it escape a request."""


class ConfigError(InvalidArgumentError):
    """A rig configuration violates one or more cross-field constraints.

    Unlike :class:`InvalidArgumentError` (one bad field, raised by the
    dataclass validators), this carries *every* violated constraint found
    by :func:`repro.service.config.validate_rig` so a misconfigured rig
    is fixed in one round trip."""

    def __init__(self, violations) -> None:
        self.violations = tuple(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(
            f"invalid rig configuration ({len(self.violations)} "
            f"constraint(s) violated):\n{lines}"
        )

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the rendered
        # message) into ``__init__``; rebuild from the violations so the
        # error survives the trip home from a ``--jobs N`` worker.
        return (type(self), (self.violations,))


class CorruptionError(FileSystemError):
    """On-disk state failed validation (bad magic, checksum, or pointer)."""


class ChecksumMismatch(CorruptionError):
    """A CRC-protected structure (checkpoint, summary) failed its check.

    Distinguished from plain :class:`CorruptionError` so recovery code
    can tell "this structure was damaged in place" (fall back to the
    alternate copy, stop roll-forward) from "this pointer never made
    sense"."""


class TornWriteError(CorruptionError):
    """A multi-block structure persisted only partially across a crash.

    Raised when the readable prefix of a structure is valid but the
    structure claims more blocks than actually survived — the signature
    of a torn write at the end of the log."""


class CheckpointError(CorruptionError):
    """No valid checkpoint region could be loaded at mount time."""


class CleanerError(FileSystemError):
    """The segment cleaner entered an impossible state."""


class FsckError(FileSystemError):
    """fsck found damage it could not repair."""
