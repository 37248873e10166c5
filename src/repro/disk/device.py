"""The raw sector device and its crash semantics.

A :class:`SectorDevice` is a flat array of sectors.  Reads always observe
the most recently written data (a real disk serves reads from its own
queue), but a write only becomes *durable* at its completion time, which
the timing layer (:class:`repro.disk.sim_disk.SimDisk`) supplies.  When
the device crashes, every write whose completion time is after the crash
instant is rolled back, so the surviving image is exactly what a real
power failure would leave given the simulated I/O schedule.

This is the mechanism behind all crash-recovery experiments: LFS loses at
most the writes since its last checkpoint, while the FFS baseline can be
left with inconsistent metadata that fsck must repair.

Durability tracking is incremental.  The timing layer issues writes in
FIFO busy-timeline order (completion times never decrease) and advances
durability with a monotone clock, so undo records live in a
completion-time-ordered deque whose durable prefix :meth:`mark_durable`
drains from the left — O(1) amortized per record, instead of rebuilding
the whole pending list on every I/O.  Synchronous writes (the caller
blocks until the completion time has passed, so no crash can ever
observe them half-done) declare ``durable=True`` and skip the undo
record entirely.  Callers that bypass the timing layer keep the exact
historical semantics: writes whose completion times go backwards flip
the deque into a slow path that filters like the original
implementation.
"""

from __future__ import annotations

import mmap
import os
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.errors import DeviceCrashedError, OutOfRangeError
from repro.units import SECTOR_SIZE


@dataclass
class _PendingWrite:
    """Undo record for a write that is not yet durable."""

    completion_time: float
    sector: int
    old_data: bytes


class SectorDevice:
    """A crash-aware array of fixed-size sectors."""

    def __init__(
        self,
        num_sectors: int,
        sector_size: int = SECTOR_SIZE,
        *,
        initial_data: "bytearray | mmap.mmap | None" = None,
    ) -> None:
        if num_sectors <= 0:
            raise ValueError(f"device needs at least one sector: {num_sectors}")
        if sector_size <= 0:
            raise ValueError(f"sector size must be positive: {sector_size}")
        self.num_sectors = num_sectors
        self.sector_size = sector_size
        if initial_data is not None:
            if len(initial_data) != num_sectors * sector_size:
                raise OutOfRangeError(
                    f"initial image is {len(initial_data)} bytes, device "
                    f"needs {num_sectors * sector_size}"
                )
            self._data = initial_data  # a writable buffer: load()'s mapping
        else:
            # Anonymous pages are zero until first written, so a fresh
            # volume costs memory only for the sectors actually touched
            # (bytearray(n) would fault in all of them).  Private, not
            # the default shared: a forked worker must not write into
            # its parent's image.
            self._data = mmap.mmap(
                -1,
                num_sectors * sector_size,
                flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS,
            )
        self._pending: Deque[_PendingWrite] = deque()
        self._pending_monotone = True
        self._crashed = False
        self.total_sectors_written = 0
        self.total_sectors_read = 0
        # Operation counts (asserted by tests): each undo record
        # is created once and pays one scan step when it is drained, so
        # durability_scan_steps <= undo_records_created proves the
        # mark_durable work is O(1) amortized per write (the old
        # implementation rebuilt the whole list per call).
        self.undo_records_created = 0
        self.undo_records_skipped = 0
        self.durability_scan_steps = 0
        self.mark_durable_calls = 0
        self.torn_writes = 0
        """Rolled-back writes of which a prefix survived (see crash())."""

    @property
    def total_bytes(self) -> int:
        return self.num_sectors * self.sector_size

    def _check_range(self, sector: int, count: int) -> None:
        if self._crashed:
            raise DeviceCrashedError("device has crashed; call revive() first")
        if count <= 0:
            raise OutOfRangeError(f"transfer must cover at least one sector: {count}")
        if sector < 0 or sector + count > self.num_sectors:
            raise OutOfRangeError(
                f"sectors [{sector}, {sector + count}) outside device of "
                f"{self.num_sectors} sectors"
            )

    def read(self, sector: int, count: int, *, copy: bool = False) -> "bytes | memoryview":
        """Read ``count`` sectors starting at ``sector``.

        Returns a read-only :class:`memoryview` aliasing the device's
        backing buffer — zero copies, zero allocations beyond the view
        object itself.  The view stays coherent with later writes (it
        aliases live storage), so callers that need a stable snapshot
        must pass ``copy=True`` (or copy the view themselves) — that is
        the explicit-copy escape hatch; everything on the hot path works
        directly on the view.
        """
        self._check_range(sector, count)
        self.total_sectors_read += count
        start = sector * self.sector_size
        end = start + count * self.sector_size
        if copy:
            return bytes(self._data[start:end])  # alloc-ok: explicit snapshot
        return memoryview(self._data)[start:end].toreadonly()

    def write(
        self,
        sector: int,
        data: bytes,
        completion_time: float = 0.0,
        durable: bool = False,
    ) -> None:
        """Write ``data`` (a whole number of sectors) at ``sector``.

        The new contents are immediately visible to reads but only durable
        once the simulated clock passes ``completion_time``; see
        :meth:`crash`.  With ``durable=True`` the caller asserts the write
        can never be rolled back (it will advance the clock past the
        completion time before any crash can be observed — the timing
        layer's synchronous-write path), so no undo record is kept.

        ``data`` may be any buffer (``bytes``, ``bytearray``,
        ``memoryview``); the slice assignment below copies it into the
        device image, so callers may reuse their buffer immediately.  It
        must not alias this device's own backing storage.
        """
        if len(data) % self.sector_size:
            raise OutOfRangeError(
                f"write of {len(data)} bytes is not sector-aligned "
                f"(sector size {self.sector_size})"
            )
        count = len(data) // self.sector_size
        self._check_range(sector, count)
        self.total_sectors_written += count
        start = sector * self.sector_size
        if durable:
            # The undo record would be dropped by the caller's own
            # mark_durable before any crash could observe it, so never
            # allocate it (nor copy the overwritten bytes).
            self.undo_records_skipped += 1
        else:
            pending = self._pending
            if pending and completion_time < pending[-1].completion_time:
                self._pending_monotone = False
            pending.append(
                _PendingWrite(
                    completion_time=completion_time,
                    sector=sector,
                    # The undo record must snapshot the bytes being
                    # overwritten — crash() needs them long after the
                    # live image has moved on.  This is the one genuine
                    # copy on the write path.
                    old_data=bytes(  # alloc-ok: crash-rollback snapshot
                        self._data[start : start + len(data)]
                    ),
                )
            )
            self.undo_records_created += 1
        self._data[start : start + len(data)] = data

    def mark_durable(self, now: float) -> None:
        """Forget undo records for writes completed at or before ``now``."""
        self.mark_durable_calls += 1
        pending = self._pending
        if self._pending_monotone:
            while pending and pending[0].completion_time <= now:
                pending.popleft()
                self.durability_scan_steps += 1
        else:
            # Out-of-order completion times (direct device users only):
            # fall back to the original filter, preserving write order.
            self.durability_scan_steps += len(pending)
            kept = deque(p for p in pending if p.completion_time > now)
            self._pending = kept
            if not kept:
                self._pending_monotone = True

    def pending_writes(self) -> int:
        """Number of writes that are visible but not yet durable."""
        return len(self._pending)

    def crash(
        self,
        now: float,
        rng: Optional[random.Random] = None,
        tear_probability: float = 0.0,
    ) -> None:
        """Simulate a power failure at time ``now``.

        Writes whose completion time is after ``now`` are rolled back in
        reverse order, restoring the exact durable image.  The device then
        refuses I/O until :meth:`revive` is called.

        With an ``rng``, each rolled-back multi-sector write may instead
        be *torn* (probability ``tear_probability``): a non-empty prefix
        of its sectors persists and only the suffix is rolled back —
        what a real disk leaves when power fails mid-transfer.  The hook
        rides the ordinary pending-write records, so torn writes
        automatically respect the same durability schedule as whole
        ones.
        """
        self.mark_durable(now)
        pending = self._pending
        while pending:
            record = pending.pop()  # reverse write order
            nsectors = len(record.old_data) // self.sector_size
            keep = 0
            if (
                rng is not None
                and nsectors > 1
                and rng.random() < tear_probability
            ):
                keep = rng.randrange(1, nsectors)
                self.torn_writes += 1
            skip = keep * self.sector_size
            start = record.sector * self.sector_size + skip
            self._data[start : record.sector * self.sector_size + len(record.old_data)] = (
                record.old_data[skip:]
            )
        self._pending_monotone = True
        self._crashed = True

    def revive(self) -> None:
        """Bring a crashed device back online (contents unchanged)."""
        self._crashed = False

    @property
    def crashed(self) -> bool:
        return self._crashed

    def snapshot(self) -> bytes:
        """A copy of the current (possibly non-durable) device image."""
        return bytes(self._data)  # alloc-ok: snapshot API, copy is the point

    def save(self, path: str) -> None:
        """Persist the device image to a host file, atomically: written
        beside ``path`` and renamed over it, because ``path`` may be the file
        :meth:`load` mapped and truncating a mapped file is a SIGBUS."""
        scratch = f"{path}.{os.getpid()}.tmp"
        try:
            with open(scratch, "wb") as handle:
                handle.write(self._data)
            os.replace(scratch, path)
        finally:
            if os.path.exists(scratch):  # the save failed part-way
                os.unlink(scratch)

    @classmethod
    def load(cls, path: str, sector_size: int = SECTOR_SIZE) -> "SectorDevice":
        """Recreate a device from a host file written by :meth:`save`.

        The file is mapped copy-on-write: only the sectors touched are
        paged in, and writes stay private until the next :meth:`save`.
        """
        size = os.path.getsize(path)
        if not size or size % sector_size:
            raise OutOfRangeError(
                f"image {path!r} is {size} bytes: not a whole number "
                f"of {sector_size}-byte sectors"
            )
        with open(path, "rb") as handle:
            data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_COPY)
        return cls(len(data) // sector_size, sector_size, initial_data=data)

    def __repr__(self) -> str:
        return (
            f"SectorDevice({self.num_sectors} x {self.sector_size}B, "
            f"pending={len(self._pending)}, crashed={self._crashed})"
        )
