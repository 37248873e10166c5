"""Per-operation CPU cost model.

The paper's central scaling argument (§2, §3.1) is about the *coupling*
between CPU time and disk time: under the BSD file system a 15x faster CPU
buys almost nothing because each create/delete blocks on synchronous disk
writes, while LFS performs only CPU work on those paths and therefore
scales with the processor.

To reproduce that argument we charge simulated CPU time for each file
system operation.  The base costs below are calibrated so that, at
``speed_factor=1.0`` (a Sun-4/260-class machine, the paper's testbed), the
simulated LFS is CPU-bound on the small-file benchmark — exactly what §5.1
reports — and so that absolute files/second land in the same decade as the
paper.  The ``speed_factor`` scales all costs down linearly, modeling a
faster CPU on the same disk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sim.clock import SimClock
from repro.units import MICROSECOND, MILLISECOND


@dataclass(frozen=True)
class CpuCosts:
    """CPU seconds charged per operation at ``speed_factor = 1.0``."""

    syscall: float = 0.3 * MILLISECOND
    """Fixed entry/exit cost of any file system call."""

    path_component: float = 0.4 * MILLISECOND
    """Directory lookup cost per path component (namei)."""

    create: float = 2.2 * MILLISECOND
    """Inode allocation plus directory insertion for a create/mkdir."""

    remove: float = 1.4 * MILLISECOND
    """Inode free plus directory removal for an unlink/rmdir."""

    copy_per_byte: float = 0.16 * MICROSECOND
    """Cost of moving one byte between user space and the file cache."""

    block_touch: float = 0.25 * MILLISECOND
    """Per-block bookkeeping (cache lookup, pointer update) on read/write."""

    cleaner_per_block: float = 0.20 * MILLISECOND
    """Segment cleaner CPU per live block examined or copied."""

    checkpoint: float = 1.0 * MILLISECOND
    """Fixed cost of assembling a checkpoint region."""

    def scaled(self, speed_factor: float) -> "CpuCosts":
        """Return costs for a CPU ``speed_factor`` times faster."""
        if speed_factor <= 0:
            raise ValueError(f"speed factor must be positive: {speed_factor}")
        return replace(
            self,
            **{
                field: getattr(self, field) / speed_factor
                for field in (
                    "syscall",
                    "path_component",
                    "create",
                    "remove",
                    "copy_per_byte",
                    "block_touch",
                    "cleaner_per_block",
                    "checkpoint",
                )
            },
        )


class CpuModel:
    """Charges CPU time against a :class:`SimClock` and keeps totals.

    The charges the file system makes on every call are each one
    addition to the total and one ``advance``, made by the method
    itself.  A charge is never merged with the next one: float addition
    is not associative, so the clock's last digits would move.
    """

    def __init__(
        self,
        clock: SimClock,
        speed_factor: float = 1.0,
    ) -> None:
        self.clock = clock
        self.speed_factor = speed_factor
        self.costs = CpuCosts().scaled(speed_factor)
        self.total_cpu_seconds = 0.0

    def charge(self, seconds: float) -> None:
        """Charge an arbitrary amount of CPU time."""
        if seconds < 0:
            raise ValueError(f"negative CPU charge: {seconds}")
        self.total_cpu_seconds += seconds
        self.clock.advance(seconds)

    def checkpoint(self) -> None:
        self.charge(self.costs.checkpoint)

    # The file system's per-call charges; the clock refuses a negative one.

    def syscall(self) -> None:
        seconds = self.costs.syscall
        self.total_cpu_seconds += seconds
        self.clock.advance(seconds)

    def path_lookup(self, n_components: int) -> None:
        seconds = self.costs.path_component * n_components
        self.total_cpu_seconds += seconds
        self.clock.advance(seconds)

    def create(self) -> None:
        seconds = self.costs.create
        self.total_cpu_seconds += seconds
        self.clock.advance(seconds)

    def remove(self) -> None:
        seconds = self.costs.remove
        self.total_cpu_seconds += seconds
        self.clock.advance(seconds)

    def copy(self, nbytes: int) -> None:
        """Charge for copying ``nbytes`` of file data."""
        seconds = self.costs.copy_per_byte * nbytes
        self.total_cpu_seconds += seconds
        self.clock.advance(seconds)

    def block_touch(self, nblocks: int = 1) -> None:
        seconds = self.costs.block_touch * nblocks
        self.total_cpu_seconds += seconds
        self.clock.advance(seconds)

    def cleaner_blocks(self, nblocks: int) -> None:
        """The cleaner's charge: once per partial segment for its summary
        entries, then once per live block it relocates."""
        seconds = self.costs.cleaner_per_block * nblocks
        self.total_cpu_seconds += seconds
        self.clock.advance(seconds)

    def __repr__(self) -> str:
        return (
            f"CpuModel(speed_factor={self.speed_factor}, "
            f"total_cpu={self.total_cpu_seconds:.6f}s)"
        )
