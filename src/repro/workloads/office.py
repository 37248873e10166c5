"""A synthetic office/engineering workload (§3's characterization).

The paper's conclusion says the real test of LFS is "its performance
over months and years of use", which the authors had not yet run.  This
workload is the closest laptop-scale stand-in: a steady-state churn of
small, short-lived files with Zipf access locality, which exercises the
cleaner under a realistic (non-uniform) segment-utilization
distribution.  The ablation benchmark runs it under each cleaner policy
and compares write cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.vfs.interface import StorageManager
from repro.workloads.generator import FileSizeSampler, ZipfPicker


@dataclass
class OfficeState:
    """Carry-over state so successive runs continue the same population
    (used by the aging study to churn one file system for many epochs)."""

    live: List[str] = field(default_factory=list)
    counter: int = 0


@dataclass
class OfficeResult:
    """Steady-state churn metrics."""

    operations: int
    files_created: int
    files_deleted: int
    bytes_written: int
    bytes_read: int
    elapsed_seconds: float
    ops_per_second: float
    final_live_files: int
    write_cost: Optional[float] = None
    segments_cleaned: Optional[int] = None


def run_office_workload(
    fs: StorageManager,
    operations: int = 5000,
    target_population: int = 500,
    read_fraction: float = 0.5,
    overwrite_fraction: float = 0.2,
    seed: int = 0,
    directory: str = "/office",
    state: Optional[OfficeState] = None,
) -> OfficeResult:
    """Churn files the way an office/engineering workstation does.

    Each step is one of: create a new file (whole-file write), read a
    live file sequentially and entirely, overwrite a live file
    (truncate + rewrite, the dominant small-file update mode §4.3.3
    relies on), or delete the oldest files when the population exceeds
    its target (short lifetimes).
    """
    clock = fs.clock  # type: ignore[attr-defined]
    sizes = FileSizeSampler(seed=seed)
    picker = ZipfPicker(seed=seed + 1)
    if not fs.exists(directory):
        fs.mkdir(directory)

    state = state if state is not None else OfficeState()
    live = state.live  # oldest first
    counter = state.counter
    created = deleted = 0
    bytes_written = bytes_read = 0
    start = clock.now()

    for _step in range(operations):
        if live and picker.coin(read_fraction):
            # Read a popular file sequentially and entirely.
            name = live[len(live) - 1 - picker.pick(len(live))]
            bytes_read += len(fs.read_file(name))
        elif live and picker.coin(overwrite_fraction):
            # Total overwrite of a recently created file.
            name = live[len(live) - 1 - picker.pick(len(live))]
            payload = b"o" * sizes.sample()
            with fs.open(name) as handle:
                handle.truncate(0)
                handle.write(payload)
            bytes_written += len(payload)
        else:
            name = f"{directory}/doc{counter}"
            counter += 1
            payload = b"c" * sizes.sample()
            with fs.create(name) as handle:
                handle.write(payload)
            live.append(name)
            created += 1
            bytes_written += len(payload)
        while len(live) > target_population:
            victim = live.pop(0)  # shortest remaining lifetime: oldest
            fs.unlink(victim)
            deleted += 1

    fs.sync()
    elapsed = clock.now() - start
    state.counter = counter

    result = OfficeResult(
        operations=operations,
        files_created=created,
        files_deleted=deleted,
        bytes_written=bytes_written,
        bytes_read=bytes_read,
        elapsed_seconds=elapsed,
        ops_per_second=operations / elapsed if elapsed > 0 else float("inf"),
        final_live_files=len(live),
    )
    write_cost = getattr(fs, "write_cost", None)
    if callable(write_cost):
        result.write_cost = write_cost()
        result.segments_cleaned = fs.cleaner.stats.segments_cleaned  # type: ignore[attr-defined]
    return result
