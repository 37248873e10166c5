"""The small-file benchmark (Figure 3).

§5.1: create 10 MB of small files, flush the file cache, read every file
back in creation order, then delete them all.  The paper reports
files/second for each of the three phases, for 1 KB and 10 KB files.
All rates here are in *simulated* time: CPU cost model plus WREN IV disk
service times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CorruptionError
from repro.vfs.interface import StorageManager


@dataclass(frozen=True)
class SmallFileResult:
    """files/second for each phase of the small-file test."""

    num_files: int
    file_size: int
    create_seconds: float
    read_seconds: float
    delete_seconds: float

    @property
    def create_per_second(self) -> float:
        return self.num_files / self.create_seconds

    @property
    def read_per_second(self) -> float:
        return self.num_files / self.read_seconds

    @property
    def delete_per_second(self) -> float:
        return self.num_files / self.delete_seconds


def _file_payload(index: int, size: int) -> bytes:
    """Deterministic, file-specific contents so reads can be verified."""
    stamp = f"file-{index}:".encode()
    reps = size // len(stamp) + 1
    return (stamp * reps)[:size]


def run_small_file_test(
    fs: StorageManager,
    num_files: int = 10000,
    file_size: int = 1024,
    directory: str = "/small",
    verify: bool = True,
) -> SmallFileResult:
    """Run the Figure 3 benchmark against ``fs``, timed by ``fs.clock``."""
    clock = fs.clock  # type: ignore[attr-defined]
    fs.mkdir(directory)

    start = clock.now()
    for index in range(num_files):
        with fs.create(f"{directory}/f{index}") as handle:
            handle.write(_file_payload(index, file_size))
    fs.sync()
    create_seconds = clock.now() - start

    # "the file cache was flushed and all the files were read (in the
    # same order as they were created)"
    fs.flush_caches()
    start = clock.now()
    for index in range(num_files):
        data = fs.read_file(f"{directory}/f{index}")
        if verify and data != _file_payload(index, file_size):
            raise CorruptionError(
                f"file {index} read back wrong contents "
                f"({len(data)} bytes)"
            )
    read_seconds = clock.now() - start

    start = clock.now()
    for index in range(num_files):
        fs.unlink(f"{directory}/f{index}")
    fs.sync()
    delete_seconds = clock.now() - start

    return SmallFileResult(
        num_files=num_files,
        file_size=file_size,
        create_seconds=create_seconds,
        read_seconds=read_seconds,
        delete_seconds=delete_seconds,
    )
