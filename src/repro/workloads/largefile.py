"""The large-file benchmark (Figure 4).

§5.2: five stages against a single 100 MB file on a newly created file
system, all with an 8 KB request size:

1. write the file sequentially,
2. read it sequentially,
3. write 100 MB to random (block-aligned, non-unique) offsets,
4. read 100 MB from random offsets,
5. re-read the file sequentially.

The interesting cell is stage 5: after the random writes, LFS's blocks
lie in write order in the log, so a sequential read becomes random I/O,
while the update-in-place baseline kept them sequential.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.units import KIB, MIB
from repro.vfs.interface import StorageManager

PHASES = ("seq_write", "seq_read", "rand_write", "rand_read", "seq_reread")


@dataclass(frozen=True)
class LargeFileResult:
    """KB/s for each of the five stages."""

    file_bytes: int
    request_bytes: int
    seconds: Dict[str, float]

    def kb_per_second(self, phase: str) -> float:
        return (self.file_bytes / KIB) / self.seconds[phase]


def _request_payload(offset: int, size: int) -> bytes:
    stamp = f"@{offset}:".encode()
    reps = size // len(stamp) + 1
    return (stamp * reps)[:size]


def run_large_file_test(
    fs: StorageManager,
    file_bytes: int = 100 * MIB,
    request_bytes: int = 8 * KIB,
    path: str = "/big",
    seed: int = 42,
) -> LargeFileResult:
    """Run the Figure 4 benchmark against ``fs``, timed by ``fs.clock``."""
    clock = fs.clock  # type: ignore[attr-defined]
    rng = random.Random(seed)
    n_requests = file_bytes // request_bytes
    offsets: List[int] = [i * request_bytes for i in range(n_requests)]
    seconds: Dict[str, float] = {}

    handle = fs.create(path)

    start = clock.now()
    for offset in offsets:
        handle.pwrite(offset, _request_payload(offset, request_bytes))
    fs.sync()
    seconds["seq_write"] = clock.now() - start

    fs.flush_caches()
    start = clock.now()
    for offset in offsets:
        handle.pread(offset, request_bytes)
    seconds["seq_read"] = clock.now() - start

    # "the random file writes become sequential writes when packed into
    # segments ... the random I/Os were not unique" — sample offsets
    # with replacement, as the paper did.
    random_offsets = [rng.randrange(n_requests) * request_bytes for _ in offsets]
    fs.flush_caches()
    start = clock.now()
    for offset in random_offsets:
        handle.pwrite(offset, _request_payload(offset ^ 1, request_bytes))
    fs.sync()
    seconds["rand_write"] = clock.now() - start

    random_read_offsets = [
        rng.randrange(n_requests) * request_bytes for _ in offsets
    ]
    fs.flush_caches()
    start = clock.now()
    for offset in random_read_offsets:
        handle.pread(offset, request_bytes)
    seconds["rand_read"] = clock.now() - start

    fs.flush_caches()
    start = clock.now()
    for offset in offsets:
        handle.pread(offset, request_bytes)
    seconds["seq_reread"] = clock.now() - start

    handle.close()
    return LargeFileResult(
        file_bytes=file_bytes, request_bytes=request_bytes, seconds=seconds
    )
