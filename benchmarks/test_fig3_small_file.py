"""FIG3 — small-file create/read/delete rates (files/second).

Paper claim (§5.1, Figure 3): LFS creates and deletes small files an
order of magnitude faster than SunOS because it replaces per-file
synchronous random writes with batched sequential log writes; read
rates are comparable (LFS slightly ahead for 1 KB files because they
are packed densely in the log).
"""

import pytest

from benchmarks.conftest import PAPER_SCALE, emit, once
from repro.analysis.report import Table
from repro.harness import fig3_small_file
from repro.units import KIB, MIB

NUM_1K = 10000 if PAPER_SCALE else 2000
NUM_10K = 1000 if PAPER_SCALE else 200
DISK = 300 * MIB if PAPER_SCALE else 128 * MIB


@pytest.mark.parametrize(
    "num_files,file_size,label,min_factor",
    # The create/delete gap narrows for larger files (both systems pay
    # real data-transfer time), exactly as in the paper's Figure 3.
    [(NUM_1K, 1 * KIB, "1KB", 5.0), (NUM_10K, 10 * KIB, "10KB", 3.0)],
    ids=["1k-files", "10k-files"],
)
def test_fig3(benchmark, num_files, file_size, label, min_factor):
    results = once(
        benchmark,
        lambda: fig3_small_file(
            num_files=num_files, file_size=file_size, total_bytes=DISK
        ),
    )
    lfs, ffs = results["lfs"], results["ffs"]

    table = Table(
        ["system", "create/s", "read/s", "delete/s"],
        title=(
            f"Figure 3 ({num_files} x {label} files, simulated "
            "Sun-4/260 + WREN IV)"
        ),
    )
    table.row("Sprite LFS", lfs.create_per_second, lfs.read_per_second,
              lfs.delete_per_second)
    table.row("SunOS FFS", ffs.create_per_second, ffs.read_per_second,
              ffs.delete_per_second)
    emit(table.render())

    benchmark.extra_info.update(
        lfs_create_per_s=round(lfs.create_per_second, 1),
        ffs_create_per_s=round(ffs.create_per_second, 1),
        lfs_read_per_s=round(lfs.read_per_second, 1),
        ffs_read_per_s=round(ffs.read_per_second, 1),
        lfs_delete_per_s=round(lfs.delete_per_second, 1),
        ffs_delete_per_s=round(ffs.delete_per_second, 1),
    )

    # Shape assertions: who wins and by roughly what factor.
    assert lfs.create_per_second > min_factor * ffs.create_per_second
    assert lfs.delete_per_second > min_factor * ffs.delete_per_second
    # Reads comparable; LFS not slower than ~half of FFS.
    assert lfs.read_per_second > 0.5 * ffs.read_per_second
    if file_size == 1 * KIB:
        # 1 KB files are packed densely in the log: read back in the
        # order they were written, LFS is at least as fast.
        assert lfs.read_per_second >= ffs.read_per_second
