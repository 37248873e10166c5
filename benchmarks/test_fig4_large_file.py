"""FIG4 — large-file transfer rates (KB/second).

Paper claims (§5.2, Figure 4), per phase on a 100 MB file with 8 KB
requests:

* sequential write: LFS near disk bandwidth, well above FFS's
  block-at-a-time writes;
* sequential read: equivalent (both laid the file out sequentially),
  and near the disk's bandwidth: readahead keeps one request in flight
  per 64 KB instead of one per 8 KB request;
* random write: LFS unchanged (the log makes random writes sequential),
  FFS collapses to random in-place I/O;
* random read: equivalent (random I/O either way);
* sequential re-read after random writes: FFS wins — its in-place
  layout is still sequential while LFS's blocks sit in write order.
"""

from benchmarks.conftest import PAPER_SCALE, emit, once
from repro.analysis.report import Table
from repro.disk.geometry import WREN_IV
from repro.harness import fig4_large_file
from repro.units import KIB, MIB
from repro.workloads.largefile import PHASES

FILE_BYTES = 100 * MIB if PAPER_SCALE else 20 * MIB
DISK = 300 * MIB if PAPER_SCALE else 128 * MIB


def test_fig4(benchmark):
    results = once(
        benchmark,
        lambda: fig4_large_file(file_bytes=FILE_BYTES, total_bytes=DISK),
    )
    lfs, ffs = results["lfs"], results["ffs"]

    table = Table(
        ["phase", "LFS KB/s", "FFS KB/s"],
        title=(
            f"Figure 4 ({FILE_BYTES // MIB} MB file, 8 KB requests, "
            "simulated WREN IV)"
        ),
    )
    for phase in PHASES:
        table.row(phase, lfs.kb_per_second(phase), ffs.kb_per_second(phase))
    emit(table.render())

    for phase in PHASES:
        benchmark.extra_info[f"lfs_{phase}"] = round(lfs.kb_per_second(phase))
        benchmark.extra_info[f"ffs_{phase}"] = round(ffs.kb_per_second(phase))

    l, f = lfs.kb_per_second, ffs.kb_per_second
    # Sequential write: LFS wins.
    assert l("seq_write") > 1.2 * f("seq_write")
    # LFS write bandwidth independent of pattern (§5.2).
    assert l("rand_write") >= 0.8 * l("seq_write")
    # Random write: LFS wins big.
    assert l("rand_write") > 2.5 * f("rand_write")
    # Sequential read: comparable, and near the disk's bandwidth.
    assert 0.6 < l("seq_read") / f("seq_read") < 1.7
    bandwidth = WREN_IV.bandwidth / KIB
    assert l("seq_read") >= 0.7 * bandwidth
    assert f("seq_read") >= 0.7 * bandwidth
    # Random read: comparable.
    assert 0.6 < l("rand_read") / f("rand_read") < 1.7
    # Sequential re-read of a randomly written file: FFS wins (the one
    # access pattern where update-in-place beats the log, §5.2).
    assert f("seq_reread") > 1.5 * l("seq_reread")
