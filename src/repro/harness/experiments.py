"""Runners for every table and figure in the paper's evaluation.

Each function builds fresh simulated hardware (the WREN IV geometry the
paper used, unless told otherwise), runs the workload against LFS and —
where the paper compares — the FFS baseline, and returns plain data the
benchmarks and examples format.  All reported times and rates are
*simulated*: disk service model plus CPU cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.write_cost import analytic_cleaning_rate, analytic_write_cost
from repro.ffs.filesystem import FastFileSystem
from repro.ffs.fsck import fsck
from repro.lfs.config import CleanerPolicy, LfsConfig
from repro.lfs.filesystem import LogStructuredFS
from repro.obs import Telemetry
from repro.obs.tracer import Span
from repro.rig import new_rig
from repro.sim.clock import SimClock
from repro.sim.cpu import CpuModel
from repro.units import KIB, MIB, fmt_bytes, fmt_time
from repro.workloads.cleaning import CleaningPoint, run_cleaning_rate_test
from repro.workloads.largefile import LargeFileResult, run_large_file_test
from repro.workloads.office import OfficeResult, run_office_workload
from repro.workloads.smallfile import SmallFileResult, run_small_file_test


# ---------------------------------------------------------------------------
# FIG1 / FIG2 — the two-file creation disk traces
# ---------------------------------------------------------------------------


@dataclass
class CreationTrace:
    """Disk requests caused by the paper's two-file creation example."""

    kind: str
    write_requests: int
    sync_writes: int
    random_writes: int
    bytes_written: int
    table: str
    disk_image: str


def render_table(spans: Iterable[Span]) -> str:
    """Figure 1/2-style listing of the ``disk.write`` spans in ``spans``."""
    header = (
        f"{'time':>9}  {'op':5} {'mode':5} {'position':10} "
        f"{'sector':>15} {'size':>9}  label"
    )
    lines = [header, "-" * len(header)]
    for span in spans:
        if span.kind != "disk.write":
            continue
        attrs = span.attrs
        mode = "sync" if attrs["sync"] else "async"
        lines.append(
            f"{fmt_time(span.start):>9}  write {mode:5} {attrs['tier']:10} "
            f"sector {attrs['sector']:>8} {fmt_bytes(attrs['bytes']):>9}  "
            f"{attrs['label']}"
        )
    return "\n".join(lines)


def render_disk_image(
    spans: Iterable[Span], num_sectors: int, sector_size: int, width: int = 72
) -> str:
    """ASCII picture of where on disk the ``disk.write`` spans landed.

    Each column covers ``num_sectors / width`` sectors.  ``S`` marks a
    synchronous write, ``w`` an asynchronous one, and ``.`` an untouched
    region: the disk images of the paper's Figures 1 and 2, as text.
    """
    if num_sectors <= 0 or width <= 0:
        raise ValueError("num_sectors and width must be positive")
    cells = ["."] * width
    for span in spans:
        if span.kind != "disk.write":
            continue
        sector, sync = span.attrs["sector"], span.attrs["sync"]
        last = sector + span.attrs["bytes"] // sector_size - 1
        first_cell = min(sector * width // num_sectors, width - 1)
        last_cell = min(last * width // num_sectors, width - 1)
        for cell in range(first_cell, last_cell + 1):
            if sync:
                cells[cell] = "S"
            elif cells[cell] != "S":
                cells[cell] = "w"
    return "".join(cells)


def fig1_fig2_creation_traces(
    total_bytes: int = 64 * MIB,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, CreationTrace]:
    """Reproduce Figures 1 and 2.

    The traced system calls are exactly §3.1's::

        fd = creat("dir1/file1"); write(fd, buffer, blockSize); close(fd);
        fd = creat("dir2/file2"); write(fd, buffer, blockSize); close(fd);

    followed by the delayed write-back.  FFS should show many small
    random writes, half synchronous; LFS one large sequential
    asynchronous transfer.

    The requests are read from the ``disk.write`` spans of
    ``telemetry``, which must trace I/O (a ``Telemetry(trace_io=True)``
    of its own when none is given).
    """
    if telemetry is None:
        telemetry = Telemetry(trace_io=True)
    elif not telemetry.trace_io:
        raise ValueError("creation traces need Telemetry(trace_io=True)")
    tracer = telemetry.tracer
    results: Dict[str, CreationTrace] = {}
    for kind in ("ffs", "lfs"):
        rig = new_rig(kind, total_bytes=total_bytes, telemetry=telemetry)
        fs = rig.fs
        fs.mkdir("/dir1")
        fs.mkdir("/dir2")
        fs.sync()
        first = len(tracer.spans)
        block = b"B" * fs.block_size
        with fs.create("/dir1/file1") as handle:
            handle.write(block)
        with fs.create("/dir2/file2") as handle:
            handle.write(block)
        fs.sync()  # the delayed write-back
        window = tracer.spans[first:]
        writes = [span for span in window if span.kind == "disk.write"]
        geometry = rig.disk.geometry
        results[kind] = CreationTrace(
            kind=kind,
            write_requests=len(writes),
            sync_writes=sum(1 for span in writes if span.attrs["sync"]),
            random_writes=sum(
                1 for span in writes if span.attrs["tier"] != "sequential"
            ),
            bytes_written=sum(span.attrs["bytes"] for span in writes),
            table=render_table(window),
            disk_image=render_disk_image(
                window, geometry.num_sectors, geometry.sector_size
            ),
        )
    return results


# ---------------------------------------------------------------------------
# FIG3 — small-file create/read/delete rates
# ---------------------------------------------------------------------------


def fig3_small_file(
    num_files: int = 10000,
    file_size: int = 1 * KIB,
    total_bytes: int = 300 * MIB,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, SmallFileResult]:
    """One Figure 3 group (e.g. 10000 x 1 KB) for both file systems."""
    results: Dict[str, SmallFileResult] = {}
    for kind in ("lfs", "ffs"):
        rig = new_rig(kind, total_bytes=total_bytes, telemetry=telemetry)
        results[kind] = run_small_file_test(
            rig.fs, num_files=num_files, file_size=file_size
        )
    return results


# ---------------------------------------------------------------------------
# FIG4 — large-file transfer rates
# ---------------------------------------------------------------------------


def fig4_large_file(
    file_bytes: int = 100 * MIB,
    request_bytes: int = 8 * KIB,
    total_bytes: int = 300 * MIB,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, LargeFileResult]:
    """Figure 4's five-stage 100 MB test for both file systems."""
    results: Dict[str, LargeFileResult] = {}
    for kind in ("lfs", "ffs"):
        rig = new_rig(kind, total_bytes=total_bytes, telemetry=telemetry)
        results[kind] = run_large_file_test(
            rig.fs, file_bytes=file_bytes, request_bytes=request_bytes
        )
    return results


# ---------------------------------------------------------------------------
# FIG5 — cleaning rate vs segment utilization
# ---------------------------------------------------------------------------


def fig5_cleaning_rate(
    utilizations: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9),
    total_bytes: int = 128 * MIB,
    fill_segments: int = 24,
    lfs_config: Optional[LfsConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> List[Tuple[CleaningPoint, float]]:
    """Figure 5: measured cleaning rate per utilization, with the
    analytic model value alongside each point."""
    config = lfs_config or LfsConfig()
    results: List[Tuple[CleaningPoint, float]] = []
    for u in utilizations:
        rig = new_rig(
            "lfs",
            total_bytes=total_bytes,
            lfs_config=config,
            telemetry=telemetry,
        )
        point = run_cleaning_rate_test(
            rig.fs, u, fill_segments=fill_segments
        )
        model = analytic_cleaning_rate(
            u, rig.disk.geometry, config.segment_size
        )
        results.append((point, model))
    return results


# ---------------------------------------------------------------------------
# T31 — §3.1's CPU-scaling observation
# ---------------------------------------------------------------------------


@dataclass
class CpuScalingPoint:
    speed_factor: float
    lfs_ms_per_create_delete: float
    ffs_ms_per_create_delete: float


def sec31_cpu_scaling(
    speed_factors: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0),
    num_files: int = 200,
    total_bytes: int = 64 * MIB,
    telemetry: Optional[Telemetry] = None,
) -> List[CpuScalingPoint]:
    """Create+delete an empty file at increasing CPU speeds.

    §3.1: a 15x faster CPU made BSD file creation only ~20% faster
    because of synchronous disk writes; LFS latency should scale with
    the CPU.
    """
    points: List[CpuScalingPoint] = []
    for factor in speed_factors:
        latencies: Dict[str, float] = {}
        for kind in ("lfs", "ffs"):
            rig = new_rig(
                kind,
                total_bytes=total_bytes,
                speed_factor=factor,
                telemetry=telemetry,
            )
            fs = rig.fs
            start = rig.clock.now()
            for index in range(num_files):
                fs.create(f"/empty{index}").close()
                fs.unlink(f"/empty{index}")
            elapsed = rig.clock.now() - start
            latencies[kind] = elapsed / num_files * 1000.0
        points.append(
            CpuScalingPoint(
                speed_factor=factor,
                lfs_ms_per_create_delete=latencies["lfs"],
                ffs_ms_per_create_delete=latencies["ffs"],
            )
        )
    return points


# ---------------------------------------------------------------------------
# REC — crash-recovery time: checkpoint+roll-forward vs fsck
# ---------------------------------------------------------------------------


@dataclass
class RecoveryPoint:
    num_files: int
    total_bytes: int
    lfs_recovery_seconds: float
    lfs_partials_replayed: int
    ffs_fsck_seconds: float
    ffs_repairs: int


def recovery_comparison(
    file_counts: Sequence[int] = (100, 500, 1000),
    file_size: int = 4 * KIB,
    total_bytes: int = 128 * MIB,
    files_after_checkpoint: int = 50,
    disk_sizes: Optional[Sequence[int]] = None,
    telemetry: Optional[Telemetry] = None,
) -> List[RecoveryPoint]:
    """§4.4's claim, measured.

    Both systems get the same population of files and crash with a
    little un-checkpointed work outstanding.  LFS recovery reads two
    checkpoint regions plus the log tail; fsck scans every inode table
    block and the whole directory tree, so it grows with the file
    count *and the file system size* while LFS stays flat.  Pass
    ``disk_sizes`` (parallel to ``file_counts``) to sweep both.
    """
    if disk_sizes is None:
        disk_sizes = [total_bytes] * len(file_counts)
    if len(disk_sizes) != len(file_counts):
        raise ValueError("disk_sizes must parallel file_counts")
    points: List[RecoveryPoint] = []
    for count, total_bytes in zip(file_counts, disk_sizes):
        # --- LFS ---
        rig = new_rig("lfs", total_bytes=total_bytes, telemetry=telemetry)
        fs = rig.fs
        payload = b"r" * file_size
        for index in range(count):
            fs.write_file(f"/f{index}", payload)
        fs.checkpoint()
        for index in range(files_after_checkpoint):
            fs.write_file(f"/post{index}", payload)
        fs.sync()  # in the log, not in a checkpoint
        fs.crash()
        fs.disk.revive()
        start = rig.clock.now()
        recovered = LogStructuredFS.mount(rig.disk, rig.cpu)
        lfs_seconds = rig.clock.now() - start
        assert recovered.last_recovery is not None
        partials = recovered.last_recovery.partials_applied

        # --- FFS ---
        rig = new_rig("ffs", total_bytes=total_bytes)
        fs = rig.fs
        for index in range(count):
            fs.write_file(f"/f{index}", payload)
        fs.sync()
        for index in range(files_after_checkpoint):
            fs.write_file(f"/post{index}", payload)
        fs.crash()
        fs.disk.revive()
        report = fsck(rig.disk)
        points.append(
            RecoveryPoint(
                num_files=count + files_after_checkpoint,
                total_bytes=total_bytes,
                lfs_recovery_seconds=lfs_seconds,
                lfs_partials_replayed=partials,
                ffs_fsck_seconds=report.duration_seconds,
                ffs_repairs=report.repairs(),
            )
        )
    return points


# ---------------------------------------------------------------------------
# ABL-SEG — segment-size ablation
# ---------------------------------------------------------------------------


@dataclass
class SegmentSizePoint:
    segment_size: int
    create_files_per_second: float
    seq_write_kb_per_second: float


def _age_log(fs, fraction: float = 0.45) -> None:
    """Scatter the clean segments, as months of churn would (§4.3).

    Freshly formatted, LFS hands out *adjacent* clean segments, so
    consecutive segment writes incur no seek and segment size barely
    matters.  Real logs age: live and clean segments interleave and
    every segment switch costs a head movement.  We age by writing
    segment-sized files over ``fraction`` of the disk, deleting every
    other one, and letting the cleaner reclaim the dead ones.
    """
    segment = fs.config.segment_size
    count = int(fs.layout.num_segments * fraction)
    payload = b"a" * (segment - 4 * fs.config.block_size)
    for index in range(count):
        fs.write_file(f"/age{index}", payload)
    fs.sync()
    for index in range(0, count, 2):
        fs.unlink(f"/age{index}")
    fs.sync()
    fs.cleaner.victims_per_pass = 16  # batch: aging is setup, not measurement
    fs.clean_now(fs.layout.num_segments)


def ablation_segment_size(
    segment_sizes: Sequence[int] = (
        64 * KIB,
        256 * KIB,
        1 * MIB,
        4 * MIB,
    ),
    num_files: int = 1000,
    file_size: int = 1 * KIB,
    seq_write_bytes: int = 6 * MIB,
    total_bytes: int = 64 * MIB,
) -> List[SegmentSizePoint]:
    """§4.3's design rule, measured: segments must be large enough that
    the seek at the start of each segment write is amortized away.
    The sequential-write measurement runs on an aged (fragmented) log —
    see :func:`_age_log` — because a freshly formatted log hands out
    adjacent segments and hides the per-segment seek entirely."""
    points: List[SegmentSizePoint] = []
    for segment_size in segment_sizes:
        config = LfsConfig(segment_size=segment_size)
        rig = new_rig("lfs", total_bytes=total_bytes, lfs_config=config)
        small = run_small_file_test(
            rig.fs, num_files=num_files, file_size=file_size, verify=False
        )
        rig2 = new_rig("lfs", total_bytes=total_bytes, lfs_config=config)
        _age_log(rig2.fs)
        start = rig2.clock.now()
        with rig2.fs.create("/seq") as handle:
            step = 64 * KIB
            for offset in range(0, seq_write_bytes, step):
                handle.write(b"s" * step)
        rig2.fs.sync()
        elapsed = rig2.clock.now() - start
        points.append(
            SegmentSizePoint(
                segment_size=segment_size,
                create_files_per_second=small.create_per_second,
                seq_write_kb_per_second=(seq_write_bytes / KIB) / elapsed,
            )
        )
    return points


# ---------------------------------------------------------------------------
# ABL-CLEAN — cleaning-policy ablation
# ---------------------------------------------------------------------------


@dataclass
class PolicyPoint:
    policy: str
    write_cost: float
    segments_cleaned: int
    live_blocks_copied: int
    ops_per_second: float


def ablation_cleaner_policy(
    policies: Sequence[str] = tuple(p.value for p in CleanerPolicy),
    operations: int = 6000,
    total_bytes: int = 32 * MIB,
    segment_size: int = 256 * KIB,
) -> List[PolicyPoint]:
    """Office-workload churn on a small disk under each victim policy."""
    points: List[PolicyPoint] = []
    for policy in policies:
        config = LfsConfig(
            segment_size=segment_size,
            cache_bytes=4 * MIB,
            cleaner_policy=policy,
        )
        rig = new_rig("lfs", total_bytes=total_bytes, lfs_config=config)
        result: OfficeResult = run_office_workload(
            rig.fs,
            operations=operations,
            target_population=300,
            seed=11,
        )
        stats = rig.fs.cleaner.stats
        points.append(
            PolicyPoint(
                policy=policy,
                write_cost=result.write_cost or 0.0,
                segments_cleaned=stats.segments_cleaned,
                live_blocks_copied=stats.live_blocks_copied,
                ops_per_second=result.ops_per_second,
            )
        )
    return points


# ---------------------------------------------------------------------------
# ABL-RAID — §2.1: disk arrays raise bandwidth, not access time
# ---------------------------------------------------------------------------


@dataclass
class RaidPoint:
    kind: str
    num_disks: int
    create_files_per_second: float
    seq_write_kb_per_second: float


def ablation_disk_array(
    disk_counts: Sequence[int] = (1, 2, 4),
    num_files: int = 800,
    seq_write_bytes: int = 16 * MIB,
    member_bytes: int = 64 * MIB,
) -> List[RaidPoint]:
    """§2.1 measured: striping multiplies bandwidth but not access time.

    LFS turns the extra bandwidth into create throughput and sequential
    write rate (its transfers are segment-sized and stripe across every
    spindle); the FFS baseline's small synchronous writes still wait for
    one seek per operation, so more spindles buy it almost nothing.
    """
    from repro.disk.array import StripedDisk
    from repro.disk.geometry import wren_iv

    points: List[RaidPoint] = []
    for kind in ("lfs", "ffs"):
        for count in disk_counts:
            clock = SimClock()
            cpu = CpuModel(clock)
            disk = StripedDisk(wren_iv(member_bytes), clock, count)
            if kind == "lfs":
                fs = LogStructuredFS.mkfs(disk, cpu)
            else:
                fs = FastFileSystem.mkfs(disk, cpu)
            small = run_small_file_test(
                fs, num_files=num_files, file_size=1 * KIB, verify=False
            )
            start = clock.now()
            with fs.create("/seq") as handle:
                step = 256 * KIB
                for _ in range(seq_write_bytes // step):
                    handle.write(b"r" * step)
            fs.sync()
            elapsed = clock.now() - start
            points.append(
                RaidPoint(
                    kind=kind,
                    num_disks=count,
                    create_files_per_second=small.create_per_second,
                    seq_write_kb_per_second=(seq_write_bytes / KIB) / elapsed,
                )
            )
    return points


# ---------------------------------------------------------------------------
# MODEL — measured cleaning economics vs the analytic write-cost curve
# ---------------------------------------------------------------------------


@dataclass
class WriteCostPoint:
    utilization: float
    analytic_write_cost: float
    measured_rate_kb_s: float
    model_rate_kb_s: float


def write_cost_comparison(
    utilizations: Sequence[float] = (0.2, 0.4, 0.6, 0.8),
    total_bytes: int = 128 * MIB,
    fill_segments: int = 24,
) -> List[WriteCostPoint]:
    """§5.3's discussion, quantified: measured cleaning rate against the
    closed-form model at the same utilizations."""
    points: List[WriteCostPoint] = []
    for (measured, model) in fig5_cleaning_rate(
        utilizations, total_bytes=total_bytes, fill_segments=fill_segments
    ):
        u = measured.target_utilization
        points.append(
            WriteCostPoint(
                utilization=u,
                analytic_write_cost=analytic_write_cost(u),
                measured_rate_kb_s=measured.clean_kb_per_second(
                    LfsConfig().segment_size
                ),
                model_rate_kb_s=model,
            )
        )
    return points
