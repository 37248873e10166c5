#!/usr/bin/env python
"""Wall-clock perf harness for the simulator's hot paths.

Every other benchmark in this directory reports *simulated* seconds —
the paper's metrics.  This harness times the **simulator itself**
(Python wall-clock) on seven workloads:

* ``small_file`` — the Figure 3 create/read/delete cycle;
* ``large_file_random_write`` — the Figure 4 random-write phase;
* ``seq_read`` — sequential reread of a large file through a cache
  smaller than the file, with readahead enabled (the zero-copy read
  path plus the sequential-prefetch pipeline);
* ``seq_reread_random_write`` — random overwrites followed by a
  sequential reread (write path and read path in one workload);
* ``cleaning`` — a cleaning-heavy pass over a fragmented log (the
  workload that hammers ``_pop_clean``, ``clean_count`` and the
  checkpoint serialization paths);
* ``batch_checksum`` — whole-segment CRC scans plus
  summary/checkpoint/inode codec round-trips;
* ``scheduler_dispatch`` — timer dispatch under heavy same-timestamp
  load plus a small multi-client service run.

Each workload runs three legs: telemetry disabled (``after``, the
default configuration and the number every gate reads), a live
:class:`repro.obs.Telemetry` (``telemetry_on``), and full tracing
(``Telemetry(trace_io=True)`` — request spans plus per-I/O disk spans,
``tracing_on``).  The report records the observability layer's
wall-clock overhead next to the disabled-mode numbers, and every leg
returns a *fingerprint* of its simulated results which must be
identical across the three modes.  The smoke-scale fingerprints are
also pinned as literals in ``tests/integration/test_seeded_goldens.py``
— that, not a re-implementation of old code, is what certifies that an
optimization left simulated behaviour alone.  The read workloads'
fingerprints cover the data actually read (a running CRC) and the log
bytes written, not simulated seconds: readahead legitimately
reschedules read I/O.

The "before" of any change is git history: run the harness at the
parent commit and compare the two reports with ``repro bench-diff``.
The telemetry-disabled leg is additionally compared against the
committed ``BENCH_hotpaths.json`` baseline (3% tolerance, the same
comparer ``bench-diff`` uses) when the scales match.

Operation-count probes assert the O(1) invariants directly:

* every clean-heap entry is pushed once and popped at most once, so the
  total heap work is bounded by segment state transitions — not by
  ``min_clean_calls * num_segments`` as a scan would be;
* every durability undo record pays exactly one drain step, so
  ``mark_durable`` work is bounded by the number of undo records — not
  by ``mark_durable_calls * pending`` as a rebuild would be.

Results are written to ``BENCH_hotpaths.json`` at the repository root
(schema in :mod:`repro.tools.bench_report`).

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py             # full run
    PYTHONPATH=src python benchmarks/perf_harness.py --smoke     # CI smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not any(
    os.path.isdir(os.path.join(path, "repro")) for path in sys.path if path
):
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.cache.writeback import WritebackConfig
from repro.common import serialization
from repro.common.inode import NIL, BlockKind, FileType, Inode, N_DIRECT
from repro.lfs.checkpoint import CheckpointData
from repro.lfs.config import CHECKPOINT_REGION_BLOCKS, LfsConfig
from repro.lfs.filesystem import LogStructuredFS, make_lfs
from repro.lfs.segments import LogPosition
from repro.lfs.summary import SegmentSummary, SummaryEntry
from repro.obs import Telemetry
from repro.sim.clock import SimClock
from repro.tools import bench_report
from repro.units import KIB, MIB

# ----------------------------------------------------------------------
# Scales
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scale:
    name: str
    disk_bytes: int
    segment_bytes: int
    small_files: int
    small_file_size: int
    large_file_bytes: int
    large_request_bytes: int
    clean_fill_segments: int
    clean_keeper_blocks: int
    repeats: int

    def lfs_config(self) -> LfsConfig:
        return LfsConfig(
            segment_size=self.segment_bytes,
            cache_bytes=2 * MIB,
            max_inodes=16384,
            writeback=WritebackConfig(),
        )


SCALES = {
    # CI smoke: a few seconds total.
    "smoke": Scale(
        name="smoke",
        disk_bytes=16 * MIB,
        segment_bytes=64 * KIB,
        small_files=80,
        small_file_size=1024,
        large_file_bytes=1 * MIB,
        large_request_bytes=8 * KIB,
        clean_fill_segments=24,
        clean_keeper_blocks=1,
        repeats=1,
    ),
    # Default: REPRO_PAPER_SCALE=0 sizing.  Many small segments so the
    # cleaning pass exercises the per-checkpoint segment-usage
    # serialization and the cleaner's usage-array queries.
    "small": Scale(
        name="small",
        disk_bytes=256 * MIB,
        segment_bytes=64 * KIB,
        small_files=600,
        small_file_size=1024,
        large_file_bytes=8 * MIB,
        large_request_bytes=8 * KIB,
        clean_fill_segments=512,
        clean_keeper_blocks=1,
        # Best-of-3: wall-clock minima are far more stable than means on
        # a shared machine, and the 3% baseline gate compares minima.
        repeats=3,
    ),
}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _fresh_fs(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> LogStructuredFS:
    return make_lfs(
        total_bytes=scale.disk_bytes,
        config=scale.lfs_config(),
        telemetry=telemetry,
    )


def wl_small_file(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> Tuple[float, int, float, Dict[str, Any], float]:
    from repro.workloads.smallfile import run_small_file_test

    fs = _fresh_fs(scale, telemetry)
    sim_start = fs.clock.now()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    result = run_small_file_test(
        fs,
        num_files=scale.small_files,
        file_size=scale.small_file_size,
        verify=True,
    )
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    simulated = fs.clock.now() - sim_start
    fingerprint = {
        "create_seconds": result.create_seconds,
        "read_seconds": result.read_seconds,
        "delete_seconds": result.delete_seconds,
        "log_bytes_written": fs.segments.log_bytes_written,
    }
    return wall, 3 * scale.small_files, simulated, fingerprint, cpu


def wl_large_file_random_write(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> Tuple[float, int, float, Dict[str, Any], float]:
    import random

    fs = _fresh_fs(scale, telemetry)
    request = scale.large_request_bytes
    n_requests = scale.large_file_bytes // request
    payload = bytes(request)
    handle = fs.create("/big")
    for index in range(n_requests):  # sequential fill (untimed setup)
        handle.pwrite(index * request, payload)
    fs.sync()
    rng = random.Random(0xB16F11E)
    offsets = [
        rng.randrange(n_requests) * request for _ in range(n_requests)
    ]
    sim_start = fs.clock.now()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for offset in offsets:
        handle.pwrite(offset, payload)
    fs.sync()
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    simulated = fs.clock.now() - sim_start
    handle.close()
    fingerprint = {
        "simulated_seconds": simulated,
        "log_bytes_written": fs.segments.log_bytes_written,
    }
    return wall, n_requests, simulated, fingerprint, cpu


def _readahead_config(scale: Scale) -> LfsConfig:
    """Config for the read workloads: readahead on, cache smaller than
    the file so sequential rereads actually hit the disk."""
    config = scale.lfs_config()
    cache = max(256 * KIB, min(config.cache_bytes, scale.large_file_bytes // 4))
    return LfsConfig(
        segment_size=config.segment_size,
        cache_bytes=cache,
        max_inodes=config.max_inodes,
        writeback=config.writeback,
        readahead_blocks=16,
    )


def _write_stream_file(fs: LogStructuredFS, scale: Scale, chunk: int):
    """Untimed setup: lay down ``large_file_bytes`` of per-chunk-tagged
    data sequentially (so a content CRC verifies read ordering)."""
    nchunks = scale.large_file_bytes // chunk
    handle = fs.create("/stream")
    for index in range(nchunks):
        payload = index.to_bytes(4, "little") * (chunk // 4)
        handle.pwrite(index * chunk, payload)
    fs.sync()
    return handle, nchunks


def _check_readahead(fs: LogStructuredFS) -> None:
    stats = fs.readahead.stats
    if stats.blocks_prefetched:
        assert stats.hits > 0, "readahead prefetched but never hit"


def wl_seq_read(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> Tuple[float, int, float, Dict[str, Any], float]:
    fs = make_lfs(
        total_bytes=scale.disk_bytes,
        config=_readahead_config(scale),
        telemetry=telemetry,
    )
    chunk = 16 * fs.config.block_size
    handle, nchunks = _write_stream_file(fs, scale, chunk)
    crc = 0
    bytes_read = 0
    ops = 0
    sim_start = fs.clock.now()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for _ in range(2):  # two passes: the cache cannot hold the file
        for index in range(nchunks):
            data = handle.pread(index * chunk, chunk)
            crc = zlib.crc32(data, crc)
            bytes_read += len(data)
            ops += 1
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    simulated = fs.clock.now() - sim_start
    handle.close()
    _check_readahead(fs)
    # No simulated seconds here: readahead reschedules read I/O, so the
    # fingerprint is the data itself plus the on-disk log.
    fingerprint = {
        "bytes_read": bytes_read,
        "data_crc32": crc,
        "log_bytes_written": fs.segments.log_bytes_written,
    }
    return wall, ops, simulated, fingerprint, cpu


def wl_seq_reread_random_write(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> Tuple[float, int, float, Dict[str, Any], float]:
    import random

    fs = make_lfs(
        total_bytes=scale.disk_bytes,
        config=_readahead_config(scale),
        telemetry=telemetry,
    )
    chunk = 16 * fs.config.block_size
    handle, nchunks = _write_stream_file(fs, scale, chunk)
    request = scale.large_request_bytes
    n_requests = scale.large_file_bytes // request
    payload = b"\xa5" * request
    rng = random.Random(0x5EC_0DE)
    offsets = [
        rng.randrange(n_requests) * request for _ in range(n_requests // 2)
    ]
    crc = 0
    bytes_read = 0
    sim_start = fs.clock.now()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for offset in offsets:  # random overwrites (the pooled write path)
        handle.pwrite(offset, payload)
    fs.sync()
    for index in range(nchunks):  # sequential reread (readahead path)
        data = handle.pread(index * chunk, chunk)
        crc = zlib.crc32(data, crc)
        bytes_read += len(data)
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    simulated = fs.clock.now() - sim_start
    handle.close()
    _check_readahead(fs)
    fingerprint = {
        "bytes_read": bytes_read,
        "data_crc32": crc,
        "log_bytes_written": fs.segments.log_bytes_written,
    }
    return wall, len(offsets) + nchunks, simulated, fingerprint, cpu


def _fragment_log(fs: LogStructuredFS, scale: Scale) -> int:
    """Fragment ``clean_fill_segments`` segments: interleave one batch of
    keeper blocks with a batch of churn blocks per segment (syncing each
    batch so the interleaving survives into log order), then delete the
    churn file.  Every dirty segment is left holding a few live blocks —
    the shape that maximizes cleaning passes per byte copied."""
    block_size = fs.config.block_size
    blocks_per_segment = fs.config.segment_size // block_size
    keep = scale.clean_keeper_blocks
    churn_per_batch = max(1, blocks_per_segment - keep - 1)
    payload = b"u" * block_size
    keeper = fs.create("/keep")
    churn = fs.create("/churn")
    keeper_blocks = churn_blocks = 0
    for _ in range(scale.clean_fill_segments):
        for _ in range(keep):
            keeper.pwrite(keeper_blocks * block_size, payload)
            keeper_blocks += 1
        for _ in range(churn_per_batch):
            churn.pwrite(churn_blocks * block_size, payload)
            churn_blocks += 1
        fs.sync()
    keeper.close()
    churn.close()
    fs.unlink("/churn")
    fs.sync()
    return keeper_blocks + churn_blocks


def wl_cleaning(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> Tuple[float, int, float, Dict[str, Any], float]:
    fs = _fresh_fs(scale, telemetry)
    _fragment_log(fs, scale)
    sim_start = fs.clock.now()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    cleaned = fs.clean_now(fs.layout.num_segments)
    fs.disk.drain()
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    simulated = fs.clock.now() - sim_start
    fingerprint = {
        "segments_cleaned": cleaned,
        "live_blocks_copied": fs.cleaner.stats.live_blocks_copied,
        "simulated_seconds": simulated,
        "log_bytes_written": fs.segments.log_bytes_written,
    }
    # Stash the instance so probes can inspect counters.
    wl_cleaning.last_fs = fs  # type: ignore[attr-defined]
    return wall, max(1, cleaned), simulated, fingerprint, cpu


def _codec_fixture(scale: Scale):
    """Deterministic serialization fixture shared by every leg."""
    import random

    rng = random.Random(0x5E6_C0DE)
    bs = 4 * KIB
    entries = []
    for i in range(scale.segment_bytes // bs - 1):
        if i % 8 == 0:
            entries.append(
                SummaryEntry(
                    kind=BlockKind.INODE,
                    inum=0,
                    index=i,
                    version=i,
                    inums=tuple(
                        rng.randrange(1, 16384) for _ in range(4)
                    ),
                )
            )
        else:
            entries.append(
                SummaryEntry(
                    kind=BlockKind.DATA,
                    inum=rng.randrange(1, 16384),
                    index=i,
                    version=i & 0xFFFF,
                )
            )
    summary = SegmentSummary(
        seq=7, timestamp=123.5, next_segment_block=999, entries=entries
    )
    checkpoint = CheckpointData(
        timestamp=321.25,
        position=LogPosition(
            active_segment=3, active_offset=9, next_segment=4, sequence=77
        ),
        imap_addrs=[rng.randrange(1, 1 << 40) for _ in range(1024)],
        usage_addrs=[rng.randrange(1, 1 << 40) for _ in range(1024)],
    )
    inodes = [
        Inode(
            inum=i + 2,
            ftype=FileType.REGULAR,
            nlink=1,
            size=rng.randrange(0, 1 << 24),
            mtime=float(i),
            ctime=float(i) / 2,
            atime=0.0,
            direct=[rng.randrange(0, 1 << 32) for _ in range(N_DIRECT)],
            indirect=rng.randrange(0, 1 << 32),
            dindirect=NIL,
        )
        for i in range(48)
    ]
    return summary, checkpoint, inodes


def wl_batch_checksum(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> Tuple[float, int, float, Dict[str, Any], float]:
    """Whole-segment CRC scans plus codec round-trips.

    One running CRC over everything serialized is the fingerprint.
    """
    import random

    rng = random.Random(0xBA7C4)
    bs = 4 * KIB
    region_bytes = CHECKPOINT_REGION_BLOCKS * bs
    nsegments = max(4, scale.clean_fill_segments // 8)
    views = [
        memoryview(rng.randbytes(scale.segment_bytes))
        for _ in range(nsegments)
    ]
    summary, checkpoint, inodes = _codec_fixture(scale)
    scan_rounds = max(2, scale.clean_fill_segments // 4)
    codec_rounds = max(8, scale.clean_fill_segments // 4)
    crc = 0
    ops = 0
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for _ in range(scan_rounds):
        for view in views:
            crc = serialization.segment_checksum(view, crc)
            ops += 1
    for _ in range(codec_rounds):
        packed = summary.pack(bs)
        crc = zlib.crc32(packed, crc)
        restored = SegmentSummary.unpack(packed, bs)
        if len(restored.entries) != len(summary.entries):
            raise AssertionError("summary round-trip lost entries")
        region = checkpoint.pack(region_bytes)
        crc = zlib.crc32(region, crc)
        CheckpointData.unpack(region)
        for inode in inodes:
            blob = inode.pack()
            crc = zlib.crc32(blob, crc)
            Inode.unpack(blob)
        ops += 2 + len(inodes)
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    fingerprint = {
        "crc32": crc,
        "segment_bytes_scanned": scan_rounds * nsegments * scale.segment_bytes,
        "ops": ops,
    }
    return wall, ops, 0.0, fingerprint, cpu


def wl_scheduler_dispatch(
    scale: Scale, telemetry: Optional[Telemetry] = None
) -> Tuple[float, int, float, Dict[str, Any], float]:
    """Timer dispatch under heavy same-timestamp load.

    Phase 1 is the shape the service scheduler produces — hundreds of
    events landing on each instant, drained through the
    ``advance_to(next_timer_at())`` event-loop idiom, plus a
    same-instant rescheduling chain.  Phase 2 is a small real
    multi-client service run.
    """
    from repro.service.config import ServiceConfig
    from repro.service.scheduler import simulate_service

    timestamps = scale.clean_fill_segments * 8
    per_timestamp = 64
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    clock = SimClock()
    chain = [timestamps * per_timestamp // 8]

    def reschedule() -> None:
        fired[0] += 1
        if chain[0] > 0:
            chain[0] -= 1
            clock.call_at(clock.now(), reschedule)

    config = ServiceConfig(
        num_clients=4,
        seed=0,
        requests_per_client=10 if scale.name == "smoke" else 30,
    )
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for t in range(1, timestamps + 1):
        at = float(t)
        for _ in range(per_timestamp):
            clock.call_at(at, tick)
    clock.call_at(float(timestamps + 1), reschedule)
    while clock.pending_timers():
        clock.advance_to(clock.next_timer_at())
    stats, fs = simulate_service(
        config, total_bytes=32 * MIB, telemetry=telemetry
    )
    fs.unmount()
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    simulated = clock.now() + fs.clock.now()
    ops = fired[0] + config.num_clients * config.requests_per_client
    fingerprint = {
        "timers_fired": fired[0],
        "clock_now": clock.now(),
        "service": stats.to_dict(),
    }
    return wall, ops, simulated, fingerprint, cpu


WORKLOADS: Dict[
    str, Callable[..., Tuple[float, int, float, Dict[str, Any], float]]
] = {
    "small_file": wl_small_file,
    "large_file_random_write": wl_large_file_random_write,
    "seq_read": wl_seq_read,
    "seq_reread_random_write": wl_seq_reread_random_write,
    "cleaning": wl_cleaning,
    "batch_checksum": wl_batch_checksum,
    "scheduler_dispatch": wl_scheduler_dispatch,
}


# ----------------------------------------------------------------------
# Probes: operation-count evidence of the O(1) invariants
# ----------------------------------------------------------------------


def run_probes(fs: LogStructuredFS) -> Dict[str, Any]:
    usage = fs.usage
    device = fs.disk.device
    usage.verify_indexes()
    probes: Dict[str, Any] = {
        "num_segments": usage.num_segments,
        "min_clean_calls": usage.min_clean_calls,
        "heap_pushes": usage.heap_pushes,
        "heap_pops": usage.heap_pops,
        "segments_cleaned": fs.cleaner.stats.segments_cleaned,
        "mark_durable_calls": device.mark_durable_calls,
        "undo_records_created": device.undo_records_created,
        "undo_records_skipped": device.undo_records_skipped,
        "durability_scan_steps": device.durability_scan_steps,
    }
    # Write-amplification ledger of the cleaning leg: the cleaner ran,
    # so the cleaner-copied bytes are non-zero and amplification > 1.
    wamp = fs.wamp_report()
    probes["wamp_user_bytes"] = wamp["user_bytes"]
    probes["wamp_log_bytes"] = wamp["log_bytes"]
    probes["wamp_cleaner_bytes"] = wamp["cleaner_bytes"]
    probes["wamp_write_amplification"] = round(
        wamp["write_amplification"], 6
    )
    # _pop_clean is amortized O(1): total heap traffic is bounded by
    # state transitions (each entry pushed once, popped at most once),
    # never by min_clean_calls * num_segments as a scan would be.
    assert usage.heap_pops <= usage.heap_pushes, probes
    assert (
        usage.heap_pushes
        == usage.num_segments + fs.cleaner.stats.segments_cleaned
    ), probes
    probes["pop_clean_heap_traffic"] = usage.heap_pushes + usage.heap_pops
    probes["pop_clean_legacy_scan_equivalent"] = (
        usage.min_clean_calls * usage.num_segments
    )
    # mark_durable is amortized O(1): every undo record pays exactly one
    # drain step, so the total work is bounded by records created, not
    # by sum(len(pending)) over calls.
    assert device.durability_scan_steps <= device.undo_records_created, probes
    probes["durability_steps_per_call"] = round(
        device.durability_scan_steps / max(1, device.mark_durable_calls), 4
    )
    return probes


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


class _Leg:
    """Best-of-N accumulator for one (workload, mode) pair."""

    def __init__(self) -> None:
        self.best: Optional[Tuple[float, int, float, Optional[float]]] = None
        self.fingerprint: Dict[str, Any] = {}

    def add(
        self,
        wall: float,
        ops: int,
        simulated: float,
        fp: Dict[str, Any],
        cpu: Optional[float] = None,
    ):
        if self.best is None or wall < self.best[0]:
            self.best = (wall, ops, simulated, cpu)
        self.fingerprint = fp

    def entry(self) -> Dict[str, Any]:
        assert self.best is not None
        wall, ops, simulated, cpu = self.best
        return bench_report.workload_entry(wall, ops, simulated, cpu)


MODES = ("after", "telemetry", "tracing")
"""Leg modes: telemetry disabled (the default configuration), a live
``Telemetry``, and full request + per-I/O tracing."""


def _leg_task(scale_name: str, workload_name: str, mode: str):
    """One timed leg; module-level so ``--jobs`` can farm it out.

    Returns ``(workload result tuple, probes-or-None)``.  The O(1)
    probes must run here — in the process that just ran the cleaning
    workload — because the live file system cannot cross a process
    boundary.

    Legs share a process when run sequentially, and the tracing leg
    leaves a large span graph behind; collect it before starting the
    timer so one leg's garbage never inflates the next leg's numbers.
    """
    import gc

    gc.collect()
    scale = SCALES[scale_name]
    workload = WORKLOADS[workload_name]
    if mode == "telemetry":
        return workload(scale, telemetry=Telemetry()), None
    if mode == "tracing":
        return workload(scale, telemetry=Telemetry(trace_io=True)), None
    result = workload(scale)
    probes = None
    if workload_name == "cleaning":
        probes = run_probes(wl_cleaning.last_fs)  # type: ignore[attr-defined]
    return result, probes


def run_harness(scale: Scale, jobs: int = 1) -> Dict[str, Any]:
    # Build the full leg list up front.  Within a repeat the run order
    # alternates: in-process warm-up (allocator, page cache) favors
    # whichever leg runs later, so interleaving keeps comparisons honest.
    legs = []
    for name in WORKLOADS:
        for repeat in range(scale.repeats):
            modes = MODES[::-1] if repeat % 2 else MODES
            legs.extend((name, mode, repeat) for mode in modes)

    if jobs > 1:
        # Parallel legs share the machine, so wall-clock minima are
        # noisier than a sequential run: use --jobs for fingerprint /
        # identity verification and CI smoke, not for gate-quality
        # numbers.
        from repro.harness.parallel import run_tasks

        print(
            f"[perf] running {len(legs)} legs across {jobs} processes ...",
            flush=True,
        )
        outcomes = run_tasks(
            _leg_task,
            [(scale.name, name, mode) for name, mode, _ in legs],
            jobs=jobs,
        )
    else:
        outcomes = []
        for name, mode, repeat in legs:
            print(f"[perf] {name} ({mode}, run {repeat + 1}) ...", flush=True)
            outcomes.append(_leg_task(scale.name, name, mode))

    acc: Dict[str, Dict[str, _Leg]] = {
        name: {mode: _Leg() for mode in MODES} for name in WORKLOADS
    }
    probes: Optional[Dict[str, Any]] = None
    for (name, mode, _repeat), (result, leg_probes) in zip(legs, outcomes):
        acc[name][mode].add(*result)
        if leg_probes is not None:
            probes = leg_probes

    # ``probes`` came from the telemetry-disabled cleaning leg (asserted
    # in the process that ran it — see _leg_task).
    assert probes is not None, "no after-mode cleaning leg ran"
    checks = {
        "o1_probes": True,  # run_probes asserts
        "telemetry_results_identical": True,
        "tracing_results_identical": True,
    }
    workloads: Dict[str, Dict[str, Any]] = {}
    for name, legs_by_mode in acc.items():
        after = legs_by_mode["after"]
        entry: Dict[str, Any] = {"after": after.entry()}
        for mode in ("telemetry", "tracing"):
            leg = legs_by_mode[mode]
            entry[f"{mode}_on"] = leg.entry()
            entry[f"{mode}_overhead"] = round(
                entry[f"{mode}_on"]["wall_seconds"]
                / entry["after"]["wall_seconds"]
                - 1.0,
                4,
            )
            if leg.fingerprint != after.fingerprint:
                checks[f"{mode}_results_identical"] = False
                print(
                    f"[perf] WARNING: {name} simulated results differ with "
                    f"{mode} on: on={leg.fingerprint} "
                    f"off={after.fingerprint}",
                    file=sys.stderr,
                )
        workloads[name] = entry

    return bench_report.build_report(
        scale=scale.name, workloads=workloads, probes=probes, checks=checks
    )


def apply_baseline_check(
    report: Dict[str, Any], baseline_path: str, tolerance: float
) -> None:
    """Compare the telemetry-disabled leg against a committed baseline.

    Wall-clock numbers only transfer within one machine and one scale,
    so a missing baseline or a scale mismatch records a skip note rather
    than failing; a matching baseline makes
    ``telemetry_disabled_within_baseline`` a real check, through the
    same :func:`repro.tools.bench_report.diff_points` that
    ``repro bench-diff`` runs.
    """
    info: Dict[str, Any] = {"path": baseline_path, "tolerance": tolerance}
    report["baseline"] = info
    if not baseline_path or not os.path.exists(baseline_path):
        info["skipped"] = "no baseline report"
        return
    try:
        baseline = bench_report.load_report(baseline_path)
    except ValueError as exc:
        info["skipped"] = str(exc)
        return
    diff = bench_report.diff_points(
        bench_report.flatten(baseline), bench_report.flatten(report), tolerance
    )
    if not diff["comparable"]:
        info["skipped"] = diff["regressions"][0]
        return
    regressions = diff["regressions"]
    info["baseline_generated_at"] = baseline.get("generated_at")
    info["regressions"] = regressions
    report["checks"]["telemetry_disabled_within_baseline"] = not regressions
    for line in regressions:
        print(f"[perf] WARNING: regression vs baseline: {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="small",
        help="workload sizing (default: small)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="shortcut for --scale smoke (CI)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the timed legs; parallel legs share "
        "the machine, so use for identity verification and CI smoke, "
        "not for gate-quality wall-clock numbers (default 1)",
    )
    parser.add_argument(
        "--output", default=os.path.join(_REPO_ROOT, "BENCH_hotpaths.json"),
        help="report path (default: BENCH_hotpaths.json at the repo root)",
    )
    parser.add_argument(
        "--baseline",
        default=os.path.join(_REPO_ROOT, "BENCH_hotpaths.json"),
        help="committed report to hold the telemetry-disabled leg to "
        "(skipped on scale mismatch; '' disables)",
    )
    parser.add_argument(
        "--baseline-tolerance", type=float, default=0.03,
        help="max wall-clock growth vs the baseline (default 0.03)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if any check fails (CI)",
    )
    args = parser.parse_args(argv)
    scale = SCALES["smoke" if args.smoke else args.scale]

    report = run_harness(scale, jobs=args.jobs)
    # Load the baseline before write_report can overwrite it in place.
    apply_baseline_check(report, args.baseline, args.baseline_tolerance)
    bench_report.write_report(args.output, report)
    print()
    print(bench_report.summarize(report))
    print(f"\nreport written to {args.output}")
    if args.strict and not all(report["checks"].values()):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
