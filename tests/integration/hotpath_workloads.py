"""Seven small seeded workloads over the simulator's hot paths.

Each takes an optional ``Telemetry`` and returns a *fingerprint* of its
simulated results; ``test_seeded_goldens.py`` pins the fingerprints as
literals and asserts they do not depend on the telemetry mode.  Nothing
is timed here: how fast the simulator runs is ``benchmarks/e2e``'s job.
The read workloads fingerprint the data read (a running CRC) and the
log bytes written, not simulated seconds: readahead legitimately
reschedules read I/O.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Callable, Dict, Optional

from repro.common import serialization
from repro.common.inode import NIL, BlockKind, FileType, Inode, N_DIRECT
from repro.lfs.checkpoint import CheckpointData
from repro.lfs.config import CHECKPOINT_REGION_BLOCKS, LfsConfig
from repro.lfs.filesystem import LogStructuredFS, make_lfs
from repro.lfs.segments import LogPosition
from repro.lfs.summary import SegmentSummary, SummaryEntry
from repro.obs import Telemetry
from repro.service.config import ServiceConfig
from repro.service.scheduler import simulate_service
from repro.sim.clock import SimClock
from repro.units import KIB, MIB
from repro.workloads.smallfile import run_small_file_test

DISK_BYTES = 16 * MIB
SEGMENT_BYTES = 64 * KIB
BLOCK_BYTES = 4 * KIB
LARGE_FILE_BYTES = 1 * MIB
REQUEST_BYTES = 8 * KIB
N_REQUESTS = LARGE_FILE_BYTES // REQUEST_BYTES
CHUNK_BYTES = 16 * BLOCK_BYTES
N_CHUNKS = LARGE_FILE_BYTES // CHUNK_BYTES
FILL_SEGMENTS = 24

Fingerprint = Dict[str, Any]


def _fresh_fs(
    telemetry: Optional[Telemetry], small_cache: bool = False
) -> LogStructuredFS:
    """``small_cache``: a cache a quarter of the large file, so that
    sequential rereads reach the disk and read ahead."""
    config = LfsConfig(
        segment_size=SEGMENT_BYTES,
        cache_bytes=256 * KIB if small_cache else 2 * MIB,
        max_inodes=16384,
    )
    return make_lfs(total_bytes=DISK_BYTES, config=config, telemetry=telemetry)


def small_file(telemetry: Optional[Telemetry] = None) -> Fingerprint:
    fs = _fresh_fs(telemetry)
    result = run_small_file_test(fs, num_files=80, file_size=1024, verify=True)
    return {
        "create_seconds": result.create_seconds,
        "read_seconds": result.read_seconds,
        "delete_seconds": result.delete_seconds,
        "log_bytes_written": fs.segments.stats.log_bytes_written,
    }


def large_file_random_write(telemetry: Optional[Telemetry] = None) -> Fingerprint:
    fs = _fresh_fs(telemetry)
    payload = bytes(REQUEST_BYTES)
    handle = fs.create("/big")
    for index in range(N_REQUESTS):
        handle.pwrite(index * REQUEST_BYTES, payload)
    fs.sync()
    rng = random.Random(0xB16F11E)
    offsets = [rng.randrange(N_REQUESTS) * REQUEST_BYTES for _ in range(N_REQUESTS)]
    start = fs.clock.now()
    for offset in offsets:
        handle.pwrite(offset, payload)
    fs.sync()
    simulated = fs.clock.now() - start
    handle.close()
    return {
        "simulated_seconds": simulated,
        "log_bytes_written": fs.segments.stats.log_bytes_written,
    }


def _write_stream_file(fs: LogStructuredFS):
    """Per-chunk-tagged data, so a content CRC verifies read ordering."""
    handle = fs.create("/stream")
    for index in range(N_CHUNKS):
        payload = index.to_bytes(4, "little") * (CHUNK_BYTES // 4)
        handle.pwrite(index * CHUNK_BYTES, payload)
    fs.sync()
    return handle


def _read_fingerprint(fs: LogStructuredFS, handle, passes: int) -> Fingerprint:
    crc = bytes_read = 0
    for _ in range(passes):
        for index in range(N_CHUNKS):
            data = handle.pread(index * CHUNK_BYTES, CHUNK_BYTES)
            crc = zlib.crc32(data, crc)
            bytes_read += len(data)
    handle.close()
    stats = fs.readahead.stats
    if stats.blocks_prefetched:
        assert stats.hits > 0, "readahead prefetched but never hit"
    return {
        "bytes_read": bytes_read,
        "data_crc32": crc,
        "log_bytes_written": fs.segments.stats.log_bytes_written,
    }


def seq_read(telemetry: Optional[Telemetry] = None) -> Fingerprint:
    fs = _fresh_fs(telemetry, small_cache=True)
    handle = _write_stream_file(fs)
    return _read_fingerprint(fs, handle, passes=2)  # the cache cannot hold it


def seq_reread_random_write(telemetry: Optional[Telemetry] = None) -> Fingerprint:
    fs = _fresh_fs(telemetry, small_cache=True)
    handle = _write_stream_file(fs)
    payload = b"\xa5" * REQUEST_BYTES
    rng = random.Random(0x5EC_0DE)
    for _ in range(N_REQUESTS // 2):
        handle.pwrite(rng.randrange(N_REQUESTS) * REQUEST_BYTES, payload)
    fs.sync()
    return _read_fingerprint(fs, handle, passes=1)


def cleaning(telemetry: Optional[Telemetry] = None) -> Fingerprint:
    """Clean a log in which every dirty segment holds one live block:
    per segment, one keeper block then a segment's worth of churn, each
    batch synced so the interleaving survives into log order; then the
    churn file is deleted."""
    fs = _fresh_fs(telemetry)
    payload = b"u" * BLOCK_BYTES
    churn_per_batch = SEGMENT_BYTES // BLOCK_BYTES - 2
    keeper = fs.create("/keep")
    churn = fs.create("/churn")
    for segment in range(FILL_SEGMENTS):
        keeper.pwrite(segment * BLOCK_BYTES, payload)
        for block in range(churn_per_batch):
            churn.pwrite((segment * churn_per_batch + block) * BLOCK_BYTES, payload)
        fs.sync()
    keeper.close()
    churn.close()
    fs.unlink("/churn")
    fs.sync()
    start = fs.clock.now()
    cleaned = fs.clean_now(fs.layout.num_segments)
    fs.disk.drain()
    return {
        "segments_cleaned": cleaned,
        "live_blocks_copied": fs.cleaner.stats.live_blocks_copied,
        "simulated_seconds": fs.clock.now() - start,
        "log_bytes_written": fs.segments.stats.log_bytes_written,
    }


def _codec_fixture():
    rng = random.Random(0x5E6_C0DE)
    entries = []
    for i in range(SEGMENT_BYTES // BLOCK_BYTES - 1):
        if i % 8 == 0:
            entries.append(
                SummaryEntry(
                    kind=BlockKind.INODE,
                    inum=0,
                    index=i,
                    version=i,
                    inums=tuple(rng.randrange(1, 16384) for _ in range(4)),
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


def batch_checksum(telemetry: Optional[Telemetry] = None) -> Fingerprint:
    """Whole-segment CRC scans plus summary/checkpoint/inode codec
    round-trips; one running CRC over everything serialized."""
    rng = random.Random(0xBA7C4)
    region_bytes = CHECKPOINT_REGION_BLOCKS * BLOCK_BYTES
    views = [memoryview(rng.randbytes(SEGMENT_BYTES)) for _ in range(4)]
    summary, checkpoint, inodes = _codec_fixture()
    scan_rounds = FILL_SEGMENTS // 4
    crc = ops = 0
    for _ in range(scan_rounds):
        for view in views:
            crc = serialization.segment_checksum(view, crc)
            ops += 1
    for _ in range(8):
        packed = summary.pack(BLOCK_BYTES)
        crc = zlib.crc32(packed, crc)
        restored = SegmentSummary.unpack(packed, BLOCK_BYTES)
        assert len(restored.entries) == len(summary.entries)
        region = checkpoint.pack(region_bytes)
        crc = zlib.crc32(region, crc)
        CheckpointData.unpack(region)
        for inode in inodes:
            blob = inode.pack()
            crc = zlib.crc32(blob, crc)
            Inode.unpack(blob)
        ops += 2 + len(inodes)
    return {
        "crc32": crc,
        "segment_bytes_scanned": scan_rounds * len(views) * SEGMENT_BYTES,
        "ops": ops,
    }


def scheduler_dispatch(telemetry: Optional[Telemetry] = None) -> Fingerprint:
    """Event dispatch the way the service scheduler loads it — 64
    events on each instant, run by ``SimClock.run``, then a same-instant
    rescheduling chain — and a small multi-client service run."""
    timestamps = FILL_SEGMENTS * 8
    per_timestamp = 64
    fired = [0]
    chain = [timestamps * per_timestamp // 8]
    clock = SimClock()

    def tick() -> None:
        fired[0] += 1

    def reschedule() -> None:
        fired[0] += 1
        if chain[0] > 0:
            chain[0] -= 1
            clock.call_at(clock.now(), reschedule)

    for t in range(1, timestamps + 1):
        for _ in range(per_timestamp):
            clock.call_at(float(t), tick)
    clock.call_at(float(timestamps + 1), reschedule)
    clock.run()
    config = ServiceConfig(num_clients=4, seed=0, requests_per_client=10)
    stats, fs = simulate_service(config, total_bytes=32 * MIB, telemetry=telemetry)
    fs.unmount()
    return {
        "timers_fired": fired[0],
        "clock_now": clock.now(),
        "service": stats.to_dict(),
    }


WORKLOADS: Dict[str, Callable[[Optional[Telemetry]], Fingerprint]] = {
    "small_file": small_file,
    "large_file_random_write": large_file_random_write,
    "seq_read": seq_read,
    "seq_reread_random_write": seq_reread_random_write,
    "cleaning": cleaning,
    "batch_checksum": batch_checksum,
    "scheduler_dispatch": scheduler_dispatch,
}
