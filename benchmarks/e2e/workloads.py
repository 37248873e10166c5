"""The five workloads, and the child process that runs one pass of one.

``run.py`` starts this file once per pass::

    python workloads.py WORKLOAD SEED MODE [--smoke] [--inject-fault]
                        [--spans-out FILE]

and reads one JSON object from the last line of its output.  A pass is
set-up (device, mkfs, prefill), then a measured phase of a fixed number
of operations drawn from SEED, then the output checks.  MODE says what
else is switched on while it runs:

``untraced``     nothing; the end-to-end numbers come from here
``traced``       ``tracing.Tracer`` wraps the layers' entry points
``attribution``  the program's own ``Telemetry`` (``service_clean`` only)
``ffs``          traced, on ``FastFileSystem`` (the two file workloads)

Every workload is a closed loop: each caller waits for its reply before
it sends the next request.  An "op" is one create/read/unlink call
(``smallfile``), one ``pread``/``pwrite`` (``largefile``), one client
request (``service_clean``, ``cluster_migrate``), or one create, fsync,
remount or read-back (``crash_recover``); its simulated latency is the
``SimClock`` time across the call, or the service's own per-request
latency, queueing included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.cluster.config import ClusterConfig, MigrationSpec  # noqa: E402
from repro.cluster.sim import run_cluster  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.ffs.fsck import fsck  # noqa: E402
from repro.harness import new_rig  # noqa: E402
from repro.lfs.config import LfsConfig  # noqa: E402
from repro.lfs.filesystem import LogStructuredFS, make_lfs  # noqa: E402
from repro.lfs.verify import verify_lfs  # noqa: E402
from repro.obs import Telemetry  # noqa: E402
from repro.obs.attribution import build_trace_report  # noqa: E402
from repro.service.config import ServiceConfig, validate_rig  # noqa: E402
from repro.service.scheduler import RequestScheduler, prefill  # noqa: E402
from repro.service.stats import percentile  # noqa: E402
from repro.units import KIB, MIB  # noqa: E402

# Sized so that one measured phase takes 2.5-3 s on the commit that added
# the benchmark: a run of ``--seconds 12`` then holds four or five
# repetitions, enough for a median, and the driver's 114 runs fit its
# 57-minute cap.  ISSUE.md's 15-25 s phases do not; its op counts are
# scaled down by the factor noted beside each workload.
SIZES = {
    "full": {
        # ISSUE: 30,000 + 10,000 files (x0.24).
        "smallfile": {
            "volume": 300 * MIB,
            "batches": ((7000, 1 * KIB), (2500, 10 * KIB)),
        },
        # ISSUE: 100 MiB file on 300 MiB, 3-4 rounds (x0.4, 2 rounds); the
        # file:cache and file:volume ratios that drive eviction and
        # dead-segment cleaning are kept.
        "largefile": {"volume": 120 * MIB, "file": 40 * MIB, "rounds": 2},
        # ISSUE: 16 x 3000 requests (x0.11); write_amp has levelled by then.
        "service_clean": {"clients": 16, "requests": 320},
        # ISSUE: 64 x 1800 requests (x0.12).
        "cluster_migrate": {"clients": 64, "requests": 220, "migrate_at": 5.0},
        # ISSUE: 40 rounds (x0.25).
        "crash_recover": {"volume": 128 * MIB, "rounds": 10, "files": 300},
    },
    "smoke": {
        "smallfile": {
            "volume": 64 * MIB,
            "batches": ((400, 1 * KIB), (150, 10 * KIB)),
        },
        "largefile": {"volume": 64 * MIB, "file": 20 * MIB, "rounds": 2},
        "service_clean": {"clients": 8, "requests": 60},
        # All 64 clients: with fewer, no shard's cache ever misses a read.
        "cluster_migrate": {"clients": 64, "requests": 40, "migrate_at": 0.5},
        "crash_recover": {"volume": 32 * MIB, "rounds": 3, "files": 60},
    },
}

REQUEST_BYTES = 8 * KIB

# simulate_service's default rig.
SERVICE_VOLUME = 64 * MIB
SERVICE_LFS = LfsConfig(
    segment_size=256 * KIB, cache_bytes=2 * MIB, max_inodes=4096
)


def payload(tag: str, nbytes: int) -> bytes:
    """Contents that name their file or offset, so a read-back can be
    compared byte for byte without keeping a copy."""
    stamp = tag.encode() + b";"
    return (stamp * (nbytes // len(stamp) + 1))[:nbytes]


class Pass:
    """The clocks, counters and checks that every workload shares.

    A workload builds its rig, calls :meth:`begin`, appends one
    simulated latency per op to :attr:`latencies`, calls :meth:`end`,
    and then runs its checks.  Counters are read from the program's
    public statistics objects at ``begin`` and ``end`` and subtracted,
    so set-up work is not counted.
    """

    def __init__(
        self, workload: str, seed: int, mode: str, smoke: bool, inject: bool,
        tracer=None,
    ) -> None:
        self.seed = seed
        self.size = SIZES["smoke" if smoke else "full"][workload]
        self.kind = "ffs" if mode == "ffs" else "lfs"
        # The span cap is raised so that no request root is dropped
        # from the attribution report.
        self.telemetry: Optional[Telemetry] = (
            Telemetry(max_spans=2_000_000) if mode == "attribution" else None
        )
        self.tracer = tracer
        self.inject = inject
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.images: List[str] = []
        # Model counters by metric name; a name never counted reads 0.
        self.counts: Counter = Counter()
        self.disks = 1
        self.windows: Dict[str, Any] = {}
        self.shares: Optional[Dict[str, float]] = None
        self._fullest = (0, 0)

    # -- the measured phase ---------------------------------------------

    def begin(self, fs=None) -> None:
        if fs is not None:
            self._count(fs, -1, disk=True)
            self._sim_start = fs.clock.now()
        if self.tracer is not None:
            self.windows["setup"] = self.tracer.take()
        self.ready_at = time.time()
        self._wall_start = time.perf_counter()

    def end(self, fs=None) -> None:
        self.measured_s = time.perf_counter() - self._wall_start
        # Read before the checks copy and hash whole device images.
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        if self.tracer is not None:
            self.windows["measured"] = self.tracer.take()
        if fs is not None:
            self._count(fs, +1, disk=True)
            self.counts["sim.elapsed_sim_s"] = fs.clock.now() - self._sim_start

    def retire(self, fs) -> None:
        """Keep the counters of a file system object about to be
        replaced by a remount; the disk's outlive it."""
        self._count(fs, +1, disk=False)

    def _count(self, fs, sign: int, disk: bool) -> None:
        cache, ops = fs.cache.stats, fs.stats
        values = {
            "cache.hits": cache.hits,
            "cache.misses": cache.misses,
            "cache.insertions": cache.insertions,
            "cache.evictions": cache.evictions,
            "vfs.creates": ops.creates,
            "vfs.removes": ops.removes,
            "vfs.read_calls": ops.read_calls,
            "vfs.write_calls": ops.write_calls,
            "vfs.user_bytes_read": ops.bytes_read,
            "vfs.user_bytes_written": ops.bytes_written,
            "vfs.writebacks": sum(ops.writebacks.values()),
        }
        if self.kind == "lfs":
            cleaner, wamp = fs.cleaner.stats, fs.wamp_report()
            values.update({
                "lfs.log_bytes": wamp["log_bytes"],
                "lfs.cleaner_bytes": wamp["cleaner_bytes"],
                "lfs.cleaner_passes": cleaner.passes,
                "lfs.cleaner_segments_cleaned": cleaner.segments_cleaned,
                "lfs.cleaner_live_bytes_copied": cleaner.live_bytes_copied,
                "lfs.cleaner_bytes_read": cleaner.bytes_read,
                "lfs.cleaner_busy_sim_s": cleaner.busy_seconds,
                "lfs.emergency_passes": cleaner.emergency_passes,
                "lfs.cleaned_bytes": (
                    cleaner.segments_cleaned * fs.config.segment_size
                ),
            })
        if disk:
            stats = fs.disk.stats
            values.update({
                "disk.requests": stats.requests,
                "disk.bytes_read": stats.bytes_read,
                "disk.bytes_written": stats.bytes_written,
                "disk.seeks": stats.seeks,
                "disk.sync_requests": stats.sync_requests,
                "disk.busy_sim_s": stats.busy_seconds,
            })
        for name, value in values.items():
            self.counts[name] += sign * value

    def sample_space(self, fs) -> None:
        """Note the log's footprint; the fullest sample is reported."""
        if self.kind != "lfs":
            return
        live = fs.usage.total_live_bytes()
        if live > self._fullest[0]:
            in_use = fs.layout.num_segments - fs.usage.clean_count()
            self._fullest = (live, in_use * fs.config.segment_size)

    # -- output checks ----------------------------------------------------

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def check(self, got: bytes, want: bytes, what: str) -> None:
        if self.inject:  # the self-test's injected mismatch, once
            want, self.inject = b"not what was written", False
        if got != want:
            self.fail(f"{what}: read back {len(got)} bytes that differ")

    def check_image(self, fs) -> None:
        """Verify the unmounted image and record its SHA-256."""
        device = fs.disk.device
        if self.kind == "lfs":
            for error in verify_lfs(device).errors:
                self.fail(f"verify_lfs: {error}")
        elif not fsck(fs.disk).clean:
            self.fail("fsck: image needed repairs")
        image = device.read(0, device.num_sectors)  # a view, not a copy
        self.images.append(hashlib.sha256(image).hexdigest())

    # -- results ----------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Every model counter, exact for one seed."""
        counts = self.counts

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out = dict(counts)
        out.pop("lfs.cleaned_bytes", None)  # only a denominator
        out["disk.util"] = ratio(
            counts["disk.busy_sim_s"], counts["sim.elapsed_sim_s"] * self.disks
        )
        out["cache.hit_rate"] = ratio(
            counts["cache.hits"], counts["cache.hits"] + counts["cache.misses"]
        )
        out["lfs.cleaned_utilization"] = ratio(
            counts["lfs.cleaner_live_bytes_copied"], counts["lfs.cleaned_bytes"]
        )
        out["lfs.write_cost"] = ratio(
            counts["lfs.log_bytes"] + counts["lfs.cleaner_bytes_read"],
            counts["vfs.user_bytes_written"],
        )
        live, in_use = self._fullest
        out["lfs.space_amp"] = ratio(in_use, live)
        return out

    def result(self) -> Dict[str, Any]:
        counters = self.counters()
        elapsed = counters["sim.elapsed_sim_s"]
        return {
            "ready_at": self.ready_at,
            "measured_s": self.measured_s,
            "peak_rss_mb": self.peak_rss_mb,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "sim": {
                "sim_ops_per_s": self.attempted / elapsed,
                "sim_lat_p50_ms": percentile(self.latencies, 0.50) * 1e3,
                "sim_lat_p99_ms": percentile(self.latencies, 0.99) * 1e3,
                "write_amp": (
                    counters["disk.bytes_written"]
                    / counters["vfs.user_bytes_written"]
                ),
                "read_amp": (
                    counters["disk.bytes_read"] / counters["vfs.user_bytes_read"]
                ),
            },
            "counters": counters,
            "images": self.images,
            "shares": self.shares,
            "windows": self.windows,
        }


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------


def smallfile(run: Pass) -> None:
    fs = new_rig(run.kind, total_bytes=run.size["volume"]).fs
    fs.mkdir("/d")
    rng = random.Random(run.seed)
    now, latencies = fs.clock.now, run.latencies
    run.begin(fs)
    for count, nominal in run.size["batches"]:
        # The seed moves each size up to a quarter either way, so that
        # simulated latencies differ from seed to seed.
        sizes = [
            rng.randint(nominal * 3 // 4, nominal * 5 // 4) for _ in range(count)
        ]
        for index, nbytes in enumerate(sizes):
            path = f"/d/f{index}"
            start = now()
            with fs.create(path) as handle:
                handle.write(payload(f"{run.seed}{path}", nbytes))
            latencies.append(now() - start)
        fs.sync()
        run.sample_space(fs)
        fs.flush_caches()
        for index, nbytes in enumerate(sizes):
            path = f"/d/f{index}"
            start = now()
            data = fs.read_file(path)
            latencies.append(now() - start)
            run.check(data, payload(f"{run.seed}{path}", nbytes), path)
        for index in range(count):
            start = now()
            fs.unlink(f"/d/f{index}")
            latencies.append(now() - start)
        fs.sync()
    run.attempted = len(latencies)
    run.end(fs)
    fs.unmount()
    run.check_image(fs)


def largefile(run: Pass) -> None:
    fs = new_rig(run.kind, total_bytes=run.size["volume"]).fs
    requests = run.size["file"] // REQUEST_BYTES
    rng = random.Random(run.seed)
    now, latencies = fs.clock.now, run.latencies
    handle = fs.create("/big")
    written: Dict[int, int] = {}  # request index -> phase that last wrote it

    def stamp(index: int) -> bytes:
        return payload(f"{run.seed}@{index}:{written[index]}", REQUEST_BYTES)

    def write_phase(indexes, phase: int) -> None:
        for index in indexes:
            written[index] = phase
            data = stamp(index)
            start = now()
            handle.pwrite(index * REQUEST_BYTES, data)
            latencies.append(now() - start)
        fs.sync()
        run.sample_space(fs)
        fs.flush_caches()

    def read_phase(indexes) -> None:
        for index in indexes:
            # Reads stop up to 1 KiB short of the second block's end, so
            # that simulated latencies differ from seed to seed; writes
            # stay whole blocks, which need no read-modify-write.
            length = REQUEST_BYTES - rng.randrange(KIB)
            start = now()
            data = handle.pread(index * REQUEST_BYTES, length)
            latencies.append(now() - start)
            run.check(data, stamp(index)[:length], f"/big@{index}")
        fs.flush_caches()

    run.begin(fs)
    for round_no in range(run.size["rounds"]):
        write_phase(range(requests), 2 * round_no)
        read_phase(range(requests))
        # "the random I/Os were not unique": sampled with replacement.
        write_phase(
            [rng.randrange(requests) for _ in range(requests)], 2 * round_no + 1
        )
        read_phase([rng.randrange(requests) for _ in range(requests)])
        read_phase(range(requests))
    run.attempted = len(latencies)
    run.end(fs)
    handle.close()
    fs.unmount()
    run.check_image(fs)


def service_clean(run: Pass) -> None:
    """``simulate_service`` taken apart, so that the prefill is set-up."""
    config = ServiceConfig(
        num_clients=run.size["clients"],
        requests_per_client=run.size["requests"],
        fill_fraction=0.85,
        seed=run.seed,
    )
    validate_rig(config, SERVICE_LFS, device_bytes=SERVICE_VOLUME)
    fs = make_lfs(
        total_bytes=SERVICE_VOLUME, config=SERVICE_LFS, telemetry=run.telemetry
    )
    prefill(fs, config)
    run.begin(fs)
    stats = RequestScheduler(fs, config, telemetry=run.telemetry).run()
    fs.checkpoint()
    fs.disk.drain()
    run.sample_space(fs)
    run.end(fs)
    note_service(run, [stats])
    fs.unmount()
    run.check_image(fs)
    if run.telemetry is not None:
        report = build_trace_report(run.telemetry, fs=fs)
        if report["spans"]["dropped"] or report["requests"] != stats.completed:
            run.fail("attribution: request spans were dropped")
        parts = report["attribution"]["overall"]["components"]
        run.shares = {name: part["share"] for name, part in parts.items()}


def note_service(run: Pass, all_stats) -> None:
    """Latencies, failures and service counters from ``ServiceStats``."""
    for stats in all_stats:
        run.latencies.extend(stats.all_latencies())
        run.attempted += sum(stats.submitted.values())
        lost = (
            stats.dropped + stats.degraded_failures + stats.rejected_degraded
        )
        if lost:
            run.failed += lost
            run.errors.append(f"service: {lost} requests dropped or failed")
    batches = [size for stats in all_stats for size in stats.commit_batches]
    run.counts.update({
        "service.commit_batches": len(batches),
        "service.commit_batch_mean": (
            sum(batches) / len(batches) if batches else 0.0
        ),
        "service.throttle_events": sum(s.throttle_events for s in all_stats),
        "service.throttle_sim_s": sum(s.throttle_seconds for s in all_stats),
        "service.forced_admissions": sum(
            s.forced_admissions for s in all_stats
        ),
        "service.rejections": sum(s.rejections for s in all_stats),
    })


def cluster_migrate(run: Pass) -> None:
    source, target = 2, 0
    config = ClusterConfig(
        shards=4,
        clients=run.size["clients"],
        requests_per_client=run.size["requests"],
        seed=run.seed,
        migrations=(MigrationSpec(source, target, run.size["migrate_at"]),),
    )
    run.begin()
    result = run_cluster(config, jobs=1)
    run.end()
    rows = result.shards
    note_service(run, [row["stats"] for row in rows])
    for row in rows:
        for error in row["verify_errors"]:
            run.fail(f"shard {row['shard']} verify_lfs: {error}")
        run.images.append(row["image_sha"])
    moved = result.migrations[0] if result.migrations else {}
    if not moved.get("cutover") or rows[source]["clients"]:
        run.fail("migration did not move its clients to the target shard")
    # The cluster hands back no file system objects; its counters are the
    # merged telemetry, which lacks the vfs call counts.
    run.disks = config.shards
    value = result.telemetry.registry.value
    run.counts.update({
        "disk.requests": value("disk.reads") + value("disk.writes"),
        "disk.bytes_read": value("disk.bytes_read"),
        "disk.bytes_written": value("disk.bytes_written"),
        "disk.seeks": (
            value("disk.requests", tier="near")
            + value("disk.requests", tier="far")
        ),
        "disk.sync_requests": value("disk.sync_requests"),
        "disk.busy_sim_s": value("disk.busy_seconds"),
        "cache.hits": value("cache.hits"),
        "cache.misses": value("cache.misses"),
        "cache.insertions": value("cache.insertions"),
        "cache.evictions": value("cache.evictions"),
        "vfs.user_bytes_read": value("fs.bytes_read"),
        "vfs.user_bytes_written": value("fs.bytes_written"),
        "lfs.log_bytes": value("wamp.log_bytes"),
        "lfs.cleaner_bytes": value("wamp.cleaner_bytes"),
        "lfs.cleaner_passes": value("cleaner.passes"),
        "lfs.cleaner_segments_cleaned": value("cleaner.segments_cleaned"),
        "lfs.cleaner_live_bytes_copied": value("cleaner.live_bytes_copied"),
        "lfs.cleaner_bytes_read": value("cleaner.bytes_read"),
        "lfs.cleaner_busy_sim_s": result.telemetry.tracer.kind_seconds.get(
            "cleaner.clean", 0.0
        ),
        # run_cluster builds every shard on simulate_service's rig.
        "lfs.cleaned_bytes": (
            value("cleaner.segments_cleaned") * SERVICE_LFS.segment_size
        ),
    })
    completed = [row["stats"].completed for row in rows]
    run.counts.update({
        "sim.elapsed_sim_s": result.elapsed,
        "cluster.migrated_bytes": moved.get("bytes", 0),
        "cluster.migrated_files": moved.get("files", 0),
        "cluster.redirected_requests": moved.get("redirected", 0),
        "cluster.cutover_sim_s": moved.get("cutover", 0) - moved.get("started", 0),
        "cluster.shard_imbalance": max(completed) * len(completed) / sum(completed),
    })


def crash_recover(run: Pass) -> None:
    rig = new_rig("lfs", total_bytes=run.size["volume"])
    fs, disk, cpu = rig.fs, rig.disk, rig.cpu
    rng = random.Random(run.seed)
    now, latencies = rig.clock.now, run.latencies
    acked: Dict[str, int] = {}  # path -> size, for every fsynced file
    recoveries: List[float] = []
    partials = 0
    run.begin(fs)
    for round_no in range(run.size["rounds"]):
        fs.mkdir(f"/r{round_no}")
        # The seed sets how many unacknowledged files the crash catches.
        for index in range(run.size["files"] + rng.randrange(4)):
            path = f"/r{round_no}/f{index}"
            nbytes = rng.randint(1 * KIB, 16 * KIB)
            start = now()
            handle = fs.create(path)
            handle.write(payload(f"{run.seed}{path}", nbytes))
            latencies.append(now() - start)
            if index % 4 == 3:
                start = now()
                handle.fsync()
                latencies.append(now() - start)
                acked[path] = nbytes
            handle.close()
        if round_no % 3 == 2:
            fs.checkpoint()
        run.sample_space(fs)
        run.retire(fs)
        fs.crash()  # the device discards every write not yet durable
        disk.revive()
        start = now()
        fs = LogStructuredFS.mount(disk, cpu)
        recoveries.append(now() - start)
        latencies.append(recoveries[-1])
        partials += fs.last_recovery.partials_applied
        for error in verify_lfs(disk.device).errors:
            run.fail(f"round {round_no} verify_lfs: {error}")
        for path, nbytes in acked.items():
            start = now()
            try:
                data = fs.read_file(path)
            except ReproError as exc:
                data = repr(exc).encode()
            latencies.append(now() - start)
            run.check(data, payload(f"{run.seed}{path}", nbytes), path)
    run.attempted = len(latencies)
    run.end(fs)
    run.counts["lfs.recovery_sim_s"] = sum(recoveries) / len(recoveries)
    run.counts["lfs.partials_replayed"] = partials
    fs.unmount()
    run.check_image(fs)


WORKLOADS = {
    "smallfile": smallfile,
    "largefile": largefile,
    "service_clean": service_clean,
    "cluster_migrate": cluster_migrate,
    "crash_recover": crash_recover,
}

MODES = ("untraced", "traced", "attribution", "ffs")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-fault", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    tracer = None
    if args.mode in ("traced", "ffs"):
        # Imported here so that an untraced child never loads the wrappers.
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    run = Pass(
        args.workload, args.seed, args.mode, args.smoke, args.inject_fault,
        tracer,
    )
    WORKLOADS[args.workload](run)
    if tracer is not None:
        run.windows["check"] = tracer.take()
        tracer.uninstall()
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
