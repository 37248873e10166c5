"""Names, units, directions and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics in the driver's schema, which has no room for the clock, the
layer or the prediction; they live here and in ``README.md``, and
``test_e2e_bench.py`` checks that the two stay equal.
"""

from __future__ import annotations

WORKLOADS = {
    "smallfile": (
        "Fig. 3 create/read/delete of 1 KiB and 10 KiB files in one directory:"
        " the metadata path (vfs, common, lfs imap); cleaner idle, cache minor"
    ),
    "largefile": (
        "Fig. 4 five phases on one file 2.7x the cache, twice: clean-block"
        " eviction on every read; cleaner frees only fully dead segments"
    ),
    "service_clean": (
        "16 closed-loop clients on a volume prefilled to 0.85: dirty blocks at"
        " the LRU head, cleaner copies live data, throttling sets the tail"
    ),
    "cluster_migrate": (
        "64 closed-loop clients over 4 shards with one live migration:"
        " telemetry always on, four devices built and hashed inside the call"
    ),
    "crash_recover": (
        "crash, remount with roll-forward, verify and read back every acked"
        " file, ten times: recovery and fsync paths; working set fits the cache"
    ),
}

# name, unit, clock, better, bound.  ``host`` is the simulator's wall
# clock; ``sim`` is SimClock time and repeats exactly for one seed.  The
# driver compares runs made with ten different seeds, so a bound has to
# cover how far a metric moves from seed to seed on its noisiest
# workload as well as machine noise: each is about three times the
# widest interquartile spread measured (README.md), capped at 0.25.
END_TO_END = (
    ("setup_s", "s", "host", "lower", 0.25),
    ("ops_per_wall_s", "1/s", "host", "higher", 0.25),
    ("peak_rss_mb", "MiB", "host", "lower", 0.05),
    ("sim_ops_per_s", "1/s", "sim", "higher", 0.18),
    ("sim_lat_p50_ms", "ms", "sim", "lower", 0.25),
    ("sim_lat_p99_ms", "ms", "sim", "lower", 0.25),
    ("write_amp", "ratio", "sim", "lower", 0.22),
    ("read_amp", "ratio", "sim", "lower", 0.22),
)

LAYERS = (
    "sim", "disk", "cache", "common", "vfs", "lfs",
    "ffs", "service", "cluster", "obs", "harness",
)

_WALL = "ops_per_wall_s"
_SIM = "sim_ops_per_s, sim_lat_p50_ms"
_TAIL = "sim_lat_p99_ms, sim_ops_per_s"

# name, unit, better, the end-to-end metrics it should move.
PER_LAYER = (
    # Host time from the traced pass.
    *((f"{layer}.self_s", "s", "lower", _WALL) for layer in LAYERS),
    *((f"{layer}.calls", "count", "lower", _WALL) for layer in LAYERS),
    ("cache.insert_us", "us", "lower", _WALL),
    ("cache.get_us", "us", "lower", _WALL),
    ("disk.alloc_s", "s", "lower", "setup_s, peak_rss_mb"),
    ("disk.snapshot_s", "s", "lower", "ops_per_wall_s, peak_rss_mb"),
    ("lfs.flush_self_s", "s", "lower", _WALL),
    ("lfs.cleaner_self_s", "s", "lower", _WALL),
    ("lfs.checkpoint_self_s", "s", "lower", _WALL),
    ("lfs.mount_s", "s", "lower", _WALL),
    ("lfs.verify_s", "s", "lower", _WALL),
    ("bench.untracked_s", "s", "lower", "none: a hole in the entry-point table"),
    ("bench.trace_overhead_ratio", "ratio", "lower", "none: cost of the wrappers"),
    # Model counters from the untraced pass; exact for one seed.
    ("disk.requests", "count", "lower", _SIM),
    ("disk.bytes_read", "B", "lower", "read_amp"),
    ("disk.bytes_written", "B", "lower", "write_amp"),
    ("disk.seeks", "count", "lower", _SIM),
    ("disk.sync_requests", "count", "lower", _SIM),
    ("disk.busy_sim_s", "s", "lower", _SIM),
    ("disk.util", "ratio", "lower", _SIM),
    ("cache.hits", "count", "higher", "sim_ops_per_s, read_amp"),
    ("cache.misses", "count", "lower", "sim_ops_per_s, read_amp"),
    ("cache.hit_rate", "ratio", "higher", "sim_ops_per_s, read_amp"),
    ("cache.insertions", "count", "lower", _WALL),
    ("cache.evictions", "count", "lower", _WALL),
    ("vfs.creates", "count", "higher", "none: work done"),
    ("vfs.removes", "count", "higher", "none: work done"),
    ("vfs.read_calls", "count", "higher", "none: work done"),
    ("vfs.write_calls", "count", "higher", "none: work done"),
    ("vfs.user_bytes_read", "B", "higher", "read_amp"),
    ("vfs.user_bytes_written", "B", "higher", "write_amp"),
    ("vfs.writebacks", "count", "lower", "sim_lat_p99_ms"),
    ("lfs.log_bytes", "B", "lower", "write_amp, ops_per_wall_s"),
    ("lfs.cleaner_bytes", "B", "lower", "write_amp"),
    ("lfs.cleaner_passes", "count", "lower", _TAIL),
    ("lfs.cleaner_segments_cleaned", "count", "higher", "none: work done"),
    ("lfs.cleaner_live_bytes_copied", "B", "lower", "write_amp, read_amp"),
    ("lfs.cleaner_bytes_read", "B", "lower", "read_amp"),
    ("lfs.cleaned_utilization", "ratio", "lower", "write_amp, " + _TAIL),
    ("lfs.cleaner_busy_sim_s", "s", "lower", _TAIL),
    ("lfs.emergency_passes", "count", "lower", "sim_lat_p99_ms"),
    ("lfs.write_cost", "ratio", "lower", "write_amp, read_amp"),
    ("lfs.space_amp", "ratio", "lower", "none: space traded for write cost"),
    ("lfs.recovery_sim_s", "s", "lower", _TAIL),
    ("lfs.partials_replayed", "count", "lower", _TAIL),
    ("service.commit_batches", "count", "lower", _TAIL),
    ("service.commit_batch_mean", "count", "higher", _TAIL),
    ("service.throttle_events", "count", "lower", _TAIL),
    ("service.throttle_sim_s", "s", "lower", _TAIL),
    ("service.forced_admissions", "count", "lower", _TAIL),
    ("service.rejections", "count", "lower", _TAIL),
    ("cluster.migrated_bytes", "B", "lower", _TAIL),
    ("cluster.migrated_files", "count", "lower", _TAIL),
    ("cluster.redirected_requests", "count", "lower", "sim_lat_p99_ms"),
    ("cluster.cutover_sim_s", "s", "lower", "sim_lat_p99_ms"),
    ("cluster.shard_imbalance", "ratio", "lower", _TAIL),
    ("sim.elapsed_sim_s", "s", "lower", "sim_ops_per_s"),
    ("sim.sim_s_per_wall_s", "ratio", "higher", "none: informational"),
    # The same op stream on FastFileSystem, traced pass only.
    ("ffs.sim_ops_per_s", "1/s", "higher", "none: the paper's baseline"),
    ("ffs.write_amp", "ratio", "lower", "none: the paper's baseline"),
    ("ffs.lfs_speedup", "ratio", "higher", "none: the paper's headline ratio"),
    # The program's own latency attribution, service_clean only.
    *(
        (f"service.lat_share_{part}", "ratio", "lower", "sim_lat_p99_ms")
        for part in (
            "queueing", "admission_retry", "cleaner_throttle",
            "commit_wait", "disk", "fs",
        )
    ),
    ("obs.telemetry_on_overhead_ratio", "ratio", "lower", _WALL),
)
