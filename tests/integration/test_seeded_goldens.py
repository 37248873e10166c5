"""Seeded golden outputs: absolute pins, not just run-vs-run equality.

Every simulated number in this repository is a pure function of its
seed, and the determinism tests already prove ``--jobs 1`` equals
``--jobs N``.  None of them pins an *absolute* value, so a refactor
that changed every run the same way would pass them all.  These
literals were generated at commit ``b32272f`` — the last commit that
still ran each hot-path workload against monkey-patched legacy
implementations and asserted bit-identical results — and they are what
lets rig construction and report plumbing be restructured with proof
that behaviour did not move.

A legitimate behaviour change (a new cleaning policy default, a log
format change) regenerates the affected literal in the same PR and
says so; anything else that trips these is a regression.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, MigrationSpec, run_cluster
from repro.faults import (
    run_campaign,
    run_chaos_trial,
    run_trial,
    validate_chaos_rig,
    validate_trial,
)
from repro.obs import Telemetry
from repro.service import ServiceConfig, simulate_service
from repro.units import MIB

from . import hotpath_workloads

SERVICE_IMAGE_SHA = (
    "35bbf0e1958b0e5b5a252f78a68f79c9f6074d720720619546795924c925eead"
)
SERVICE_RENDER = """\
== golden ==
  requests: 80 completed, 0 dropped, 0 rejections
  submitted: write=42, fsync=22, read=8, open=4, delete=4
  elapsed: 1.540418s simulated, throughput 51.9 req/s
  latency: p50 5.730ms, p99 149.849ms
  group commit: 13 batches, mean 1.69 fsyncs/flush, max 3
  backpressure: 0 throttles, 0.000000s throttled, 0 forced admissions
  background flushes: 0"""

CLUSTER_RENDER = """\
== cluster-sim: 2 shards, 8 clients, seed 0, placement hash ==
  shard 0: clients=8 completed=92 throughput=53.7 req/s p99=381.234ms verify=ok
  shard 1: clients=0 completed=4 throughput=2.2 req/s p99=9.395ms verify=ok
  migration 1->0 at t=0.050: 2 clients, 4 files, 63718 bytes, 2 redirected, cutover t=0.602503
  cluster: completed=96 elapsed=1.821110s throughput=52.7 req/s p50=5.266ms p99=381.234ms
  image shard0: b427fa9188d2e62bed7c1417f94b08dd0b59c82d6fa508eaf9d33b485f6809d4
  image shard1: 68801b2ca6c08234a28a6059020724902bcb6da0c71a06ba204fda3c4a89cb0d"""

CHAOS_RENDER = """\
chaos: 2 trials, seed 0, clients 4, requests per client 40
  crashes injected: 2
    mid-clean:        1/1 fired
    mid-commit:       1/1 fired
  outcomes: clean 2, detected 0, violated 0, unhandled 0
  signals:
    checkpoint fallback:  0
    roll-forward damage:  0
    quarantined segments: 0
    verify findings:      0
    degraded operation:   0
    mount failures:       0
  durability contract: 78 file checks, 0 violations
  acked fsyncs: 81
  resumed clients: 8
  failed trials: 0
fault injection totals:
  torn writes 0, bit flips 0, bad sectors grown 0
  media errors 0, transient errors 0, remaps 0
verdict: OK"""

CRASHTEST_RENDER = """\
crashtest: 3 trials, seed 0
  crashes injected: 3
    end-of-workload:  3/3 fired
  outcomes: clean 0, detected 3, violated 0, unhandled 0
  signals:
    checkpoint fallback:  1
    roll-forward damage:  0
    quarantined segments: 1
    verify findings:      1
    degraded operation:   0
    mount failures:       1
  durability contract: 0 file checks, 0 violations
  acked fsyncs: 0
  resumed clients: 0
  failed trials: 0
fault injection totals:
  torn writes 3, bit flips 3, bad sectors grown 12
  media errors 4, transient errors 0, remaps 1
verdict: OK"""

# What each workload in hotpath_workloads.py must return, whatever the
# telemetry mode.
HOTPATH_FINGERPRINTS = {
    "small_file": {
        "create_seconds": 0.6082591230769241,
        "read_seconds": 0.428916979999998,
        "delete_seconds": 0.19166923076923004,
        "log_bytes_written": 425984,
    },
    "large_file_random_write": {
        "simulated_seconds": 0.8524231215384492,
        "log_bytes_written": 1888256,
    },
    "seq_read": {
        "bytes_read": 2097152,
        "data_crc32": 2286514035,
        "log_bytes_written": 1282048,
    },
    "seq_reread_random_write": {
        "bytes_read": 1048576,
        "data_crc32": 2166375633,
        "log_bytes_written": 1896448,
    },
    "cleaning": {
        "segments_cleaned": 31,
        "live_blocks_copied": 24,
        "simulated_seconds": 1.2997528846153807,
        "log_bytes_written": 2347008,
    },
    "batch_checksum": {
        "crc32": 2104845590,
        "segment_bytes_scanned": 1572864,
        "ops": 424,
    },
    "scheduler_dispatch": {
        "timers_fired": 13825,
        "clock_now": 193.0,
        "service": {
            "elapsed_seconds": 1.0,
            "submitted": {
                "write": 24,
                "fsync": 11,
                "read": 3,
                "open": 1,
                "delete": 1,
            },
            "completed": 40,
            "dropped": 0,
            "rejections": 0,
            "rejected_degraded": 0,
            "degraded_failures": 0,
            "throughput_per_second": 40.0,
            "latency_p50_seconds": 0.00543592,
            "latency_p99_seconds": 0.135348742,
            "commit_batches": 7,
            "commit_batch_mean": 1.571429,
            "commit_batch_max": 2,
            "throttle_events": 0,
            "throttle_seconds": 0.0,
            "forced_admissions": 0,
            "background_flushes": 0,
        },
    },
}

# The end-to-end benchmark's simulated metrics, model counters and final
# image hashes, `benchmarks/e2e/workloads.py W 0 untraced --smoke`: the
# sim metrics and images of smallfile and largefile were generated at
# commit 7ced895, the rest at commit dce89e6; crash_recover's were
# regenerated when roll-forward stopped reading data blocks,
# largefile's when sequential readahead became always on, and
# smallfile's and largefile's when readahead began to follow disk
# addresses across files.  A
# simulator-speed PR must leave these alone: "every simulated byte
# unchanged" is asserted here, not diffed by hand.  ``counters`` holds
# cache hits and misses, so a change in how often a layer looks a block
# up shows here even when no simulated second moves.
E2E_SMOKE = {
    "smallfile": {
        "sim": {
            "sim_ops_per_s": 168.52699470381847,
            "sim_lat_p50_ms": 3.021927692307358,
            "sim_lat_p99_ms": 30.04695692307635,
            "write_amp": 1.9166986314865004,
            "read_amp": 1.9338695038850355,
        },
        "counters": {
            "cache.hits": 2476,
            "cache.misses": 868,
            "cache.insertions": 1716,
            "cache.evictions": 0,
            "vfs.creates": 550,
            "vfs.removes": 550,
            "vfs.read_calls": 550,
            "vfs.write_calls": 550,
            "vfs.user_bytes_read": 1908348,
            "vfs.user_bytes_written": 1908348,
            "vfs.writebacks": 6,
            "lfs.log_bytes": 3657728,
            "lfs.cleaner_bytes": 0,
            "lfs.cleaner_passes": 0,
            "lfs.cleaner_segments_cleaned": 0,
            "lfs.cleaner_live_bytes_copied": 0,
            "lfs.cleaner_bytes_read": 0,
            "lfs.cleaner_busy_sim_s": 0.0,
            "lfs.emergency_passes": 0,
            "disk.requests": 87,
            "disk.bytes_read": 3690496,
            "disk.bytes_written": 3657728,
            "disk.seeks": 51,
            "disk.sync_requests": 45,
            "disk.busy_sim_s": 6.148774999999995,
            "sim.elapsed_sim_s": 9.7907163353849,
            "disk.util": 0.6280209526424064,
            "cache.hit_rate": 0.7404306220095693,
            "lfs.cleaned_utilization": 0.0,
            "lfs.write_cost": 1.9166986314865004,
            "lfs.space_amp": 2.8074023303632627,
        },
        "images": [
            "7bda301c176cb1a3ef9ad4e11055b738f0125673d1b84682554a0a62b8f96827",
        ],
    },
    "largefile": {
        "sim": {
            "sim_ops_per_s": 74.54440122134791,
            "sim_lat_p50_ms": 5.920975384611893,
            "sim_lat_p99_ms": 33.96633538460492,
            "write_amp": 0.921435546875,
            "read_amp": 0.9382891307507497,
        },
        "counters": {
            "cache.hits": 130570,
            "cache.misses": 16811,
            "cache.insertions": 43687,
            "cache.evictions": 7751,
            "vfs.creates": 0,
            "vfs.removes": 0,
            "vfs.read_calls": 15360,
            "vfs.write_calls": 10240,
            "vfs.user_bytes_read": 118022742,
            "vfs.user_bytes_written": 83886080,
            "vfs.writebacks": 22,
            "lfs.log_bytes": 77099008,
            "lfs.cleaner_bytes": 0,
            "lfs.cleaner_passes": 7,
            "lfs.cleaner_segments_cleaned": 28,
            "lfs.cleaner_live_bytes_copied": 0,
            "lfs.cleaner_bytes_read": 0,
            "lfs.cleaner_busy_sim_s": 0.0,
            "lfs.emergency_passes": 0,
            "disk.requests": 7609,
            "disk.bytes_read": 110739456,
            "disk.bytes_written": 77295616,
            "disk.seeks": 6951,
            "disk.sync_requests": 6921,
            "disk.busy_sim_s": 313.03520673078026,
            "sim.elapsed_sim_s": 343.4194866491021,
            "disk.util": 0.9115242987088622,
            "cache.hit_rate": 0.885935093397385,
            "lfs.cleaned_utilization": 0.0,
            "lfs.write_cost": 0.919091796875,
            "lfs.space_amp": 1.0969836965618827,
        },
        "images": [
            "555659d407d2f3a1453860f6e69a1c2dbcf3ba9689434815dac779447621a168",
        ],
    },
    "service_clean": {
        "sim": {
            "sim_ops_per_s": 59.10057993273972,
            "sim_lat_p50_ms": 4.764160000000572,
            "sim_lat_p99_ms": 552.6320707692421,
            "write_amp": 2.1363990898244922,
            "read_amp": 0.27151142085465996,
        },
        "counters": {
            "cache.hits": 1198,
            "cache.misses": 624,
            "cache.insertions": 752,
            "cache.evictions": 431,
            "vfs.creates": 74,
            "vfs.removes": 44,
            "vfs.read_calls": 67,
            "vfs.write_calls": 228,
            "vfs.user_bytes_read": 2308146,
            "vfs.user_bytes_written": 2294942,
            "vfs.writebacks": 0,
            "lfs.log_bytes": 4739072,
            "lfs.cleaner_bytes": 561152,
            "lfs.cleaner_passes": 4,
            "lfs.cleaner_segments_cleaned": 16,
            "lfs.cleaner_live_bytes_copied": 475136,
            "lfs.cleaner_bytes_read": 425984,
            "lfs.cleaner_busy_sim_s": 1.8435124999998607,
            "lfs.emergency_passes": 0,
            "disk.requests": 118,
            "disk.bytes_read": 626688,
            "disk.bytes_written": 4902912,
            "disk.seeks": 74,
            "disk.sync_requests": 54,
            "disk.busy_sim_s": 5.892090384615301,
            "sim.elapsed_sim_s": 8.121747714595543,
            "service.commit_batches": 43,
            "service.commit_batch_mean": 2.5813953488372094,
            "service.throttle_events": 4,
            "service.throttle_sim_s": 1.8435124999998607,
            "service.forced_admissions": 0,
            "service.rejections": 0,
            "disk.util": 0.725470747389341,
            "cache.hit_rate": 0.6575192096597146,
            "lfs.cleaned_utilization": 0.11328125,
            "lfs.write_cost": 2.250625941744933,
            "lfs.space_amp": 1.1629110397496885,
        },
        "images": [
            "c1f4672ae17c140400e8f254b140ef7b01c26b18a2eaed1583f58010e6bd701c",
        ],
    },
    "cluster_migrate": {
        "sim": {
            "sim_ops_per_s": 116.87850318956416,
            "sim_lat_p50_ms": 4.780479999997311,
            "sim_lat_p99_ms": 1050.191735384578,
            "write_amp": 1.8048160021497475,
            "read_amp": 0.26108507665566383,
        },
        "counters": {
            "service.commit_batches": 123,
            "service.commit_batch_mean": 4.959349593495935,
            "service.throttle_events": 0,
            "service.throttle_sim_s": 0.0,
            "service.forced_admissions": 0,
            "service.rejections": 0,
            "disk.requests": 485,
            "disk.bytes_read": 2494464,
            "disk.bytes_written": 21868544,
            "disk.seeks": 317,
            "disk.sync_requests": 271,
            "disk.busy_sim_s": 23.955446153846204,
            "cache.hits": 4915,
            "cache.misses": 3449,
            "cache.insertions": 3977,
            "cache.evictions": 1542,
            "vfs.user_bytes_read": 9554219,
            "vfs.user_bytes_written": 12116772,
            "lfs.log_bytes": 21393408,
            "lfs.cleaner_bytes": 0,
            "lfs.cleaner_passes": 0,
            "lfs.cleaner_segments_cleaned": 0,
            "lfs.cleaner_live_bytes_copied": 0,
            "lfs.cleaner_bytes_read": 0,
            "lfs.cleaner_busy_sim_s": 0.0,
            "sim.elapsed_sim_s": 21.903086796448445,
            "cluster.migrated_bytes": 308440,
            "cluster.migrated_files": 32,
            "cluster.redirected_requests": 22,
            "cluster.cutover_sim_s": 1.3633658307692138,
            "cluster.shard_imbalance": 2.0390625,
            "disk.util": 0.27342545797849077,
            "cache.hit_rate": 0.587637494021999,
            "lfs.cleaned_utilization": 0.0,
            "lfs.write_cost": 1.7656029180048944,
            "lfs.space_amp": 0.0,
        },
        "images": [
            "bae8f6ad19f9db140bab7a9713409ea8f1d2c1c019828cb1878c53d39af5abda",
            "ee6b475b0ca07ee76fae8a06f8477adf7995ca5c464071f5d0aa119999dc2bb7",
            "61a0d3e264659b465ce716cd20bf3c161ecbb8325c84ac35274eeb2c32a1c18f",
            "c2cd029887ee2e7f6be7491a2c9caf0a3ea90b923fa7a0d0b2f615c813144cdd",
        ],
    },
    "crash_recover": {
        "sim": {
            "sim_ops_per_s": 40.39028229246122,
            "sim_lat_p50_ms": 6.593279999999924,
            "sim_lat_p99_ms": 102.40357384615439,
            "write_amp": 1.704179454207744,
            "read_amp": 2.3137924811435266,
        },
        "counters": {
            "cache.hits": 439,
            "cache.misses": 608,
            "cache.insertions": 851,
            "cache.evictions": 0,
            "vfs.creates": 185,
            "vfs.removes": 0,
            "vfs.read_calls": 90,
            "vfs.write_calls": 185,
            "vfs.user_bytes_read": 809006,
            "vfs.user_bytes_written": 1749750,
            "vfs.writebacks": 0,
            "lfs.log_bytes": 2883584,
            "lfs.cleaner_bytes": 0,
            "lfs.cleaner_passes": 0,
            "lfs.cleaner_segments_cleaned": 0,
            "lfs.cleaner_live_bytes_copied": 0,
            "lfs.cleaner_bytes_read": 0,
            "lfs.cleaner_busy_sim_s": 0.0,
            "lfs.emergency_passes": 0,
            "disk.requests": 324,
            "disk.bytes_read": 1871872,
            "disk.bytes_written": 2981888,
            "disk.seeks": 237,
            "disk.sync_requests": 274,
            "disk.busy_sim_s": 6.657372115384605,
            "sim.elapsed_sim_s": 7.996973075384704,
            "lfs.recovery_sim_s": 0.3671291666666659,
            "lfs.partials_replayed": 31,
            "disk.util": 0.8324864986574115,
            "cache.hit_rate": 0.4192932187201528,
            "lfs.cleaned_utilization": 0.0,
            "lfs.write_cost": 1.647997713959137,
            "lfs.space_amp": 1.6995850622406639,
        },
        "images": [
            "3f811571e18d1c70b2067fe4c9c3b76c8f72baaf8083fd9e8ea4e0226f115c54",
        ],
    },
}

# The same for the FFS pass (`workloads.py W 0 ffs --smoke`, traced).
# FFS shares BlockMap and the vfs read path with LFS, and its delayed
# write-back goes out in cache stamp order, so it pins the lookup and
# recency order of that shared code.  Generated at commit dce89e6, except
# largefile's cache.hits (and the hit rate derived from it): one lookup
# fewer once a read of a hole stopped loading a leaf that was never
# allocated, which FFS used to do before allocating the leaf's first
# block.  Largefile's were regenerated when sequential readahead became
# always on, and both when readahead began to follow disk addresses
# across files.
E2E_FFS_SMOKE = {
    "smallfile": {
        "sim": {
            "sim_ops_per_s": 30.59135158897142,
            "sim_lat_p50_ms": 36.81923076922544,
            "sim_lat_p99_ms": 50.19870153846284,
            "write_amp": 12.440297052738808,
            "read_amp": 3.0263662602418426,
        },
        "counters": {
            "cache.hits": 4523,
            "cache.misses": 698,
            "cache.insertions": 1382,
            "cache.evictions": 0,
            "vfs.creates": 550,
            "vfs.removes": 550,
            "vfs.read_calls": 550,
            "vfs.write_calls": 550,
            "vfs.user_bytes_read": 1908348,
            "vfs.user_bytes_written": 1908348,
            "vfs.writebacks": 6,
            "disk.requests": 3004,
            "disk.bytes_read": 5775360,
            "disk.bytes_written": 23740416,
            "disk.seeks": 2239,
            "disk.sync_requests": 2232,
            "disk.busy_sim_s": 50.49116923076896,
            "sim.elapsed_sim_s": 53.936812670769555,
            "disk.util": 0.9361170364101266,
            "cache.hit_rate": 0.8663091361808083,
            "lfs.cleaned_utilization": 0.0,
            "lfs.write_cost": 0.0,
            "lfs.space_amp": 0.0,
        },
        "images": [
            "a680b2558a3a4d0399599e44bffdb31f290988c0d5f6d9fefcb063fd885bc7be",
        ],
    },
    "largefile": {
        "sim": {
            "sim_ops_per_s": 71.51054532592585,
            "sim_lat_p50_ms": 5.908335384617658,
            "sim_lat_p99_ms": 33.70657538459909,
            "write_amp": 0.90810546875,
            "read_amp": 0.9386361825079441,
        },
        "counters": {
            "cache.hits": 79830,
            "cache.misses": 8399,
            "cache.insertions": 21837,
            "cache.evictions": 3875,
            "vfs.creates": 0,
            "vfs.removes": 0,
            "vfs.read_calls": 15360,
            "vfs.write_calls": 10240,
            "vfs.user_bytes_read": 118022742,
            "vfs.user_bytes_written": 83886080,
            "vfs.writebacks": 22,
            "disk.requests": 13846,
            "disk.bytes_read": 110780416,
            "disk.bytes_written": 76177408,
            "disk.seeks": 7466,
            "disk.sync_requests": 3287,
            "disk.busy_sim_s": 338.25304230772974,
            "sim.elapsed_sim_s": 357.98915926765875,
            "disk.util": 0.9448695122491884,
            "cache.hit_rate": 0.9048045427240476,
            "lfs.cleaned_utilization": 0.0,
            "lfs.write_cost": 0.0,
            "lfs.space_amp": 0.0,
        },
        "images": [
            "08b354553f661eac3d841a760d6320cfddc2c2a17d5487accd03553d0e6de287",
        ],
    },
}

E2E_WORKLOADS = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "workloads.py"
)


def test_service_run_image_and_stats():
    config = ServiceConfig(
        num_clients=4, seed=0, requests_per_client=20, fill_fraction=0.5
    )
    stats, fs = simulate_service(config, total_bytes=32 * MIB)
    fs.unmount()
    image = fs.disk.device.snapshot()
    assert hashlib.sha256(image).hexdigest() == SERVICE_IMAGE_SHA
    assert stats.render("golden") == SERVICE_RENDER


def test_cluster_run_with_migration():
    config = ClusterConfig(
        shards=2,
        clients=8,
        seed=0,
        requests_per_client=12,
        migrations=(MigrationSpec(1, 0, 0.05),),
    )
    assert run_cluster(config).render() == CLUSTER_RENDER


def test_chaos_campaign():
    task = dict(seed=0, clients=4, requests_per_client=40)
    report = run_campaign("chaos", run_chaos_trial, validate_chaos_rig, task, 2)
    assert report.render() == CHAOS_RENDER


def test_crashtest_campaign():
    report = run_campaign("crashtest", run_trial, validate_trial, dict(seed=0), 3)
    assert report.render() == CRASHTEST_RENDER


def test_hotpath_goldens_cover_every_workload():
    assert set(HOTPATH_FINGERPRINTS) == set(hotpath_workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(HOTPATH_FINGERPRINTS))
def test_hotpath_workload_fingerprint(name):
    workload = hotpath_workloads.WORKLOADS[name]
    # Telemetry off, on, and with a span per disk request: observing a
    # run must not change it.
    for telemetry in (None, Telemetry(), Telemetry(trace_io=True)):
        assert workload(telemetry) == HOTPATH_FINGERPRINTS[name]


def _e2e_smoke_pass(name: str, mode: str) -> dict:
    # A subprocess, as run.py starts it: one pass per fresh process.
    done = subprocess.run(
        [sys.executable, str(E2E_WORKLOADS), name, "0", mode, "--smoke"],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == 0
    return {key: result[key] for key in ("sim", "counters", "images")}


@pytest.mark.parametrize("name", sorted(E2E_SMOKE))
def test_e2e_smoke_sim_and_images(name):
    assert _e2e_smoke_pass(name, "untraced") == E2E_SMOKE[name]


@pytest.mark.parametrize("name", sorted(E2E_FFS_SMOKE))
def test_e2e_ffs_smoke_sim_counters_and_images(name):
    assert _e2e_smoke_pass(name, "ffs") == E2E_FFS_SMOKE[name]
