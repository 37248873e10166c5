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
from repro.faults import run_campaign
from repro.faults.chaos import run_chaos_campaign
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
chaos: 2 trials, seed 0, 4 clients
  crashes injected: 2
    mid-clean:        1/1 fired
    mid-commit:       1/1 fired
  durability contract: 61 file checks, 0 violations
  acked fsyncs: 88
  resumed clients: 8
  degraded trials: 0
  failed trials: 0
fault injection totals:
  torn writes 0, transient errors 0
durability: OK"""

CRASHTEST_RENDER = """\
crashtest: 3 trials, seed 0
  clean remounts:       0
  detected & survived:  3
    checkpoint fallback:  1
    roll-forward damage:  0
    quarantined segments: 1
    verify findings:      1
    degraded operation:   0
    mount failures:       1
  unhandled exceptions: 0
fault injection totals:
  torn writes 3, bit flips 3, bad sectors grown 12
  media errors 4, transient errors 0, remaps 1
survival: OK"""

# What each workload in hotpath_workloads.py must return, whatever the
# telemetry mode.
HOTPATH_FINGERPRINTS = {
    "small_file": {
        "create_seconds": 0.6082591230769241,
        "read_seconds": 0.8630206615384534,
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
        "simulated_seconds": 2.00110769230769,
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

# The end-to-end benchmark's simulated metrics and final image hashes,
# `benchmarks/e2e/workloads.py W 0 untraced --smoke`, generated at
# commit 7ced895.  A simulator-speed PR must leave these alone: "every
# simulated byte unchanged" is asserted here, not diffed by hand.
E2E_SMOKE = {
    "smallfile": {
        "sim": {
            "sim_ops_per_s": 127.90393345427898,
            "sim_lat_p50_ms": 3.627599999999842,
            "sim_lat_p99_ms": 30.508735384615626,
            "write_amp": 1.9166986314865004,
            "read_amp": 1.8716250914403452,
        },
        "images": [
            "6964510747c4d1d4e0037fee62e8fcfc48a3c347d29c4f9ba3c6387758f0ac70"
        ],
    },
    "largefile": {
        "sim": {
            "sim_ops_per_s": 66.98295193077742,
            "sim_lat_p50_ms": 12.147975384607435,
            "sim_lat_p99_ms": 33.96633538460492,
            "write_amp": 0.921435546875,
            "read_amp": 0.9364844616133389,
        },
        "images": [
            "1fe30e3edc9ea8aa7cfa6b55055ba6e2966ed3705fef90404d6d9c4bb36f4f2e"
        ],
    },
    "crash_recover": {
        "sim": {
            "sim_ops_per_s": 36.01443150949922,
            "sim_lat_p50_ms": 6.593279999999924,
            "sim_lat_p99_ms": 102.40357384615439,
            "write_amp": 1.704179454207744,
            "read_amp": 4.318741764585182,
        },
        "images": [
            "1634e4d6f57c218f9badef2b49fee1a34d5226ce3c6ff9d2395e7664b1df0f2b"
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
    report = run_chaos_campaign(
        trials=2, seed=0, clients=4, requests_per_client=40
    )
    assert report.render() == CHAOS_RENDER


def test_crashtest_campaign():
    assert run_campaign(trials=3, seed=0).render() == CRASHTEST_RENDER


def test_hotpath_goldens_cover_every_workload():
    assert set(HOTPATH_FINGERPRINTS) == set(hotpath_workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(HOTPATH_FINGERPRINTS))
def test_hotpath_workload_fingerprint(name):
    workload = hotpath_workloads.WORKLOADS[name]
    # Telemetry off, on, and with a span per disk request: observing a
    # run must not change it.
    for telemetry in (None, Telemetry(), Telemetry(trace_io=True)):
        assert workload(telemetry) == HOTPATH_FINGERPRINTS[name]


@pytest.mark.parametrize("name", sorted(E2E_SMOKE))
def test_e2e_smoke_sim_and_images(name):
    # A subprocess, as run.py starts it: one pass per fresh process.
    done = subprocess.run(
        [sys.executable, str(E2E_WORKLOADS), name, "0", "untraced", "--smoke"],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert {key: result[key] for key in ("sim", "images")} == E2E_SMOKE[name]
