"""Service sweeps: clients vs throughput, and §5.3's fill curve.

The scaling sweep runs the multi-client simulation at increasing client
counts and records, per point, the simulated throughput, latency
percentiles, group-commit batch sizes and backpressure totals; its
points are the top level of ``BENCH_service.json``, which
``python -m repro sweep`` writes.

The fill sweep answers §5.3's "how full LFS can allow the disk to
become": the 16-client shape of the ``service_clean`` benchmark on a
volume prefilled to each of :data:`FILLS`, under greedy and the default
cleaning policy, at each of :data:`FILL_SEEDS`.  It is the ``fill``
section of the same file, and :func:`fill_gate` holds the default
policy to greedy's write cost at every fill.

All numbers are simulated time, so both sweeps are pure functions of
their seeds.
"""

from __future__ import annotations

import dataclasses
from statistics import median
from typing import Dict, List

from repro.lfs.config import LfsConfig
from repro.rig import new_rig
from repro.service.config import SERVICE_LFS_CONFIG, ServiceConfig
from repro.service.scheduler import RequestScheduler, prefill, simulate_service
from repro.units import MIB

CLIENTS = (1, 2, 4, 8, 16)
REQUESTS_PER_CLIENT = 40
SEED = 0

FILLS = (0.5, 0.7, 0.85, 0.9, 0.93)
"""Prefill fractions of the serviceable segments.  Past 0.93 every
policy thrashes (ROADMAP item 1)."""
FILL_POLICIES = ("greedy", LfsConfig().cleaner_policy)
FILL_SEEDS = (0, 7, 11)
FILL_CLIENTS = 16
FILL_REQUESTS_PER_CLIENT = 320
FILL_VOLUME = 64 * MIB
FILL_GATE = 1.01
"""Gate: at every fill, the default policy's median served-phase write
amplification is at most this multiple of greedy's."""


def sweep_point(clients: int, requests_per_client: int) -> Dict[str, object]:
    """One sweep point: run the service and flatten its stats."""
    config = ServiceConfig(
        num_clients=clients,
        seed=SEED,
        requests_per_client=requests_per_client,
    )
    stats, fs = simulate_service(config)
    fs.unmount()
    point: Dict[str, object] = {"clients": clients}
    point.update(stats.to_dict())
    # The write-amplification ledger rides along per point, so the
    # sweep shows how batching discipline changes bytes, not just
    # latency (keys prefixed to keep the flat namespace collision-free).
    wamp = fs.wamp_report()
    point["wamp_user_bytes"] = wamp["user_bytes"]
    point["wamp_log_bytes"] = wamp["log_bytes"]
    point["wamp_cleaner_bytes"] = wamp["cleaner_bytes"]
    point["wamp_write_amplification"] = round(
        wamp["write_amplification"], 6
    )
    return point


def run_sweep(
    requests_per_client: int, jobs: int = 1
) -> List[Dict[str, object]]:
    """Sweep :data:`CLIENTS`; ``jobs > 1`` runs the points in parallel.

    Each point is an independent seeded simulation, and results are
    consumed in sweep order, so the report is byte-identical for any
    ``jobs`` value.
    """
    from repro.harness.parallel import run_tasks

    return run_tasks(
        sweep_point,
        [(clients, requests_per_client) for clients in CLIENTS],
        jobs=jobs,
    )


def _served_counts(fs) -> Dict[str, int]:
    disk, user, cleaner = fs.disk.stats, fs.stats, fs.cleaner.stats
    return {
        "disk_written": disk.bytes_written,
        "disk_read": disk.bytes_read,
        "user_written": user.bytes_written,
        "user_read": user.bytes_read,
        "live_copied": cleaner.live_bytes_copied,
        "segments_cleaned": cleaner.segments_cleaned,
    }


def fill_point(fill: float, policy: str, seed: int) -> Dict[str, object]:
    """One point of the fill curve, counted over the served phase only:
    from when the scheduler starts to the closing checkpoint."""
    config = ServiceConfig(
        num_clients=FILL_CLIENTS,
        requests_per_client=FILL_REQUESTS_PER_CLIENT,
        fill_fraction=fill,
        seed=seed,
    )
    fs = new_rig(
        "lfs",
        total_bytes=FILL_VOLUME,
        lfs_config=dataclasses.replace(SERVICE_LFS_CONFIG, cleaner_policy=policy),
        service=config,
    ).fs
    prefill(fs, config)
    start = _served_counts(fs)
    stats = RequestScheduler(fs, config).run()
    fs.checkpoint()
    fs.disk.drain()
    end = _served_counts(fs)
    served = {name: end[name] - start[name] for name in start}

    def ratio(part: float, whole: float) -> float:
        return round(part / whole, 6) if whole else 0.0

    summary = stats.to_dict()
    return {
        "fill": fill,
        "policy": policy,
        "seed": seed,
        "write_amp": ratio(served["disk_written"], served["user_written"]),
        "read_amp": ratio(served["disk_read"], served["user_read"]),
        "latency_p99_seconds": summary["latency_p99_seconds"],
        "cleaned_utilization": ratio(
            served["live_copied"],
            served["segments_cleaned"] * fs.config.segment_size,
        ),
        "segments_cleaned": served["segments_cleaned"],
        "forced_admissions": summary["forced_admissions"],
        "dropped": summary["dropped"],
    }


def run_fill_sweep(jobs: int = 1) -> Dict[str, object]:
    """The ``fill`` section: every point, then each (fill, policy)'s
    medians over the seeds.  Byte-identical for any ``jobs``."""
    from repro.harness.parallel import run_tasks

    points = run_tasks(
        fill_point,
        [
            (fill, policy, seed)
            for fill in FILLS
            for policy in FILL_POLICIES
            for seed in FILL_SEEDS
        ],
        jobs=jobs,
    )
    medians = []
    for fill in FILLS:
        for policy in FILL_POLICIES:
            runs = [
                point for point in points
                if point["fill"] == fill and point["policy"] == policy
            ]
            medians.append({
                "fill": fill,
                "policy": policy,
                **{
                    name: median(point[name] for point in runs)
                    for name in (
                        "write_amp",
                        "read_amp",
                        "latency_p99_seconds",
                        "cleaned_utilization",
                    )
                },
            })
    return {
        "clients": FILL_CLIENTS,
        "requests_per_client": FILL_REQUESTS_PER_CLIENT,
        "seeds": list(FILL_SEEDS),
        "points": points,
        "medians": medians,
    }


def fill_gate(section: Dict[str, object]) -> List[str]:
    """Failures of the fill sweep: dropped requests, and any fill at
    which the default policy's median write amplification exceeds
    :data:`FILL_GATE` times greedy's."""
    failures = []
    dropped = sum(int(point["dropped"]) for point in section["points"])
    if dropped:
        failures.append(f"fill sweep: {dropped} dropped request(s)")
    default = LfsConfig().cleaner_policy
    by_point = {
        (row["fill"], row["policy"]): row["write_amp"]
        for row in section["medians"]
    }
    for fill in sorted({fill for fill, _policy in by_point}):
        mine, greedy = by_point[fill, default], by_point[fill, "greedy"]
        if mine > FILL_GATE * greedy:
            failures.append(
                f"fill {fill}: {default} write amp {mine:.3f} exceeds "
                f"{FILL_GATE:.2f}x greedy's {greedy:.3f}"
            )
    return failures
